"""Closed-loop driver for ``yago-dataflow``: micro-batches into IncrementalRPQ.

One micro-batch per slide is built as a DataFrame from the generated tuples
(untimed) and handed to ``IncrementalRPQ.process_batch``; its latency covers
``process_batch`` plus collecting the returned new results, as the streaming
job's sink does. The batch DataFrame is left lazy, like a streaming source's
batch, so each Spark action on it re-reads the input.
"""
from __future__ import annotations

import os
import shlex
import tempfile
import time
from statistics import median
from pathlib import Path

from repro.core.queries import LABEL_BINDINGS, make_query
from repro.core.rapq import RAPQEngine
from repro.rpq_oracle import Sgt, snapshot_edges

from delta import Failures
from tracing import Tracer
from workloads import Workload, peak_rss_mb

# local[≤2]: two task threads and two shuffle partitions gave the shortest
# and steadiest batches on a 4-core VM; more threads only add contention.
THREADS = min(2, os.cpu_count() or 1)
PARTITIONS = 2
DRIVER_MEMORY = "1g"
WARM_BATCHES = 2  # the first batches pay the JVM code generation
SETUP_REPS = 3  # the first in a cold JVM, then sessions restarted in it


def configure(scratch: Path) -> None:
    """Point Spark, its JVM and Python's tempfile at ``scratch``.

    Must run before the first SparkSession starts: the JVM reads its options
    at launch.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = shlex.quote(str(scratch))
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{THREADS}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options -Djava.io.tmpdir={tmp} "
        f"--conf spark.local.dir={tmp} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    os.environ["SPARK_LOCAL_DIRS"] = str(scratch)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)


def _session():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(PARTITIONS))
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    """Stop the session and the JVM behind it, and wait for the JVM to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()
            raise


def _batches(stream: list[Sgt], slide: int) -> list[list[Sgt]]:
    out: dict[int, list[Sgt]] = {}
    for t in stream:
        out.setdefault(t.ts // slide, []).append(t)
    return [out[k] for k in sorted(out)]


def _frame(spark, batch: list[Sgt]):
    from repro.dataflow.product_graph import SGT_SCHEMA

    return spark.createDataFrame(
        [(t.ts, t.src, t.dst, t.label, t.op) for t in batch], SGT_SCHEMA
    )


def _register(spark, w: Workload):
    from repro.dataflow.incremental import IncrementalRPQ

    t0 = time.perf_counter()
    (_, name), = w.queries
    q = make_query(name, LABEL_BINDINGS[w.dataset])
    compile_ms = (time.perf_counter() - t0) * 1e3
    return q, IncrementalRPQ(spark, q.dfa, w.window), compile_ms


def _jobs_and_tasks(sc, group: str) -> tuple[int, int]:
    st = sc.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    tasks = 0
    for j in jobs:
        info = st.getJobInfo(j)
        for s in info.stageIds if info else ():
            stage = st.getStageInfo(s)
            tasks += stage.numTasks if stage else 0
    return len(jobs), tasks


def run(w: Workload, seed: int, seconds: float, trace: bool, smoke: bool,
        scratch: Path) -> dict:
    """One run of ``yago-dataflow``; returns metrics, units and notes."""
    configure(scratch)
    from repro.dataflow.batch_eval import batch_rapq
    from repro.dataflow.product_graph import edges_df

    stream = w.stream(seed, smoke)
    batches = _batches(stream, w.slide)
    failures: Failures = {}
    (_, qname), = w.queries
    label = f"RAPQ {qname} (dataflow)"

    setups, compiles = [], []
    spark = None
    try:
        for _ in range(SETUP_REPS):
            if spark is not None:
                spark.stop()
            t0 = time.perf_counter()
            spark = _session()
            q, engine, compile_ms = _register(spark, w)
            setups.append(time.perf_counter() - t0)
            compiles.append(compile_ms)
        sc = spark.sparkContext

        emitted: set[tuple[str, str]] = set()
        for b in batches[:WARM_BATCHES]:
            emitted |= {(r["x"], r["y"]) for r in engine.process_batch(_frame(spark, b)).collect()}
        lat, sizes = [], []
        end = WARM_BATCHES
        while end < len(batches) and sum(lat) < seconds:
            df = _frame(spark, batches[end])
            t0 = time.perf_counter()
            rows = engine.process_batch(df).collect()
            lat.append(time.perf_counter() - t0)
            sizes.append(len(batches[end]))
            emitted |= {(r["x"], r["y"]) for r in rows}
            end += 1
        rss = peak_rss_mb()
        notes = [f"batches {WARM_BATCHES}..{end} of {len(batches)} measured "
                 f"({sum(sizes)} tuples), setup reps {[round(s, 3) for s in setups]}"]
        if sum(lat) < seconds:
            notes.append("stream exhausted before the measured time was up")

        # --- result checks, outside the timed region.
        consumed = [t for b in batches[:end] for t in b]
        results = engine.results()
        eager = RAPQEngine(q.dfa, window=w.window, slide=1)
        for t in consumed:
            eager.process(t)
        wm = consumed[-1].ts
        snapshot = snapshot_edges(consumed, wm, w.window)
        sc.setJobGroup("batch_rapq", "final-window check")
        t0 = time.perf_counter()
        batch = {(r["x"], r["y"]) for r in
                 batch_rapq(edges_df(spark, sorted(snapshot)), q.dfa).collect()}
        batch_ms = (time.perf_counter() - t0) * 1e3
        batch_jobs, _ = _jobs_and_tasks(sc, "batch_rapq")
        derivable = engine.derivable_pairs()
        eager_results = set(eager.results)
        if results != emitted:
            failures[label] = "results() differs from the emitted result stream"
        elif not results <= eager_results:
            failures[label] = (f"{len(results - eager_results)} results not in "
                               "the eager RAPQ result")
        elif derivable != batch:
            failures[label] = (f"derivable_pairs() differs from batch_rapq on the final window: "
                               f"{len(derivable - batch)} extra, {len(batch - derivable)} missing")

        out = {
            "setup_s": median(setups),
            "peak_rss_mb": rss,
            "latencies": lat,
            "tuples": sum(sizes),
            "busy": sum(lat),
            "attempted": 1,
            "failures": failures,
            "notes": notes,
        }
        if trace:
            layers, tr = _traced_replay(spark, w, batches, end, sum(lat))
            layers["core.dfa.compile_ms"] = median(compiles)
            layers["dataflow.batch_eval.rapq_ms"] = batch_ms
            layers["dataflow.batch_eval.spark_jobs"] = batch_jobs
            out["layers"] = layers
            out["tracer"] = tr
        return out
    finally:
        if spark is not None:
            stop(spark)


def _traced_replay(spark, w: Workload, batches: list[list[Sgt]], end: int,
                   untraced_busy: float) -> tuple[dict, Tracer]:
    """Replay the measured batches into a fresh engine, tagging each batch's
    Spark jobs with a job group and recording a span per batch."""
    sc = spark.sparkContext
    _, engine, _ = _register(spark, w)
    for b in batches[:WARM_BATCHES]:
        engine.process_batch(_frame(spark, b)).collect()
    tr = Tracer()
    offer, process, collect = (tr.name_id(n) for n in (
        "offer", "dataflow.incremental.process_batch", "dataflow.incremental.collect"))
    jobs = tasks = 0
    rounds0 = engine.closure_rounds
    for k in range(WARM_BATCHES, end):
        df = _frame(spark, batches[k])
        group = f"batch-{k}"
        sc.setJobGroup(group, "process_batch")
        o = tr.begin(offer)
        p = tr.begin(process)
        new = engine.process_batch(df)
        tr.finish(p)
        c = tr.begin(collect)
        new.collect()
        tr.finish(c)
        tr.finish(o)
        j, t = _jobs_and_tasks(sc, group)
        jobs += j
        tasks += t
    n = max(1, end - WARM_BATCHES)
    T = tr.totals()
    offered = T["offer"]["total_ms"]
    return {
        "dataflow.incremental.spark_jobs_per_batch": jobs / n,
        "dataflow.incremental.spark_tasks_per_batch": tasks / n,
        "dataflow.incremental.closure_rounds_per_batch": (engine.closure_rounds - rounds0) / n,
        "trace.overhead_pct": (offered / (untraced_busy * 1e3) - 1) * 100,
        "trace.span_coverage_pct": tr.child_total_ms("offer") / offered * 100,
    }, tr
