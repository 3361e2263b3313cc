"""Workload definitions: input streams, registered queries and metric names.

Each workload is one process driving one closed loop with a single client:
the next tuple (or micro-batch) is offered only after the previous one has
returned, as in the paper's method (§5.1.1). The seed given on the command
line is passed to the stream generators; the engines see only the generated
tuples.
"""
from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from statistics import median

from repro.core.queries import LABEL_BINDINGS, QUERY_NAMES, Query, make_query
from repro.core.rapq import RAPQEngine
from repro.core.rspq import RSPQEngine
from repro.harness.experiments import RSPQ_BUDGET
from repro.rpq_oracle import Sgt
from repro.streams.generators import so_stream, with_deletions, yago_stream


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``n_edges`` is sized so that the stream outlasts a full run with a wide
    margin; ``smoke_edges`` is the size for the benchmark's own smoke tests.
    A run's first pass takes a ``1/passes`` share of the measured time, and
    at least ``min_pass_tuples`` tuples (see ``delta.py``).
    ``exact_rspq`` names the RSPQ queries whose results are compared against
    the exhaustive simple-path oracle; the other RSPQ queries are only checked
    to be contained in the arbitrary-path result (the simple-path oracle is
    exponential on dense cyclic windows).
    """

    name: str
    dataset: str
    n_edges: int
    smoke_edges: int
    window: int
    slide: int
    delete_ratio: float
    queries: tuple[tuple[str, str], ...]  # (semantics, Table 2 query)
    exact_rspq: frozenset[str] = frozenset()
    passes: int = 1
    min_pass_tuples: int = 0

    def stream(self, seed: int, smoke: bool = False) -> list[Sgt]:
        n = self.smoke_edges if smoke else self.n_edges
        gen = so_stream if self.dataset == "so" else yago_stream
        out = gen(n_edges=n, seed=seed)
        if self.delete_ratio:
            out = with_deletions(out, self.delete_ratio, seed=seed)
        return out


WORKLOADS = {
    w.name: w
    for w in (
        # Dense and cyclic: Insert/relink (RAPQ) and Extend/Unmark (RSPQ) do
        # most of the work, and deletions hit a large index. Runnable by name
        # but not one of BENCHMARK.json's workloads: at about 150 tuples/s a
        # run covers too few of the heavy tuples that set its throughput and
        # tail for two sets of ten seeds to agree within the bounds.
        Workload(
            "so-dense", "so", 30_000, 1_500, 60, 6, 0.05,
            (("rapq", "Q4"), ("rapq", "Q11"), ("rspq", "Q2"), ("rspq", "Q11")),
            exact_rspq=frozenset({"Q11"}), passes=1,
        ),
        # Sparse, near-acyclic and conflict-free: per-tuple dispatch and slide
        # expiry dominate (the Fig 10 set-up). The bypass workload for Insert.
        Workload(
            "yago-churn", "yago", 250_000, 4_000, 100, 10, 0.10,
            tuple((sem, q) for sem in ("rapq", "rspq") for q in QUERY_NAMES),
            exact_rspq=frozenset(QUERY_NAMES), passes=8,
            min_pass_tuples=12_000,
        ),
        # The only Spark workload: one micro-batch per slide into
        # IncrementalRPQ.process_batch.
        Workload("yago-dataflow", "yago", 12_000, 1_500, 100, 25, 0.0, (("rapq", "Q2"),)),
    )
}

END_TO_END = {
    "setup_s": "s",
    "throughput_tps": "tuples/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.dfa.compile_ms": "ms",
    "core.windows.expire_ms": "ms",
    "core.windows.insert_calls": "count",
    "core.windows.edges_max": "count",
    "core.rapq.insert_ms": "ms",
    "core.rapq.insert_steps": "count",
    "core.rapq.tree_adds": "count",
    "core.rapq.tree_relinks": "count",
    "core.rapq.relink_share": "ratio",
    "core.rapq.expire_ms": "ms",
    "core.rapq.expire_calls": "count",
    "core.rapq.expiry_candidates": "count",
    "core.rapq.delete_ms": "ms",
    "core.rapq.derivable_pairs_ms": "ms",
    "core.rapq.derivable_pairs_calls": "count",
    "core.rapq.nodes_max": "count",
    "core.rapq.trees_max": "count",
    "core.rspq.extend_ms": "ms",
    "core.rspq.extend_calls": "count",
    "core.rspq.conflicts": "count",
    "core.rspq.unmark_calls": "count",
    "core.rspq.expire_ms": "ms",
    "core.rspq.delete_ms": "ms",
    "core.rspq.derivable_pairs_ms": "ms",
    "core.rspq.nodes_max": "count",
    "core.discard_ms": "ms",
    "dataflow.incremental.spark_jobs_per_batch": "count",
    "dataflow.incremental.spark_tasks_per_batch": "count",
    "dataflow.incremental.closure_rounds_per_batch": "count",
    "dataflow.batch_eval.rapq_ms": "ms",
    "dataflow.batch_eval.spark_jobs": "count",
    "trace.overhead_pct": "%",
    "trace.span_coverage_pct": "%",
}

# Registration is milliseconds on the Δ-tree workloads, so it is repeated in
# bursts of this many.
SETUP_REPS = 5


@dataclass
class Registered:
    """One registered persistent query and the engine evaluating it."""

    semantics: str
    query: Query
    engine: RAPQEngine | RSPQEngine

    @property
    def label(self) -> str:
        return f"{self.semantics.upper()} {self.query.name}"


def register(w: Workload) -> tuple[list[Registered], float]:
    """Register every query of ``w``: regex → minimal DFA, RSPQ containment,
    engine construction. Returns the registrations and the compile ms.
    """
    bindings = LABEL_BINDINGS[w.dataset]
    out = []
    compile_s = 0.0
    for sem, name in w.queries:
        t0 = time.perf_counter()
        q = make_query(name, bindings)
        if sem == "rspq":
            q.dfa.containment  # the conflict test's matrix, built once per query
        compile_s += time.perf_counter() - t0
        if sem == "rapq":
            engine = RAPQEngine(q.dfa, window=w.window, slide=w.slide)
        else:
            engine = RSPQEngine(q.dfa, window=w.window, slide=w.slide, budget=RSPQ_BUDGET)
        out.append(Registered(sem, q, engine))
    return out, compile_s * 1e3


class SetupTimer:
    """Times registration in bursts of ``SETUP_REPS``, called between timed
    tuples so that the bursts are spread over the run like the tuples."""

    def __init__(self, w: Workload) -> None:
        self.w = w
        self.setups: list[float] = []
        self.compiles: list[float] = []

    def __call__(self) -> None:
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            _, compile_ms = register(self.w)
            self.setups.append(time.perf_counter() - t0)
            self.compiles.append(compile_ms)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
