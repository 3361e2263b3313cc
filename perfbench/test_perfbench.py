"""Tests of the benchmark itself: statistics, tracing, checks and smoke runs.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q`` from the
repository root. The smoke runs start the benchmark as a subprocess on tiny
streams; ``yago-dataflow`` starts a local Spark JVM and takes about a minute.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import delta  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from summary import MIN_BEYOND, beyond, quantile, self_times, tail  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END, PER_LAYER, SETUP_REPS, WORKLOADS, SetupTimer, Workload, register,
)


# ----------------------------------------------------------------------
# tail-percentile selection


def test_tail_prefers_p999_when_ten_samples_lie_beyond_it():
    xs = list(range(10_000))
    assert beyond(len(xs), 0.999) == MIN_BEYOND
    assert tail(xs) == ("p99.9", 9_989, 10, 9_994.5)  # mean of 9990..9999


def test_tail_falls_back_to_p99():
    xs = list(range(9_999))  # p99.9 has only 9 samples beyond it
    label, value, n, mean_beyond = tail(xs)
    assert (label, n) == ("p99", 99)
    assert value == quantile(xs, 0.99)
    assert mean_beyond == sum(xs[-99:]) / 99


def test_tail_is_none_for_small_samples():
    assert tail(list(range(999))) is None  # p99 has 9 samples beyond it
    assert tail([1.0, 2.0, 3.0]) is None


def test_small_samples_report_the_mean_beyond_p99_or_else_the_slowest():
    out = {"latencies": [i / 1e3 for i in range(500)], "setup_s": 1.0,
           "tuples": 500, "busy": 1.0, "peak_rss_mb": 1.0}
    assert run.end_to_end(out)[0]["latency_tail_ms"] == pytest.approx(497)  # 495..499
    out["latencies"] = [0.004, 0.001, 0.002]
    assert run.end_to_end(out)[0]["latency_tail_ms"] == pytest.approx(4)


def test_quantile_is_nearest_rank():
    xs = [10, 20, 30, 40]
    assert quantile(xs, 0.5) == 20
    assert quantile(xs, 0.51) == 30
    assert quantile(xs, 1.0) == 40
    with pytest.raises(ValueError):
        quantile([], 0.5)


# ----------------------------------------------------------------------
# self time


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 4]; root > c [7, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 7.0]
    end = [10.0, 6.0, 4.0, 9.0]
    assert self_times(parent, start, end) == [3.0, 3.0, 2.0, 2.0]


def test_tracer_records_nested_spans(monkeypatch):
    clock = iter(float(i) for i in range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(clock))
    tr = tracing.Tracer()
    inner = tr.wrap(lambda: None, "inner")

    def outer_fn():
        inner()
        inner()

    outer = tr.wrap(outer_fn, "outer")
    outer()  # outer [0, 5], inner [1, 2] and [3, 4]
    totals = tr.totals()
    assert totals["outer"] == {"calls": 1, "total_ms": 5e3, "self_ms": 3e3}
    assert totals["inner"] == {"calls": 2, "total_ms": 2e3, "self_ms": 2e3}
    assert tr.child_total_ms("outer") == 2e3
    assert list(tr.parent) == [-1, 0, 0]


def test_tracer_counts_without_spans():
    tr = tracing.Tracer()
    f = tr.counted(lambda x: x + 1, "f")
    assert f(1) == 2 and f(2) == 3
    assert tr.counts["f"] == 2 and len(tr.start) == 0


# ----------------------------------------------------------------------
# result checks


def _prefix_to_last_boundary(w: Workload, n_edges: int = 400):
    """A stream prefix ending at a slide-boundary insertion, and its times."""
    stream = w.stream(seed=3)[:n_edges]
    i = max(k for k, t in enumerate(stream)
            if k and t.op == "+" and t.ts % w.slide == 0 and stream[k - 1].ts < t.ts)
    stream = stream[: i + 1]
    return stream, [t.ts for t in stream]


def test_probe_passes_on_correct_engines_and_flags_a_wrong_index():
    w = WORKLOADS["so-dense"]
    stream, ts = _prefix_to_last_boundary(w)
    regs, _ = register(w)
    failures: delta.Failures = {}
    live = delta.offer_untimed(regs, stream, 0, len(stream), failures)
    delta.probe(live, stream, ts, len(stream) - 1, w, failures)
    assert failures == {}

    victim = live[0]
    victim.engine.derivable_pairs = lambda: {("nobody", "nowhere")}
    delta.probe(live, stream, ts, len(stream) - 1, w, failures)
    assert list(failures) == [victim.label]


def test_replays_from_a_snapshot_redo_the_first_pass_and_its_probes():
    w = dataclasses.replace(WORKLOADS["yago-churn"], min_pass_tuples=1_000)
    stream = w.stream(seed=3, smoke=True)
    ts = [t.ts for t in stream]
    failures: delta.Failures = {}
    setup = SetupTimer(w)
    checks = delta.Checks(stream, ts, w, failures, setup, {})
    start = delta.warm_end(ts, w)
    snapshot = delta.Snapshot(w, stream, start, failures)
    first, live = delta.closed_loop(snapshot.restore(failures), stream, start, 0.0, w,
                                    failures, checks)
    assert first.probed and first.end - start >= w.min_pass_tuples
    expected = [r.engine.derivable_pairs() for r in live]
    cached = len(checks.oracle)

    for blob in (snapshot.blob, None):  # restored from the pickle, then re-warmed
        snapshot.blob = blob
        again = snapshot.restore(failures)
        lat = delta.replay(again, stream, first, start, failures, checks)
        assert len(lat) == len(first.latencies)
        assert [r.engine.derivable_pairs() for r in again] == expected
    assert failures == {}
    assert len(checks.oracle) == cached  # later passes reuse the oracle's answers
    # a burst of registrations at every probe of the first pass, and at the
    # last one of each replay
    assert len(setup.setups) == (len(first.probed) + 2) * SETUP_REPS


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code


def test_benchmark_json_matches_the_metric_and_workload_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # so-dense stays runnable by name but is not one of the measured workloads
    assert [w["name"] for w in spec["workloads"]] == [w for w in WORKLOADS if w != "so-dense"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ----------------------------------------------------------------------
# smoke runs


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced_run_reports_every_per_layer_metric(workload):
    # The dataflow smoke stream is consumed whole, so that the window slides
    # and the final-window check covers expiry.
    seconds = "600" if workload == "yago-dataflow" else "1"
    p = _run(["--workload", workload, "--seed", "1", "--seconds", seconds, "--trace", "1", "--smoke"])
    assert p.returncode == 0, p.stdout + p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(PER_LAYER)
    if workload == "yago-dataflow":
        assert result["metrics"]["dataflow.incremental.spark_jobs_per_batch"]["value"] > 0
    else:
        assert result["metrics"]["core.rapq.insert_steps"]["value"] > 0
        assert result["metrics"]["core.rspq.extend_calls"]["value"] > 0


def test_smoke_untraced_run_reports_every_end_to_end_metric():
    p = _run(["--workload", "so-dense", "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke"])
    assert p.returncode == 0, p.stdout + p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_ratio = 0/4" in p.stdout


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = _run(["--workload", "so-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
             cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""
