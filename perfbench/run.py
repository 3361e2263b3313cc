"""Benchmark entry point: one run of one workload, printed as metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload so-dense --seed 1 --seconds 15 --trace 0

Workloads are defined in ``workloads.py``: ``so-dense`` and ``yago-churn``
drive the Δ-tree engines (``repro.core.rapq`` / ``repro.core.rspq``) tuple by
tuple, ``yago-dataflow`` drives ``repro.dataflow.incremental`` one
micro-batch per slide. Each run is one process and one closed loop. A
Δ-tree run measures one stretch of the stream in several passes from the
same warmed-up state and keeps each tuple's fastest measurement (see
``delta.py``).

``--trace 0`` measures the end-to-end metrics (``setup_s``, ``throughput_tps``,
``latency_p50_ms``, ``latency_tail_ms``, ``peak_rss_mb``). ``--trace 1`` makes
the same measured run, then replays the measured input into fresh engines
with spans and counters around each layer's public entry points, and reports
the per-layer metrics instead; the spans of the latest traced run of each
workload are written to ``.bench_build/perfbench/spans-<workload>.npz``.

Every run checks its results outside the timed region. A unit is one
(query, run) pair; it fails on a result mismatch or on RSPQ
``BudgetExceeded``. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 when any unit failed and 2
when the program under test cannot be imported.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src / 'repro'} is missing",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny streams, for the benchmark's own tests")
    return ap.parse_args(argv)


def end_to_end(out: dict) -> tuple[dict[str, float], list[str]]:
    """End-to-end metric values and the notes that qualify them."""
    from statistics import fmean

    from summary import beyond, quantile, tail

    xs = sorted(out["latencies"])
    tl = tail(xs)
    if tl is None:
        # Too few samples for a percentile with ten samples beyond it: report
        # the mean of those beyond p99, or the slowest sample if none is.
        k = max(1, beyond(len(xs), 0.99))
        note = f"latency_tail_ms is the mean of the slowest {k} of {len(xs)} samples"
        tail_s = fmean(xs[-k:])
    else:
        pct, pct_s, n_beyond, tail_s = tl
        note = (f"latency_tail_ms is the mean of the {n_beyond} of {len(xs)} samples "
                f"beyond {pct} = {pct_s * 1e3:.6g} ms")
    values = {
        "setup_s": out["setup_s"],
        "throughput_tps": out["tuples"] / out["busy"],
        "latency_p50_ms": quantile(xs, 0.5) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    return values, [note]


def _fix_hash_seed(seed: int) -> None:
    """Re-execute under ``PYTHONHASHSEED`` derived from ``--seed``.

    String hashing decides the iteration order of the engines' vertex sets,
    and so how much work Insert and Extend do on the same input. Fixing it
    per seed makes a seed's run repeat the same work.
    """
    want = str(seed % 4294967296)
    if os.environ.get("PYTHONHASHSEED") != want:
        os.environ["PYTHONHASHSEED"] = want
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _fix_hash_seed(args.seed)
    _import_program()
    from workloads import END_TO_END, PER_LAYER, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    try:
        if w.name == "yago-dataflow":
            import dataflow

            out = dataflow.run(w, args.seed, args.seconds, bool(args.trace),
                               args.smoke, SCRATCH / "tmp")
        else:
            import delta

            out = delta.run(w, args.seed, args.seconds, bool(args.trace), args.smoke)
    finally:
        shutil.rmtree(SCRATCH / "tmp", ignore_errors=True)

    values, notes = end_to_end(out)
    failures = out["failures"]
    attempted = out["attempted"]
    print(f"workload {w.name} seed {args.seed} trace {args.trace}")
    for note in out["notes"] + notes:
        print(f"  {note}")
    for name, unit in END_TO_END.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(f"  failed_ratio = {len(failures)}/{attempted} = {len(failures) / attempted:g}")
    for unit_label, reason in failures.items():
        print(f"  FAILED {unit_label}: {reason}")

    if args.trace:
        layers = {name: out["layers"].get(name, 0) for name in PER_LAYER}
        for name, unit in PER_LAYER.items():
            print(f"  {name} = {layers[name]:.6g} {unit}")
        spans = SCRATCH / f"spans-{w.name}.npz"
        out["tracer"].write(spans)
        print(f"  spans written to {spans.relative_to(ROOT)}")
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
