"""Closed-loop driver for the Δ-tree workloads (``so-dense``, ``yago-churn``).

Every tuple is offered to every registered engine; its latency runs from the
offer until the last engine's ``process`` returns. Results are checked
outside the timed region at slide boundaries (see :func:`probe`).

A run measures one stretch of the stream ``w.passes`` times, each pass
starting from the same warmed-up engine state, and takes each tuple's
service time as the least of its measurements. On a shared host, other
tenants slow each core in turn by up to 40% for a second or longer; they only
ever add time. Spreading a tuple's measurements over the whole run lets at
least one of them land in an undisturbed stretch, and the loop moves to the
least disturbed core every ``PICK_EVERY`` seconds of engine time.
"""
from __future__ import annotations

import bisect
import gc
import os
import pickle
import time
from dataclasses import dataclass
from statistics import median

from repro.core.rapq import SpanningTree
from repro.core.rspq import BudgetExceeded
from repro.rpq_oracle import Sgt, rapq_pairs, rspq_pairs, snapshot_edges

from tracing import Tracer
from workloads import Registered, SetupTimer, Workload, peak_rss_mb, register

# Results are probed this many times, evenly over the first pass; the last
# probe is at the first slide boundary after the pass's time is up. Later
# passes are probed at that last one.
PROBES_PER_PASS = 6
# Seconds of engine time between choices of the core to run on.
PICK_EVERY = 0.25
_CORES = sorted(os.sched_getaffinity(0))  # the cores this process may use


def _spin() -> float:
    """Seconds a fixed, short pure-Python loop takes on the current core."""
    t0 = time.perf_counter()
    x = 0
    for k in range(20_000):
        x += k * k
    return time.perf_counter() - t0


def pick_core() -> None:
    """Pin this process to the allowed core that runs a fixed loop fastest."""
    speeds = {}
    for core in _CORES:
        os.sched_setaffinity(0, {core})
        _spin()
        speeds[core] = min(_spin(), _spin())
    os.sched_setaffinity(0, {min(speeds, key=speeds.get)})


@dataclass
class LoopResult:
    end: int  # one past the last tuple offered
    latencies: list[float]  # seconds, one per measured tuple
    probed: list[int]  # indices of the tuples after which results were probed
    exhausted: bool  # the stream ran out before the measured time was up


# Failed units, by unit label, with the first failure's reason. A unit is one
# (query, run) pair.
Failures = dict[str, str]


def warm_end(ts: list[int], w: Workload) -> int:
    """Index of the first tuple after the window has filled and two slides
    have passed; tuples before it are processed untimed."""
    return bisect.bisect_left(ts, w.window + 2 * w.slide)


def offer_untimed(regs: list[Registered], stream: list[Sgt], lo: int, hi: int,
                  failures: Failures) -> list[Registered]:
    live = list(regs)
    for i in range(lo, hi):
        live = _offer(live, stream[i], failures)
    return live


def _offer(live: list[Registered], t: Sgt, failures: Failures) -> list[Registered]:
    dropped = None
    for r in live:
        try:
            r.engine.process(t)
        except BudgetExceeded as exc:
            failures.setdefault(r.label, f"BudgetExceeded at ts={t.ts}: {exc}")
            dropped = (dropped or []) + [r]
    if dropped:
        live = [r for r in live if r not in dropped]
    return live


def probe(live: list[Registered], stream: list[Sgt], ts: list[int], i: int,
          w: Workload, failures: Failures, oracle: dict | None = None) -> None:
    """Check every live engine right after the slide-boundary tuple ``i``.

    Tuple ``i`` is an insertion with ``ts`` equal to the boundary ``b``, so
    the engines have just expired everything at or before ``b − |W|`` and
    then inserted it: the index must derive exactly the batch result on the
    edges whose latest operation lies in ``(b − |W|, b]``.

    * RAPQ: index pairs equal the arbitrary-path oracle.
    * RSPQ: index pairs are contained in the arbitrary-path oracle for the
      same query, and equal the simple-path oracle where ``w.exact_rspq``
      names the query.

    ``oracle`` caches the oracle's answers by (``i``, semantics, query) for
    probes of later passes at the same tuple.
    """
    b = stream[i].ts
    lo = bisect.bisect_right(ts, b - w.window)
    snap = snapshot_edges(stream[lo:i + 1], b, w.window)
    oracle = {} if oracle is None else oracle

    def expect(sem: str, q) -> set:
        key = (i, sem, q.name)
        if key not in oracle:
            oracle[key] = (rapq_pairs if sem == "rapq" else rspq_pairs)(snap, q.dfa)
        return oracle[key]

    for r in live:
        name = r.query.name
        expected = expect("rapq", r.query)
        got = r.engine.derivable_pairs()
        if r.semantics == "rapq":
            ok = got == expected
        else:
            ok = got <= expected
            if ok and name in w.exact_rspq:
                expected = expect("rspq", r.query)
                ok = got == expected
        if not ok:
            failures.setdefault(
                r.label,
                f"probe at ts={b}: {len(got - expected)} extra, "
                f"{len(expected - got)} missing of {len(expected)} pairs",
            )


@dataclass
class Checks:
    """What a pass does between its timed tuples, at every probe: check the
    results and time a burst of registrations."""

    stream: list[Sgt]
    ts: list[int]
    w: Workload
    failures: Failures
    setup: SetupTimer
    oracle: dict  # see probe()

    def __call__(self, live: list[Registered], i: int) -> None:
        probe(live, self.stream, self.ts, i, self.w, self.failures, self.oracle)
        self.setup()
        gc.collect()  # so that no collection owed by the checks lands in a timed tuple


def closed_loop(regs: list[Registered], stream: list[Sgt], start: int,
                seconds: float, w: Workload, failures: Failures,
                checks: Checks) -> tuple[LoopResult, list[Registered]]:
    """Offer tuples from ``start`` until ``seconds`` of engine time are spent
    and ``w.min_pass_tuples`` tuples offered, then up to the next slide
    boundary that can be probed."""
    live = list(regs)
    lat: list[float] = []
    busy = 0.0
    probed: list[int] = []
    probe_every = seconds / PROBES_PER_PASS
    next_probe = probe_every
    next_pick = PICK_EVERY
    slide = w.slide
    prev_slide = stream[start - 1].ts // slide if start else -1
    perf = time.perf_counter
    i = start
    n = len(stream)
    while i < n:
        t = stream[i]
        t0 = perf()
        live = _offer(live, t, failures)
        dt = perf() - t0
        lat.append(dt)
        busy += dt
        i += 1
        if busy >= next_pick:
            pick_core()
            next_pick = busy + PICK_EVERY
        s = t.ts // slide
        crossing, prev_slide = s != prev_slide, s
        last = busy >= seconds
        due = busy >= next_probe and (not last or len(lat) >= w.min_pass_tuples)
        if crossing and t.op == "+" and t.ts == s * slide and due:
            checks(live, i - 1)
            probed.append(i - 1)
            next_probe += probe_every
            if last:
                return LoopResult(i, lat, probed, False), live
    return LoopResult(i, lat, probed, True), live


def replay(regs: list[Registered], stream: list[Sgt], first: LoopResult,
           start: int, failures: Failures, checks: Checks) -> list[float]:
    """Offer tuples ``start`` to ``first.end`` again, checking after the
    first pass's last probed tuple; returns the latencies."""
    live = list(regs)
    lat: list[float] = []
    perf = time.perf_counter
    last = first.probed[-1] if first.probed else -1
    busy = 0.0
    next_pick = PICK_EVERY
    for i in range(start, first.end):
        t0 = perf()
        live = _offer(live, stream[i], failures)
        dt = perf() - t0
        lat.append(dt)
        busy += dt
        if busy >= next_pick:
            pick_core()
            next_pick = busy + PICK_EVERY
        if i == last:
            checks(live, i)
    return lat


class Snapshot:
    """Warmed-up engines, restorable any number of times.

    Engines are pickled once; when they cannot be, each restore registers and
    warms up fresh engines instead, which gives the same state more slowly.
    """

    def __init__(self, w: Workload, stream: list[Sgt], start: int, failures: Failures):
        self.w, self.stream, self.start = w, stream, start
        regs, _ = register(w)
        live = offer_untimed(regs, stream, 0, start, failures)
        try:
            self.blob: bytes | None = pickle.dumps(live, pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError, RecursionError):
            self.blob = None
        self.attempted = len(regs)

    def restore(self, failures: Failures) -> list[Registered]:
        if self.blob is not None:
            return pickle.loads(self.blob)
        regs, _ = register(self.w)
        return offer_untimed(regs, self.stream, 0, self.start, failures)


# ----------------------------------------------------------------------
# traced replay
# ----------------------------------------------------------------------


def _instrument(regs: list[Registered], tr: Tracer) -> None:
    """Wrap each engine's public expiry and index-scan entry points."""
    for r in regs:
        e, sem = r.engine, r.semantics
        boundary = tr.name_id(f"core.{sem}.expire")
        deletion = tr.name_id(f"core.{sem}.expire(delete)")

        def expire(tau, invalidate=False, _orig=e.expire, _b=boundary, _d=deletion):
            idx = tr.begin(_d if invalidate else _b)
            try:
                return _orig(tau, invalidate)
            finally:
                tr.finish(idx)

        e.expire = expire
        e.derivable_pairs = tr.wrap(e.derivable_pairs, f"core.{sem}.derivable_pairs")
        e.graph.expire = tr.wrap(e.graph.expire, "core.windows.expire")
        e.graph.insert = tr.counted(e.graph.insert, "core.windows.insert")


ENGINE_COUNTERS = {
    "rapq": {"insert_calls": "core.rapq.insert_steps",
             "expiry_scans": "core.rapq.expiry_candidates"},
    "rspq": {"extend_calls": "core.rspq.extend_calls",
             "conflicts": "core.rspq.conflicts",
             "unmark_calls": "core.rspq.unmark_calls"},
}


def _counters(regs: list[Registered]) -> dict[str, int]:
    out: dict[str, int] = {}
    for r in regs:
        for attr, metric in ENGINE_COUNTERS[r.semantics].items():
            out[metric] = out.get(metric, 0) + getattr(r.engine, attr)
    return out


def traced_replay(w: Workload, stream: list[Sgt], start: int, end: int,
                  untraced_busy: float, failures: Failures) -> tuple[dict, Tracer]:
    """Replay tuples ``[start, end)`` into fresh engines with tracing on.

    Tuples before ``start`` warm the fresh engines up untraced, as in the
    measured run. Returns the per-layer metrics and the tracer.
    """
    regs, _ = register(w)
    live = offer_untimed(regs, stream, 0, start, failures)
    before = _counters(regs)
    tr = Tracer()
    _instrument(live, tr)
    offer_id, discard_id = tr.name_id("offer"), tr.name_id("core.discard")
    span_of = {
        id(r): {op: tr.name_id(f"core.{r.semantics}.process{op}") for op in "+-"}
        for r in live
    }
    split: dict[str, tuple[list[Registered], list[Registered]]] = {}
    nodes_max = {"rapq": 0, "rspq": 0}
    trees_max = 0
    edges_max = 0
    slide = w.slide
    prev_slide = stream[start - 1].ts // slide if start else -1
    orig_add, orig_relink = SpanningTree.add, SpanningTree.relink
    SpanningTree.add = tr.counted(orig_add, "core.rapq.tree_add")
    SpanningTree.relink = tr.counted(orig_relink, "core.rapq.tree_relink")
    try:
        for i in range(start, end):
            t = stream[i]
            s = t.ts // slide
            crossing, prev_slide = s != prev_slide, s
            if t.op == "-" or crossing:
                spanned, discard = live, ()
            else:
                if t.label not in split:
                    split[t.label] = (
                        [r for r in live if t.label in r.query.dfa.alphabet],
                        [r for r in live if t.label not in r.query.dfa.alphabet],
                    )
                spanned, discard = split[t.label]
            o = tr.begin(offer_id)
            if discard:
                d = tr.begin(discard_id)
                for r in discard:
                    r.engine.process(t)
                tr.finish(d)
            dropped = []
            for r in spanned:
                sp = tr.begin(span_of[id(r)][t.op])
                try:
                    r.engine.process(t)
                except BudgetExceeded as exc:
                    failures.setdefault(r.label, f"BudgetExceeded at ts={t.ts}: {exc}")
                    dropped.append(r)
                finally:
                    tr.finish(sp)
            tr.finish(o)
            if dropped:
                live = [r for r in live if r not in dropped]
                split.clear()
            if crossing:
                for sem in nodes_max:
                    nodes_max[sem] = max(nodes_max[sem], sum(
                        r.engine.n_nodes for r in live if r.semantics == sem))
                trees_max = max(trees_max, sum(
                    r.engine.n_trees for r in live if r.semantics == "rapq"))
                edges_max = max(edges_max, sum(r.engine.graph.n_edges for r in live))
    finally:
        SpanningTree.add, SpanningTree.relink = orig_add, orig_relink
    after = _counters(regs)

    T = tr.totals()

    def total(name, key="total_ms"):
        return T.get(name, {}).get(key, 0.0)

    m = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    for sem in ("rapq", "rspq"):
        proc_plus, proc_minus = f"core.{sem}.process+", f"core.{sem}.process-"
        m[f"core.{sem}.{'insert' if sem == 'rapq' else 'extend'}_ms"] = total(proc_plus, "self_ms")
        m[f"core.{sem}.expire_ms"] = total(f"core.{sem}.expire", "self_ms")
        m[f"core.{sem}.delete_ms"] = total(proc_minus) - tr.child_total_ms(
            proc_minus, f"core.{sem}.expire")
        m[f"core.{sem}.derivable_pairs_ms"] = total(f"core.{sem}.derivable_pairs")
        m[f"core.{sem}.nodes_max"] = nodes_max[sem]
    m["core.rapq.expire_calls"] = int(total("core.rapq.expire", "calls"))
    m["core.rapq.derivable_pairs_calls"] = int(total("core.rapq.derivable_pairs", "calls"))
    m["core.rapq.trees_max"] = trees_max
    adds = tr.counts["core.rapq.tree_add"]
    relinks = tr.counts["core.rapq.tree_relink"]
    m["core.rapq.tree_adds"] = adds
    m["core.rapq.tree_relinks"] = relinks
    m["core.rapq.relink_share"] = relinks / (adds + relinks) if adds + relinks else 0.0
    m["core.windows.expire_ms"] = total("core.windows.expire")
    m["core.windows.insert_calls"] = tr.counts["core.windows.insert"]
    m["core.windows.edges_max"] = edges_max
    m["core.discard_ms"] = total("core.discard")
    offered = total("offer")
    m["trace.overhead_pct"] = (offered / (untraced_busy * 1e3) - 1) * 100
    m["trace.span_coverage_pct"] = tr.child_total_ms("offer") / offered * 100
    return m, tr


def run(w: Workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One run of a Δ-tree workload; returns metrics, units and notes."""
    stream = w.stream(seed, smoke)
    ts = [t.ts for t in stream]
    # The stream is the benchmark's, not the engines': keep the collector
    # from re-scanning it on every full collection.
    gc.collect()
    gc.freeze()
    failures: Failures = {}
    setup = SetupTimer(w)
    checks = Checks(stream, ts, w, failures, setup, {})
    start = warm_end(ts, w)
    snapshot = Snapshot(w, stream, start, failures)
    passes: list[list[float]] = []
    busy = 0.0
    first: LoopResult | None = None
    # The first pass takes a 1/w.passes share of the measured time and fixes
    # the stretch of stream; the others replay it while the time lasts.
    while first is None or busy + busy / len(passes) / 2 < seconds:
        setup()
        live = snapshot.restore(failures)
        gc.collect()
        pick_core()
        if first is None:
            first, live = closed_loop(live, stream, start, seconds / w.passes, w,
                                      failures, checks)
            passes.append(first.latencies)
        else:
            passes.append(replay(live, stream, first, start, failures, checks))
        busy += sum(passes[-1])
        del live
        gc.collect()
    service = list(map(min, *passes)) if len(passes) > 1 else passes[0]
    busies = [sum(lat) for lat in passes]
    out = {
        "setup_s": min(setup.setups),
        "peak_rss_mb": peak_rss_mb(),
        "latencies": service,
        "tuples": len(service),
        "busy": sum(service),
        "attempted": snapshot.attempted,
        "failures": failures,
        "notes": [f"tuples {start}..{first.end} of {len(stream)} measured in "
                  f"{len(passes)} passes of {', '.join(f'{b:.3g}' for b in busies)} s, "
                  f"{len(first.probed)} result probes in the first; service time per "
                  "tuple is the least of its passes",
                  f"setup_s is the fastest of {len(setup.setups)} registrations"],
    }
    if first.exhausted:
        out["notes"].append("stream exhausted before the measured time was up")
    if trace:
        del snapshot
        gc.collect()
        layers, tr = traced_replay(w, stream, start, first.end, median(busies), failures)
        layers["core.dfa.compile_ms"] = median(setup.compiles)
        out["layers"] = layers
        out["tracer"] = tr
    return out
