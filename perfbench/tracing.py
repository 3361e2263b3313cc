"""In-memory span and count recording for the traced benchmark run.

The traced run wraps calls into each layer's public functions from here, the
benchmark's side; nothing under ``src/`` is changed. A span records (name,
parent, start, end); spans are kept in flat arrays while the run is hot and
written out once at the end. Calls too frequent to afford a span each, such
as ``WindowGraph.insert``, are counted instead.
"""
from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from summary import self_times


class Tracer:
    """Spans of one single-threaded run, plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: Counter[str] = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str):
        """``fn`` recorded as a span named ``name`` on every call."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            idx = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        return traced

    def counted(self, fn, name: str):
        """``fn`` counted under ``name`` on every call, without a span."""
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    # ------------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total ms and self ms."""
        selfs = self_times(self.parent, self.start, self.end)
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for n in self.names
        }
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_ms"] += (self.end[i] - self.start[i]) * 1e3
            row["self_ms"] += selfs[i] * 1e3
        return out

    def child_total_ms(self, parent_name: str, child_name: str | None = None) -> float:
        """Total ms of ``child_name`` spans (any name if ``None``) whose parent
        span is named ``parent_name``."""
        if parent_name not in self._ids or (child_name and child_name not in self._ids):
            return 0.0
        pid = self._ids[parent_name]
        cid = self._ids[child_name] if child_name else None
        total = 0.0
        for i, nid in enumerate(self.name):
            p = self.parent[i]
            if p >= 0 and self.name[p] == pid and (cid is None or nid == cid):
                total += self.end[i] - self.start[i]
        return total * 1e3

    def write(self, path: Path) -> None:
        """Write every span (name, parent, start, end) and the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            count_names=np.array(list(self.counts)),
            count_values=np.array(list(self.counts.values()), dtype=np.int64),
        )
