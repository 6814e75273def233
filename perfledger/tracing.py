"""The traced rep: per-layer self time and exact call counts.

``run_stream`` and ``run_fleet`` are single public calls and inheritance
crosses layers (``XncTunnelClient`` in ``core/`` extends
``TunnelClientBase`` in ``transport/``), so wrappers around entry points
would bill a layer for its neighbours' work.  Instead the interpreter's C
profile hook (``cProfile``) runs around one rep, and the file -> layer map
turns per-function self time into per-layer self time:

* a function defined under ``src/repro`` bills its self time to its file's
  layer;
* a function defined elsewhere (stdlib, numpy, builtins) bills its self
  time to its callers, edge by edge, so ``heapq.heappush`` called from
  ``EventLoop.schedule`` lands on ``events``;
* self time with no ``repro`` caller up the chain is *unattributed*.

Every second of the traced rep lands in exactly one bucket, so the shares
sum to one and, applied to the untraced median, the rows sum to the
end-to-end number.

The driver's own spans (set-up probes, warm-up, each rep, ...) are real
``(id, name, start, end, parent)`` records kept in memory by
:class:`SpanLog` and written out when the run ends.
"""

from __future__ import annotations

import cProfile
import fnmatch
import json
import time
import types
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

from .layers import BOUNDARIES, LAYERS, OTHER, layer_of, repro_relpath

__all__ = ["UNATTRIBUTED", "SpanLog", "TraceTable", "profile_call",
           "attribute"]

UNATTRIBUTED = "unattributed"

#: Rounds of caller-ownership propagation through non-repro frames
#: (repro -> dataclass __init__ -> random.uniform -> builtin is depth 3).
_OWNER_ROUNDS = 6


class SpanLog:
    """In-memory spans of the benchmark driver itself."""

    #: Spans kept; later ones are counted in ``dropped``, not stored.
    CAPACITY = 100_000

    def __init__(self):
        self.records: List[list] = []
        self.dropped = 0
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        if len(self.records) >= self.CAPACITY:
            self.dropped += 1
            yield None
            return
        sid = len(self.records)
        parent = self._stack[-1] if self._stack else None
        record = [sid, name, time.perf_counter(), None, parent]
        self.records.append(record)
        self._stack.append(sid)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.records:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


class TraceTable:
    """Attribution of one traced rep."""

    def __init__(self):
        self.total_s = 0.0
        #: layer (incl. OTHER and UNATTRIBUTED) -> self seconds
        self.self_s: Dict[str, float] = {k: 0.0 for k in LAYERS + (OTHER, UNATTRIBUTED)}
        #: layer -> calls of functions defined in the layer (exact)
        self.calls: Dict[str, int] = {k: 0 for k in LAYERS + (OTHER,)}
        #: boundary name -> (calls, inclusive seconds)
        self.boundaries: Dict[str, Tuple[int, float]] = {k: (0, 0.0) for k in BOUNDARIES}
        #: callbacks the event loop dispatched (calls out of ``run_until``
        #: into repro code)
        self.dispatched = 0

    def share(self, layer: str) -> float:
        return self.self_s[layer] / self.total_s if self.total_s else 0.0


def profile_call(fn: Callable):
    """Run ``fn()`` under cProfile; returns (result, wall seconds, stats)."""
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - t0
    return result, wall, profiler.getstats()


def _layer_of_code(code):
    """Layer of a code object defined under src/repro, else None."""
    if isinstance(code, types.CodeType) and repro_relpath(code.co_filename) is not None:
        return layer_of(code.co_filename)
    return None


def _match_boundaries(code) -> List[str]:
    rel = repro_relpath(code.co_filename)
    qualname = code.co_qualname
    return [name for name, (prefix, patterns) in BOUNDARIES.items()
            if rel.startswith(prefix)
            and any(fnmatch.fnmatchcase(qualname, p) for p in patterns)]


def attribute(stats) -> TraceTable:
    """Fold ``cProfile.Profile.getstats()`` into a :class:`TraceTable`."""
    table = TraceTable()
    layer_by_code = {}
    callers: Dict[object, List[Tuple[object, float, float]]] = {}
    for entry in stats:
        layer_by_code[entry.code] = _layer_of_code(entry.code)
        for sub in entry.calls or ():
            callers.setdefault(sub.code, []).append(
                (entry.code, sub.inlinetime, sub.totaltime))

    # who pays for a non-repro function: the layer mix of its callers,
    # weighted by the inclusive time spent under each caller
    owner: Dict[object, Dict[str, float]] = {}

    def payers(caller) -> Dict[str, float]:
        layer = layer_by_code[caller]
        return {layer: 1.0} if layer is not None else owner[caller]

    foreign = [e.code for e in stats if layer_by_code[e.code] is None]
    for code in foreign:
        owner[code] = {UNATTRIBUTED: 1.0}
    for _ in range(_OWNER_ROUNDS):
        for code in foreign:
            edges = callers.get(code)
            weight = sum(total for _c, _s, total in edges) if edges else 0.0
            if weight <= 0.0:
                continue
            mix: Dict[str, float] = {}
            for caller, _self, total in edges:
                for key, frac in payers(caller).items():
                    mix[key] = mix.get(key, 0.0) + frac * total / weight
            owner[code] = mix

    for entry in stats:
        code = entry.code
        table.total_s += entry.inlinetime
        layer = layer_by_code[code]
        if layer is not None:
            table.self_s[layer] += entry.inlinetime
            table.calls[layer] += entry.callcount
            for name in _match_boundaries(code):
                calls, incl = table.boundaries[name]
                table.boundaries[name] = (calls + entry.callcount,
                                          incl + entry.totaltime)
                if name == "events.run_until":
                    table.dispatched += sum(
                        sub.callcount for sub in entry.calls or ()
                        if layer_by_code[sub.code] is not None)
            continue
        billed = 0.0
        for caller, self_s, _total in callers.get(code, ()):
            billed += self_s
            for key, frac in payers(caller).items():
                table.self_s[key] += frac * self_s
        # called from the profiler's root (the benchmark driver itself)
        table.self_s[UNATTRIBUTED] += max(0.0, entry.inlinetime - billed)
    return table
