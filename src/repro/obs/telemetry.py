"""The unified telemetry handle threaded through the transport stack.

One :class:`Telemetry` object per run bundles the three data kinds the
evaluation needs:

* **metrics** — counters and histograms in a :class:`MetricsRegistry`;
* **trace** — the ring-buffered packet-lifecycle event stream;
* **timelines** — per-path :class:`PathSample` series from the periodic
  sampler (plus terminal stats-dataclass snapshots under ``stats``).

Every instrumented call site guards with ``if telemetry.enabled:`` so the
disabled case — :data:`NULL_TELEMETRY`, a shared :class:`NullTelemetry`
singleton — costs one attribute load and a branch on the hot path and
nothing else.  ``tools/check_overhead.py`` enforces that this
stays under budget.

Export is JSONL: one self-describing record per line, discriminated by a
``type`` field (``meta`` / ``event`` / ``metric`` / ``path_sample`` /
``stats``).  See ``docs/telemetry.md`` for the schema and analysis
recipes.
"""

from __future__ import annotations

import logging
from typing import Dict, Iterator, List, Optional

from .metrics import MetricsRegistry
from .spans import NULL_SPANS, SpanRecorder
from .timeline import DEFAULT_SAMPLE_INTERVAL, PathSample, PathTimelineSampler
from .trace import TraceBuffer, write_jsonl

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
]

logger = logging.getLogger(__name__)


class Telemetry:
    """Live telemetry for one run: metrics + trace + per-path timelines."""

    enabled = True

    def __init__(self, clock=None, trace_capacity: int = TraceBuffer.DEFAULT_CAPACITY,
                 sample_interval: float = DEFAULT_SAMPLE_INTERVAL):
        self.metrics = MetricsRegistry(clock)
        self.trace = TraceBuffer(trace_capacity)
        self.timelines: Dict[int, List[PathSample]] = {}
        self.stats: Dict[str, dict] = {}
        self.sample_interval = sample_interval
        self._sampler: Optional[PathTimelineSampler] = None
        #: Causal span recorder; :data:`NULL_SPANS` until enable_spans().
        self.spans = NULL_SPANS

    def enable_spans(self, capacity: int = SpanRecorder.DEFAULT_CAPACITY) -> SpanRecorder:
        """Attach a live span recorder (idempotent); returns it."""
        if not self.spans.enabled:
            self.spans = SpanRecorder(capacity)
        return self.spans

    # -- clock ------------------------------------------------------------------

    def bind_clock(self, loop) -> None:
        """Point the metrics clock at a simulation loop."""
        self.metrics.clock = lambda: loop.now

    # -- hot-path API (all no-ops on NullTelemetry) ----------------------------

    def event(self, t: float, kind: str, packet_id: int = -1,
              path_id: int = -1, **attrs) -> None:
        self.trace.emit(t, kind, packet_id, path_id, **attrs)

    def count(self, name: str, n: int = 1) -> None:
        self.metrics.count(name, n)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def observe_many(self, name: str, values) -> None:
        self.metrics.observe_many(name, values)

    # -- timeline sampling -------------------------------------------------------

    def start_sampling(self, loop, paths, emulator=None,
                       interval: Optional[float] = None) -> None:
        """Begin periodic per-path sampling; replaces any active sampler."""
        self.stop_sampling()
        self._sampler = PathTimelineSampler(
            loop, paths, self.timelines,
            interval=interval or self.sample_interval, emulator=emulator,
        )
        self._sampler.start()

    def stop_sampling(self) -> None:
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None

    # -- terminal stats snapshots -----------------------------------------------

    def record_stats(self, label: str, stats_obj) -> None:
        """Snapshot a terminal stats object (anything with ``as_dict()``)."""
        if hasattr(stats_obj, "as_dict"):
            self.stats[label] = stats_obj.as_dict()
        elif isinstance(stats_obj, dict):
            self.stats[label] = dict(stats_obj)
        else:
            raise TypeError("stats object needs as_dict() or to be a dict")

    # -- export -------------------------------------------------------------------

    def records(self) -> Iterator[dict]:
        """Every telemetry record as a JSONL-ready dict.

        Ring-buffer overflow is surfaced, not swallowed: when the trace
        ring evicted events, the stream carries a ``telemetry.
        dropped_events`` counter (idempotently pinned to the eviction
        count) and ends with an explicit ``trace_drops`` footer, so a
        truncated export can never be mistaken for a complete one.
        """
        evicted = self.trace.evicted
        if evicted:
            self.metrics.counter("telemetry.dropped_events").value = evicted
        yield {
            "type": "meta",
            "events_buffered": len(self.trace),
            "events_emitted": self.trace.emitted,
            "events_evicted": evicted,
            "sample_interval": self.sample_interval,
        }
        for e in self.trace.events():
            rec = e.as_dict()
            rec["type"] = "event"
            yield rec
        for m in self.metrics.snapshot():
            m["type"] = "metric"
            yield m
        for path_id in sorted(self.timelines):
            for s in self.timelines[path_id]:
                rec = s.as_dict()
                rec["type"] = "path_sample"
                yield rec
        for label in sorted(self.stats):
            yield {"type": "stats", "label": label, "stats": self.stats[label]}
        if evicted:
            yield {
                "type": "trace_drops",
                "dropped_events": evicted,
                "events_emitted": self.trace.emitted,
            }

    def export_jsonl(self, path: str) -> int:
        """Write all records to ``path``; returns the line count."""
        n = write_jsonl(path, self.records())
        logger.info("exported %d telemetry records to %s", n, path)
        return n

    # -- human summary ------------------------------------------------------------

    def summary_table(self) -> str:
        """Run summary: event counts, histogram tails, per-path timelines."""
        from ..analysis.report import format_table

        blocks: List[str] = []
        counts = self.trace.counts_by_kind()
        if counts:
            rows = [[k, str(counts[k])] for k in sorted(counts)]
            if self.trace.evicted:
                rows.append(["(evicted)", str(self.trace.evicted)])
            blocks.append(format_table(["event", "count"], rows,
                                       title="trace events"))
        hist_rows = []
        for m in self.metrics.snapshot():
            if m["kind"] != "histogram":
                continue
            hist_rows.append([
                m["name"], str(m["count"]),
                "%.4f" % m["mean"], "%.4f" % m["p50"],
                "%.4f" % m["p95"], "%.4f" % m["p99"],
            ])
        if hist_rows:
            blocks.append(format_table(
                ["histogram", "n", "mean", "p50", "p95", "p99"], hist_rows,
                title="metrics"))
        counter_rows = [
            [m["name"], str(m["value"])]
            for m in self.metrics.snapshot() if m["kind"] == "counter"
        ]
        if counter_rows:
            blocks.append(format_table(["counter", "value"], counter_rows))
        tl_rows = []
        for path_id in sorted(self.timelines):
            samples = self.timelines[path_id]
            if not samples:
                continue
            last = samples[-1]
            tl_rows.append([
                str(path_id), str(len(samples)),
                str(last.cwnd), "%.1f" % (last.srtt * 1000),
                "%.2f%%" % (last.loss_rate * 100),
            ])
        if tl_rows:
            blocks.append(format_table(
                ["path", "samples", "cwnd B", "srtt ms", "loss"], tl_rows,
                title="per-path timelines (final sample)"))
        return "\n\n".join(blocks) if blocks else "(no telemetry recorded)"


class NullTelemetry:
    """Disabled telemetry: every method is a no-op, ``enabled`` is False.

    Shared as :data:`NULL_TELEMETRY`; call sites check ``enabled`` before
    building event kwargs, so the disabled fast path never allocates.
    """

    enabled = False
    metrics = None
    trace = None
    timelines: Dict[int, List[PathSample]] = {}
    stats: Dict[str, dict] = {}
    spans = NULL_SPANS

    def enable_spans(self, capacity: int = 0):
        return NULL_SPANS

    def bind_clock(self, loop) -> None:
        pass

    def event(self, t, kind, packet_id=-1, path_id=-1, **attrs) -> None:
        pass

    def count(self, name, n=1) -> None:
        pass

    def observe(self, name, value) -> None:
        pass

    def observe_many(self, name, values) -> None:
        pass

    def start_sampling(self, loop, paths, emulator=None, interval=None) -> None:
        pass

    def stop_sampling(self) -> None:
        pass

    def record_stats(self, label, stats_obj) -> None:
        pass

    def export_jsonl(self, path) -> int:
        return 0

    def summary_table(self) -> str:
        return "(telemetry disabled)"


#: The shared disabled handle every endpoint defaults to.
NULL_TELEMETRY = NullTelemetry()
