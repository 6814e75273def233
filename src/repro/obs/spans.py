"""Causal span tracing: the "why was this frame late?" layer.

Flat lifecycle events (:mod:`repro.obs.trace`) answer *what happened*;
spans answer *what caused what and how long each stage took*.  A
:class:`Span` is a named sim-time interval with an optional parent, and
the recorder keeps two kinds of edges between them:

* **parent edges** (``parent`` on the span) form a strict containment
  tree: a child opens and closes inside its parent's interval.  The
  tree the transport emits is ``frame -> packet`` and
  ``range -> encode`` — the shapes where containment genuinely holds.
* **cause edges** (a ``cause`` attribute holding another span's id) are
  free-form causal links that may cross the containment rule: a
  per-path transmission outlives the packet it carried whenever its ACK
  arrives after the packet was already decoded from a coded range, so
  ``tx`` spans sit at the root and point at their packet via ``cause``.

The vocabulary threaded through the stack (see ``docs/telemetry.md``):

====================  ========================================================
span                  interval
====================  ========================================================
``frame``             video frame capture -> frame completely delivered
``packet``            app packet entered tunnel -> decoded / expired
``tx``                one wire transmission -> ACK / cc-loss (per path)
``range``             recovery range formed -> one-shot plan executed
``encode``            the XNC block encode inside a recovery plan
``decode``            first coded packet of a range seen -> first decode
``fault``             injected fault applied -> lifted (chaos layer)
``health``            instant: path-health state transition
``drop``              instant: emulator link drop
====================  ========================================================

Everything is keyed on the *simulation* clock and span ids are assigned
in event order, so a seeded run exports a byte-identical span JSONL
every time — the determinism regression suite enforces it.  Disabled
recording is the shared :data:`NULL_SPANS` singleton (``enabled`` is
False, every method a no-op), mirroring the telemetry/sanitizer
null-singleton contract gated by ``tools/check_overhead.py``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "SPAN_FRAME",
    "SPAN_PACKET",
    "SPAN_TX",
    "SPAN_RANGE",
    "SPAN_ENCODE",
    "SPAN_DECODE",
    "SPAN_FAULT",
    "SPAN_HEALTH",
    "SPAN_DROP",
    "SPAN_NAMES",
    "Span",
    "SpanRecorder",
    "NullSpanRecorder",
    "NULL_SPANS",
]

# -- span names (the causal vocabulary) --------------------------------------

SPAN_FRAME = "frame"          #: video frame capture -> complete delivery
SPAN_PACKET = "packet"        #: app packet ingress -> decoded / expired
SPAN_TX = "tx"                #: one transmission on one path -> ack / loss
SPAN_RANGE = "range"          #: recovery range formed -> plan executed
SPAN_ENCODE = "encode"        #: XNC block encode work inside a plan
SPAN_DECODE = "decode"        #: coded range first seen -> first decode
SPAN_FAULT = "fault"          #: injected fault applied -> lifted
SPAN_HEALTH = "health"        #: instant path-health transition marker
SPAN_DROP = "drop"            #: instant emulator link drop marker

SPAN_NAMES = (
    SPAN_FRAME, SPAN_PACKET, SPAN_TX, SPAN_RANGE, SPAN_ENCODE,
    SPAN_DECODE, SPAN_FAULT, SPAN_HEALTH, SPAN_DROP,
)

#: Chrome trace-event track (tid) per span name; path-scoped spans use
#: ``_PATH_TRACK_BASE + path_id`` instead so Perfetto lays transmissions
#: out one lane per path.
_NAME_TRACKS = {
    SPAN_FRAME: 1,
    SPAN_PACKET: 2,
    SPAN_RANGE: 3,
    SPAN_ENCODE: 3,
    SPAN_DECODE: 4,
    SPAN_FAULT: 6,
    SPAN_HEALTH: 6,
    SPAN_DROP: 8,
}
_PATH_TRACK_BASE = 10


class Span:
    """One named sim-time interval with a parent edge and free attrs."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "attrs")

    def __init__(self, span_id: int, parent_id: int, name: str,
                 start: float, attrs: Optional[dict] = None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def as_dict(self) -> dict:
        d = {
            "type": "span",
            "id": self.span_id,
            "name": self.name,
            "t0": self.start,
            "t1": self.end,
        }
        if self.parent_id:
            d["parent"] = self.parent_id
        if self.attrs:
            d.update(self.attrs)
        return d


class SpanRecorder:
    """Bounded span store with causal-key bindings and two exporters.

    The recorder never evicts (eviction would orphan parent edges);
    once ``capacity`` spans exist, new opens are *dropped* and counted,
    and every export carries an honest ``span_drops`` footer.
    """

    enabled = True

    DEFAULT_CAPACITY = 262_144

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._spans: Dict[int, Span] = {}
        self._open: Dict[int, Span] = {}
        self._bindings: Dict[Tuple[str, Any], int] = {}
        self._next_id = 1
        self.opened = 0
        self.dropped = 0

    # -- core lifecycle ---------------------------------------------------

    def open(self, name: str, t: float, parent: int = 0, **attrs) -> int:
        """Open a span; returns its id (0 when dropped at capacity)."""
        if len(self._spans) >= self.capacity:
            self.dropped += 1
            return 0
        sid = self._next_id
        self._next_id += 1
        self.opened += 1
        span = Span(sid, parent, name, t, attrs or None)
        self._spans[sid] = span
        self._open[sid] = span
        return sid

    def close(self, span_id: int, t: float, **attrs) -> None:
        """Close an open span (first close wins; later calls no-op)."""
        span = self._open.pop(span_id, None)
        if span is None:
            return
        span.end = t
        if attrs:
            if span.attrs is None:
                span.attrs = attrs
            else:
                span.attrs.update(attrs)

    def annotate(self, span_id: int, **attrs) -> None:
        """Merge attributes into a span (open or closed)."""
        span = self._spans.get(span_id)
        if span is None or not attrs:
            return
        if span.attrs is None:
            span.attrs = attrs
        else:
            span.attrs.update(attrs)

    def instant(self, name: str, t: float, parent: int = 0, **attrs) -> int:
        """A zero-length span: open and close at the same instant."""
        sid = self.open(name, t, parent=parent, **attrs)
        if sid:
            self.close(sid, t)
        return sid

    def finish(self, t: float) -> int:
        """Close every still-open span at ``t`` (end of run).

        Children close before parents (descending id — a child is always
        opened after its parent), so containment holds by construction.
        Returns how many spans were force-closed; each is marked
        ``cut=True`` so analysis can tell delivery from truncation.
        """
        leftovers = sorted(self._open, reverse=True)
        for sid in leftovers:
            self.close(sid, t, cut=True)
        return len(leftovers)

    # -- causal key bindings ----------------------------------------------

    def bind(self, kind: str, key: Any, span_id: int) -> None:
        """Register ``span_id`` as *the* span for a domain key.

        Kinds in use: ``frame`` (frame_id), ``packet`` (app packet id),
        ``range`` ((start_id, count)), ``decode`` ((start_id, count)).
        """
        if span_id:
            self._bindings[(kind, key)] = span_id

    def lookup(self, kind: str, key: Any) -> int:
        """The bound span id for a domain key, or 0 when unknown."""
        return self._bindings.get((kind, key), 0)

    # -- introspection -----------------------------------------------------

    def spans(self, name: Optional[str] = None) -> List[Span]:
        """All spans in id (open) order, optionally one name only."""
        out = [self._spans[sid] for sid in sorted(self._spans)]
        if name is not None:
            out = [s for s in out if s.name == name]
        return out

    def get(self, span_id: int) -> Optional[Span]:
        return self._spans.get(span_id)

    def children(self, span_id: int) -> List[Span]:
        """Direct containment children of a span, in id order."""
        return [s for s in self.spans() if s.parent_id == span_id]

    # -- export ------------------------------------------------------------

    def records(self) -> Iterator[dict]:
        """JSONL-ready dicts: a meta header, spans by id, a drop footer."""
        yield {
            "type": "span_meta",
            "spans": len(self._spans),
            "open": len(self._open),
            "dropped": self.dropped,
        }
        for sid in sorted(self._spans):
            yield self._spans[sid].as_dict()
        if self.dropped:
            yield {"type": "span_drops", "dropped_spans": self.dropped}

    def export_jsonl(self, path: str) -> int:
        """Write span records to ``path``; returns the line count."""
        from .trace import write_jsonl

        return write_jsonl(path, self.records())

    def to_chrome_trace(self) -> dict:
        """The span set as a Chrome trace-event JSON document.

        Loads directly in Perfetto / ``chrome://tracing``: complete
        (``ph: "X"``) events with microsecond timestamps, one thread
        lane per span family (per path for transmissions), plus
        ``thread_name`` metadata records naming the lanes.
        """
        events: List[dict] = []
        tracks: Dict[int, str] = {}
        for sid in sorted(self._spans):
            span = self._spans[sid]
            attrs = span.attrs or {}
            if "path" in attrs:
                tid = _PATH_TRACK_BASE + int(attrs["path"])
                tracks.setdefault(tid, "path %d" % attrs["path"])
            else:
                tid = _NAME_TRACKS.get(span.name, 0)
                tracks.setdefault(tid, span.name)
            end = span.end if span.end is not None else span.start
            args = {"id": span.span_id}
            if span.parent_id:
                args["parent"] = span.parent_id
            args.update(attrs)
            events.append({
                "name": span.name,
                "cat": span.name,
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round((end - span.start) * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": args,
            })
        meta = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": label},
            }
            for tid, label in sorted(tracks.items())
        ]
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def export_chrome_trace(self, path: str) -> int:
        """Write the Chrome trace JSON; returns the trace-event count."""
        import json

        doc = self.to_chrome_trace()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        return len(doc["traceEvents"])


class NullSpanRecorder:
    """Disabled span recording: every method is a no-op returning 0/empty.

    Shared as :data:`NULL_SPANS`.  Call sites guard with
    ``if spans.enabled:`` before building attribute kwargs, so the
    disabled fast path costs one attribute load and a branch.
    """

    enabled = False
    opened = 0
    dropped = 0
    capacity = 0

    def __len__(self) -> int:
        return 0

    def open(self, name, t, parent=0, **attrs) -> int:
        return 0

    def close(self, span_id, t, **attrs) -> None:
        pass

    def annotate(self, span_id, **attrs) -> None:
        pass

    def instant(self, name, t, parent=0, **attrs) -> int:
        return 0

    def finish(self, t) -> int:
        return 0

    def bind(self, kind, key, span_id) -> None:
        pass

    def lookup(self, kind, key) -> int:
        return 0

    def spans(self, name=None) -> List[Span]:
        return []

    def get(self, span_id) -> Optional[Span]:
        return None

    def children(self, span_id) -> List[Span]:
        return []

    def records(self) -> Iterator[dict]:
        return iter(())

    def export_jsonl(self, path) -> int:
        return 0

    def to_chrome_trace(self) -> dict:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def export_chrome_trace(self, path) -> int:
        return 0


#: The shared disabled recorder every Telemetry defaults to.
NULL_SPANS = NullSpanRecorder()
