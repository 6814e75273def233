"""Structured packet-lifecycle trace: ring-buffered events + JSONL.

The XNC lifecycle the paper's figures reason about is::

    app_in -> scheduled(path) -> tx -> ack
                                    \\-> qoe_loss -> range_formed
                                          -> recovery_tx(path, n') -> decoded
                                                                   \\-> expired

Each stage is one :class:`TraceEvent` keyed by the *application* packet ID
(the tunnel's unit of loss and recovery), stamped with simulation time.
Events live in a bounded ring buffer (:class:`TraceBuffer`) so an
always-on trace cannot grow without bound; the buffer counts what it
evicted so exports are honest about truncation.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

__all__ = [
    "APP_IN",
    "INGRESS_DROP",
    "SCHEDULED",
    "TX",
    "ACK",
    "QOE_LOSS",
    "CC_LOSS",
    "RANGE_FORMED",
    "RECOVERY_TX",
    "DECODED",
    "EXPIRED",
    "FAULT",
    "PATH_HEALTH",
    "WATCHDOG",
    "TraceBuffer",
    "write_jsonl",
    "read_jsonl",
]

# -- event kinds (the lifecycle vocabulary) ---------------------------------

APP_IN = "app_in"              #: application packet entered the tunnel
INGRESS_DROP = "ingress_drop"  #: tail-dropped at the tun ingress queue
SCHEDULED = "scheduled"        #: scheduler picked path(s) for a packet
TX = "tx"                      #: first transmission / dup / retx on a path
ACK = "ack"                    #: carrying QUIC packet acknowledged
QOE_LOSS = "qoe_loss"          #: QoE-aware scan declared the packet lost
CC_LOSS = "cc_loss"            #: RFC 9002 congestion-level loss
RANGE_FORMED = "range_formed"  #: lost packets partitioned into a range
RECOVERY_TX = "recovery_tx"    #: one coded/uncoded recovery transmission
DECODED = "decoded"            #: receiver recovered / delivered the packet
EXPIRED = "expired"            #: abandoned (stale video, §4.4.3)
LINK_DROP = "link_drop"        #: emulated link dropped a wire packet
FAULT = "fault"                #: injected fault applied/lifted (chaos layer)
PATH_HEALTH = "path_health"    #: path health state-machine transition
WATCHDOG = "watchdog"          #: stream watchdog declared a terminal stall

EVENT_KINDS = (
    APP_IN, INGRESS_DROP, SCHEDULED, TX, ACK, QOE_LOSS, CC_LOSS,
    RANGE_FORMED, RECOVERY_TX, DECODED, EXPIRED, LINK_DROP,
    FAULT, PATH_HEALTH, WATCHDOG,
)


class TraceEvent:
    """One lifecycle event: sim time, kind, packet ID, path, free attrs."""

    __slots__ = ("t", "kind", "packet_id", "path_id", "attrs")

    def __init__(self, t: float, kind: str, packet_id: int = -1,
                 path_id: int = -1, attrs: Optional[dict] = None):
        self.t = t
        self.kind = kind
        self.packet_id = packet_id
        self.path_id = path_id
        self.attrs = attrs

    def as_dict(self) -> dict:
        d = {"t": self.t, "kind": self.kind}
        if self.packet_id >= 0:
            d["packet_id"] = self.packet_id
        if self.path_id >= 0:
            d["path_id"] = self.path_id
        if self.attrs:
            d.update(self.attrs)
        return d


class TraceBuffer:
    """Bounded ring of :class:`TraceEvent`, oldest evicted first."""

    DEFAULT_CAPACITY = 262_144

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0

    def __len__(self) -> int:
        return len(self._events)

    @property
    def evicted(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.emitted - len(self._events)

    def emit(self, t: float, kind: str, packet_id: int = -1,
             path_id: int = -1, **attrs) -> None:
        self.emitted += 1
        self._events.append(
            TraceEvent(t, kind, packet_id, path_id, attrs or None)
        )

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """Buffered events in emission order, optionally one kind only."""
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def counts_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self._events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out


# -- JSONL ---------------------------------------------------------------------


def write_jsonl(path: str, records: Iterable[dict]) -> int:
    """Write dict records one-per-line; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")
            n += 1
    return n


def read_jsonl(path: str) -> List[dict]:
    """Load a JSONL file back into a list of dicts (blank lines skipped)."""
    out: List[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
