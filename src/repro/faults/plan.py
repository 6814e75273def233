"""Declarative fault plans: typed adversity on a schedule.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` records —
*what* breaks, *where* (path/direction), *when*, and *how hard* — that the
:class:`repro.faults.engine.FaultInjector` compiles onto the event loop.
Plans are data: they serialise to a small JSON document
(``repro run --faults plan.json``), compose through
:class:`FaultPlanBuilder`, and :func:`random_plan` draws a seeded random
plan for chaos soaks, so one integer reproduces an entire adverse run.

The taxonomy covers what §2.2 measured on the road plus the middlebox
failures a vehicle-to-cloud tunnel meets in practice:

================  ==============================================================
kind              effect
================  ==============================================================
``blackout``      100 % loss on the selected links for ``duration``
``brownout``      random loss at ``severity`` for ``duration``
``burst_loss``    short uplink loss burst at ``severity`` (default 1.0)
``rtt_spike``     ``delay`` seconds added one-way for ``duration``
``bandwidth_cliff``  capacity scaled to ``scale`` (queue builds, delay inherits)
``reorder``       uniform extra delay in [0, ``jitter``] per packet
``duplicate``     each delivery duplicated with probability ``prob``
``ack_blackout``  downlink-only blackout (the ACK path dies)
``nat_rebind``    instantaneous: every registered SnatTable is flushed
``pop_handover``  ``duration`` all-path blackout + NAT flush (proxy switch)
================  ==============================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from typing import List, Optional

from ..determinism import seeded_rng

__all__ = [
    "FAULT_KINDS",
    "DESTRUCTIVE_KINDS",
    "FaultPlanError",
    "FaultEvent",
    "FaultPlan",
    "FaultPlanBuilder",
    "random_plan",
]

FAULT_KINDS = (
    "blackout",
    "brownout",
    "burst_loss",
    "rtt_spike",
    "bandwidth_cliff",
    "reorder",
    "duplicate",
    "ack_blackout",
    "nat_rebind",
    "pop_handover",
)

#: Kinds that fire once rather than spanning a window.
INSTANT_KINDS = ("nat_rebind",)

_DIRECTIONS = ("up", "down", "both")

#: Plan JSON schema version (docs/robustness.md documents v1).
PLAN_VERSION = 1


class FaultPlanError(ValueError):
    """Malformed fault plan or event."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``path_id`` -1 targets every path; ``direction`` selects the uplink,
    downlink, or both (ignored by kinds with a fixed surface, e.g.
    ``ack_blackout`` is always downlink).  Unused knobs stay at their
    defaults and are omitted from JSON.
    """

    kind: str
    start: float
    duration: float = 0.0
    path_id: int = -1
    direction: str = "both"
    severity: float = 1.0   #: loss probability (brownout/burst_loss)
    delay: float = 0.0      #: extra one-way delay in seconds (rtt_spike)
    scale: float = 1.0      #: capacity fraction kept (bandwidth_cliff)
    jitter: float = 0.0     #: reorder window in seconds (reorder)
    prob: float = 0.0       #: duplication probability (duplicate)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError("unknown fault kind %r (choose from %s)"
                                 % (self.kind, ", ".join(FAULT_KINDS)))
        if self.start < 0.0:
            raise FaultPlanError("%s: start must be >= 0" % self.kind)
        if self.kind in INSTANT_KINDS:
            if self.duration != 0.0:
                raise FaultPlanError("%s is instantaneous; duration must be 0" % self.kind)
        elif self.duration <= 0.0:
            raise FaultPlanError("%s: duration must be positive" % self.kind)
        if self.direction not in _DIRECTIONS:
            raise FaultPlanError("direction must be up, down, or both")
        if self.path_id < -1:
            raise FaultPlanError("path_id must be >= 0, or -1 for all paths")
        if not 0.0 <= self.severity <= 1.0:
            raise FaultPlanError("severity must lie in [0, 1]")
        if not 0.0 <= self.scale <= 1.0:
            raise FaultPlanError("scale must lie in [0, 1]")
        if self.delay < 0.0 or self.jitter < 0.0:
            raise FaultPlanError("delay/jitter must be >= 0")
        if not 0.0 <= self.prob <= 1.0:
            raise FaultPlanError("prob must lie in [0, 1]")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def as_dict(self) -> dict:
        """JSON form with default-valued knobs omitted."""
        d = asdict(self)
        defaults = {"duration": 0.0, "path_id": -1, "direction": "both",
                    "severity": 1.0, "delay": 0.0, "scale": 1.0,
                    "jitter": 0.0, "prob": 0.0}
        return {k: v for k, v in d.items()
                if k in ("kind", "start") or defaults.get(k) != v}


@dataclass
class FaultPlan:
    """An ordered, validated schedule of fault events."""

    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self):
        self.events = sorted(self.events, key=lambda e: (e.start, e.kind, e.path_id))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def horizon(self) -> float:
        """Time by which every scheduled fault has ended."""
        return max((e.end for e in self.events), default=0.0)

    def validate(self, path_count: Optional[int] = None) -> None:
        """Re-check every event; with ``path_count``, also the targets."""
        for e in self.events:
            FaultEvent(**asdict(e))  # re-runs __post_init__ validation
            if path_count is not None and e.path_id >= path_count:
                raise FaultPlanError(
                    "%s at t=%g targets path %d but the emulator has %d paths"
                    % (e.kind, e.start, e.path_id, path_count))

    # -- JSON ------------------------------------------------------------

    def to_json(self) -> str:
        doc = {"version": PLAN_VERSION,
               "events": [e.as_dict() for e in self.events]}
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError("plan is not valid JSON: %s" % exc)
        if not isinstance(doc, dict) or "events" not in doc:
            raise FaultPlanError("plan JSON needs an object with an 'events' list")
        if doc.get("version", PLAN_VERSION) != PLAN_VERSION:
            raise FaultPlanError("unsupported plan version %r" % doc.get("version"))
        events = []
        for i, raw in enumerate(doc["events"]):
            if not isinstance(raw, dict):
                raise FaultPlanError("event %d is not an object" % i)
            unknown = set(raw) - {f for f in FaultEvent.__dataclass_fields__}
            if unknown:
                raise FaultPlanError("event %d has unknown fields %s"
                                     % (i, ", ".join(sorted(unknown))))
            try:
                events.append(FaultEvent(**raw))
            except TypeError as exc:
                raise FaultPlanError("event %d: %s" % (i, exc))
        return cls(events)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


class FaultPlanBuilder:
    """Small fluent API for composing plans in code.

    >>> plan = (FaultPlanBuilder()
    ...         .blackout(2.0, 1.5, path_id=0)
    ...         .rtt_spike(4.0, 2.0, delay=0.4)
    ...         .nat_rebind(6.0)
    ...         .build())
    """

    def __init__(self):
        self._events: List[FaultEvent] = []

    def add(self, event: FaultEvent) -> "FaultPlanBuilder":
        self._events.append(event)
        return self

    def blackout(self, start: float, duration: float, path_id: int = -1,
                 direction: str = "both") -> "FaultPlanBuilder":
        return self.add(FaultEvent("blackout", start, duration,
                                   path_id=path_id, direction=direction))

    def brownout(self, start: float, duration: float, severity: float,
                 path_id: int = -1, direction: str = "both") -> "FaultPlanBuilder":
        return self.add(FaultEvent("brownout", start, duration, path_id=path_id,
                                   direction=direction, severity=severity))

    def burst_loss(self, start: float, duration: float, severity: float = 1.0,
                   path_id: int = -1) -> "FaultPlanBuilder":
        return self.add(FaultEvent("burst_loss", start, duration, path_id=path_id,
                                   direction="up", severity=severity))

    def rtt_spike(self, start: float, duration: float, delay: float,
                  path_id: int = -1, direction: str = "both") -> "FaultPlanBuilder":
        return self.add(FaultEvent("rtt_spike", start, duration, path_id=path_id,
                                   direction=direction, delay=delay))

    def bandwidth_cliff(self, start: float, duration: float, scale: float,
                        path_id: int = -1, direction: str = "up") -> "FaultPlanBuilder":
        return self.add(FaultEvent("bandwidth_cliff", start, duration,
                                   path_id=path_id, direction=direction, scale=scale))

    def reorder(self, start: float, duration: float, jitter: float,
                path_id: int = -1, direction: str = "up") -> "FaultPlanBuilder":
        return self.add(FaultEvent("reorder", start, duration, path_id=path_id,
                                   direction=direction, jitter=jitter))

    def duplicate(self, start: float, duration: float, prob: float,
                  path_id: int = -1, direction: str = "up") -> "FaultPlanBuilder":
        return self.add(FaultEvent("duplicate", start, duration, path_id=path_id,
                                   direction=direction, prob=prob))

    def ack_blackout(self, start: float, duration: float,
                     path_id: int = -1) -> "FaultPlanBuilder":
        return self.add(FaultEvent("ack_blackout", start, duration,
                                   path_id=path_id, direction="down"))

    def nat_rebind(self, at: float) -> "FaultPlanBuilder":
        return self.add(FaultEvent("nat_rebind", at))

    def pop_handover(self, at: float, outage: float = 0.3) -> "FaultPlanBuilder":
        return self.add(FaultEvent("pop_handover", at, outage))

    def build(self) -> FaultPlan:
        return FaultPlan(list(self._events))


#: Kinds that destroy capacity on the targeted path (spared-path set).
DESTRUCTIVE_KINDS = ("blackout", "ack_blackout", "bandwidth_cliff", "burst_loss")


def random_plan(seed: int, duration: float, path_count: int = 4) -> FaultPlan:
    """A seeded random fault plan for chaos soaks.

    Draws a Poisson-ish mix of every windowed fault kind (six events per
    10 s) plus a NAT rebind, and a PoP handover on runs of 8 s or more,
    over ``[0.5, duration)``.  The highest-numbered path never receives a
    capacity-destroying fault (blackout / ack_blackout / bandwidth_cliff
    / burst_loss), so the tunnel always retains *some* surviving capacity
    and "delivers what the surviving capacity admits" is a meaningful
    assertion.  The draw sequence is fixed: the soak digests and
    ``fleet_tunnel``'s faulted vehicles depend on it byte for byte.
    """
    if duration <= 1.0:
        raise FaultPlanError("chaos plans need at least 1 s of run time")
    if path_count < 1:
        raise FaultPlanError("path_count must be >= 1")
    rng = seeded_rng(seed, "fault-plan")
    b = FaultPlanBuilder()
    n_events = max(1, int(6.0 * duration / 10.0))
    kinds = ("blackout", "brownout", "burst_loss", "rtt_spike",
             "bandwidth_cliff", "reorder", "duplicate", "ack_blackout")
    for _ in range(n_events):
        kind = rng.choice(kinds)
        limit = path_count - 1 if (path_count > 1
                                   and kind in DESTRUCTIVE_KINDS) else path_count
        pid = rng.randrange(limit)
        start = 0.5 + rng.random() * max(0.1, duration - 1.5)
        span = min(0.3 + rng.random() * 2.5, max(0.2, duration - start))
        if kind == "blackout":
            b.blackout(start, span, path_id=pid)
        elif kind == "brownout":
            b.brownout(start, span, severity=0.1 + 0.6 * rng.random(), path_id=pid)
        elif kind == "burst_loss":
            b.burst_loss(start, min(span, 0.8), severity=1.0, path_id=pid)
        elif kind == "rtt_spike":
            b.rtt_spike(start, span, delay=0.05 + 0.5 * rng.random(), path_id=pid)
        elif kind == "bandwidth_cliff":
            b.bandwidth_cliff(start, span, scale=0.05 + 0.3 * rng.random(), path_id=pid)
        elif kind == "reorder":
            b.reorder(start, span, jitter=0.02 + 0.1 * rng.random(), path_id=pid)
        elif kind == "duplicate":
            b.duplicate(start, span, prob=0.1 + 0.4 * rng.random(), path_id=pid)
        else:
            b.ack_blackout(start, min(span, 1.0), path_id=pid)
    # middlebox events: one NAT rebind always, a PoP handover on longer runs
    b.nat_rebind(0.5 + rng.random() * (duration - 1.0))
    if duration >= 8.0:
        b.pop_handover(0.5 + rng.random() * (duration - 1.0),
                       outage=0.1 + 0.3 * rng.random())
    return b.build()
