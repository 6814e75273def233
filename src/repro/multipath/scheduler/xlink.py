"""XLINK-style QoE-driven scheduler [29].

XLINK is a production multipath QUIC for short-video services: it
schedules new packets min-RTT style but, when a packet's delivery risks
the application deadline, *re-injects* a copy on an alternate path instead
of waiting for full retransmission timers.  We model the scheduling half
here (prefer the fast path, opportunistically duplicate the packet on a
second path when the primary looks risky); the reliable-transport half
lives in the baseline tunnel that hosts the scheduler.

XLINK remains fully reliable, so under sustained burst loss it still
retransmits until delivery and stalls — the gap Fig. 11 quantifies.
"""

from __future__ import annotations

from typing import List, Sequence

from ..path import PathState
from .base import Scheduler

__all__ = [
    "XlinkScheduler",
]

#: Duplicate onto a backup path when the best path's RTT exceeds the best
#: alternative by this factor (a risk proxy for "might miss the deadline").
RISK_RTT_RATIO = 1.6


class XlinkScheduler(Scheduler):
    """min-RTT with QoE-driven opportunistic duplication."""

    name = "XLINK"

    def select(self, usable: Sequence[PathState], size: int, now: float) -> List[PathState]:
        candidates = [p for p in usable if p.cc.can_send(size)]
        if not candidates:
            return []
        ranked = sorted(candidates, key=lambda p: (p.smoothed_rtt, p.path_id))
        primary = ranked[0]
        selected = [primary]
        # risk heuristic: primary path showing inflated RTT (queue building
        # or fading signal) -> reinject on the next-best path too
        if len(ranked) > 1:
            baseline = min(p.rtt.min_rtt for p in ranked if p.rtt.min_rtt != float("inf")) if any(
                p.rtt.min_rtt != float("inf") for p in ranked
            ) else primary.smoothed_rtt
            if baseline > 0 and primary.smoothed_rtt > RISK_RTT_RATIO * baseline:
                selected.append(ranked[1])
        return selected
