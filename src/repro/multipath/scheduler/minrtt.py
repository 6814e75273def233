"""min-RTT scheduler [30] — XNC's default for first transmissions (§4.2).

Sends each new packet on the lowest-smoothed-RTT path that currently has
congestion window.  Simple and effective when paths are stable; the paper's
point is that it mispredicts badly when a chosen path collapses mid-flight,
which is what the coded recovery compensates for.
"""

from __future__ import annotations

from typing import List, Sequence

from ..path import PathState
from .base import Scheduler

__all__ = ["MinRttScheduler"]


class MinRttScheduler(Scheduler):
    """Lowest-RTT available path wins."""

    name = "minRTT"

    def select(self, usable: Sequence[PathState], size: int, now: float) -> List[PathState]:
        # one pass, no candidate list: this runs once per scheduled packet.
        # Ties break on the lower path_id (ids are unique), matching a
        # min() over (smoothed_rtt, path_id) keys.
        best = None
        best_rtt = 0.0
        for p in usable:
            if not p.cc.can_send(size):
                continue
            rtt = p.rtt.smoothed_rtt
            if best is None or rtt < best_rtt or (rtt == best_rtt and p.path_id < best.path_id):
                best = p
                best_rtt = rtt
        return [best] if best is not None else []
