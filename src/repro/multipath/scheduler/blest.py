"""BLEST-style scheduler (blocking estimation, Ferlin et al. 2016).

Another N-path-capable scheduler from the multipath literature (not one
of the paper's Fig. 11 arms, included for experiment variety).  BLEST's
idea: before putting a packet on a slower path, estimate whether that
packet would still be "in the way" — undelivered — by the time the fast
path could have carried it, and skip the slow path when using it would
cause receive-buffer blocking.

Our estimate: sending on slow path finishes at ``srtt_slow/2 +
queue_drain``; waiting for the fast path costs one fast RTT.  If the
slow path's completion exceeds the fast path's wait by more than the
blocking margin, prefer idling.
"""

from __future__ import annotations

from typing import List, Sequence

from ..path import PathState
from .base import Scheduler

__all__ = [
    "BlestScheduler",
]

#: Tolerated extra delivery delay before the slow path is deemed blocking.
BLOCKING_MARGIN = 1.5


class BlestScheduler(Scheduler):
    """Blocking-estimation scheduler."""

    name = "BLEST"

    def select(self, usable: Sequence[PathState], size: int, now: float) -> List[PathState]:
        if not usable:
            return []
        fastest = min(usable, key=lambda p: (p.smoothed_rtt, p.path_id))
        if fastest.cc.can_send(size):
            return [fastest]
        with_window = [p for p in usable if p.cc.can_send(size)]
        if not with_window:
            return []
        slow = min(with_window, key=lambda p: (p.smoothed_rtt, p.path_id))
        # blocking estimate: deliver via slow vs wait one fast RTT
        slow_delivery = slow.smoothed_rtt / 2 + self._queue_drain_time(slow)
        fast_wait = fastest.smoothed_rtt
        if slow_delivery > fast_wait * BLOCKING_MARGIN:
            return []
        return [slow]

    @staticmethod
    def _queue_drain_time(path: PathState) -> float:
        """Time for the path's inflight bytes to drain at cwnd-per-RTT."""
        rate = max(path.cc.cwnd, 1) / max(path.smoothed_rtt, 1e-3)
        return path.cc.bytes_in_flight / rate
