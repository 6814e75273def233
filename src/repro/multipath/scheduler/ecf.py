"""ECF — Earliest Completion First scheduler [62].

When the fastest path is congestion-limited, ECF decides whether to use a
slower path immediately or *wait* for the fast path's window to reopen:
it compares the estimated completion time through the slow path against
waiting one RTT-ish interval for the fast path, and idles when waiting
wins.  On stable heterogeneous WLAN paths this avoids reordering stalls;
on volatile cellular paths its completion-time estimates are frequently
wrong, which is why ECF fares worst among the Fig. 11 schedulers.
"""

from __future__ import annotations

from typing import List, Sequence

from ..path import PathState
from .base import Scheduler

__all__ = [
    "EcfScheduler",
]

#: Hysteresis factor from the ECF paper (their delta / beta ~ 0.25).
ECF_BETA = 0.25


class EcfScheduler(Scheduler):
    """Earliest-completion-first with wait-for-fast-path logic."""

    name = "ECF"

    def __init__(self, queued_bytes_hint: int = 0):
        # the transport updates this with its backlog so ECF can estimate
        # transfer completion times
        self.queued_bytes_hint = queued_bytes_hint

    def _estimated_rate(self, path: PathState) -> float:
        """Crude bytes/sec estimate: cwnd per smoothed RTT."""
        srtt = max(path.smoothed_rtt, 1e-3)
        return max(path.cc.cwnd, 1) / srtt

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
        # ECF condition: send on the slow path only if finishing there beats
        # waiting for the fast path to drain one cwnd worth of inflight.
        backlog = self.queued_bytes_hint + size
        t_slow = slow.smoothed_rtt + backlog / self._estimated_rate(slow)
        wait_fast = fastest.smoothed_rtt * (1 + ECF_BETA) + backlog / self._estimated_rate(fastest)
        if t_slow <= wait_fast:
            return [slow]
        return []
