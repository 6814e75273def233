"""Fully redundant scheduler (RE) [61].

Duplicates every packet on every path that has window — "gentle
aggression" taken to its limit.  Excellent loss resilience but, as Fig. 11
shows, up to ~300 % redundant traffic; under constrained links the copies
crowd out fresh video and the tail stall ratio suffers.
"""

from __future__ import annotations

from typing import List, Sequence

from ..path import PathState
from .base import Scheduler

__all__ = ["RedundantScheduler"]


class RedundantScheduler(Scheduler):
    """Send a copy on every path with available window."""

    name = "RE"

    def select(self, usable: Sequence[PathState], size: int, now: float) -> List[PathState]:
        return [p for p in usable if p.cc.can_send(size)]
