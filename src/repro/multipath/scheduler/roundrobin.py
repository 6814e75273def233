"""Round-robin scheduler — a simple reference point used by tests and
ablations (not one of the paper's comparison arms)."""

from __future__ import annotations

from typing import List, Sequence

from ..path import PathState
from .base import Scheduler

__all__ = ["RoundRobinScheduler"]


class RoundRobinScheduler(Scheduler):
    """Cycle through paths with available window."""

    name = "roundrobin"

    def __init__(self):
        self._last_path_id = -1

    def select(self, usable: Sequence[PathState], size: int, now: float) -> List[PathState]:
        ordered = [p for p in usable if p.cc.can_send(size)]  # id order
        if not ordered:
            return []
        for p in ordered:
            if p.path_id > self._last_path_id:
                self._last_path_id = p.path_id
                return [p]
        self._last_path_id = ordered[0].path_id
        return [ordered[0]]
