"""Multipath scheduler interface.

A scheduler answers one question per first-time packet: which path(s)
should carry it *now*.  Returning an empty list means "hold the packet"
(no path has window, or the scheduler prefers waiting — ECF does this).
Redundant schedulers return several paths and the packet is duplicated.

The transport works out which paths are in service once per sim instant
(``PathManager.usable``) and hands every ``select`` of that instant the
same list, so a scheduler never asks a path whether it is usable — only
whether its congestion window has room.

Recovery packets bypass the scheduler entirely: XNC's one-shot recovery
does its own window-proportional spreading (§4.5.2).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..path import PathState

__all__ = ["Scheduler"]


class Scheduler:
    """Base multipath scheduler."""

    name = "base"

    def select(self, usable: Sequence[PathState], size: int, now: float) -> List[PathState]:
        """Which of the ``usable`` paths (in service at ``now``, id order)
        should carry a packet of ``size`` wire bytes — possibly none.

        Always a fresh list: the caller edits ``usable`` in place when a
        send takes a path out of service.
        """
        raise NotImplementedError
