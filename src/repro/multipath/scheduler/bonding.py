"""Cellular bonding (BONDING) — 5-tuple hashing, no aggregation (§8.1.2).

SD-WAN/mwan3-style bonding load-balances *sessions*: a flow's 5-tuple is
hashed to one interface and stays there.  A single video stream therefore
rides exactly one cellular link and cannot use the others' capacity — the
largest-variance arm of Fig. 9.  We also model interface failover: when
the pinned path looks dead the flow is re-hashed to a live one (mwan3's
failover), which takes effect only after the failure-detection delay.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Sequence, Tuple

from ..path import PathState
from .base import Scheduler

__all__ = [
    "FiveTuple",
    "hash_five_tuple",
    "BondingScheduler",
]

FiveTuple = Tuple[str, int, str, int, int]


def hash_five_tuple(five_tuple: FiveTuple, path_count: int) -> int:
    """Deterministic interface choice for a flow (src, sport, dst, dport, proto)."""
    if path_count <= 0:
        raise ValueError("path_count must be positive")
    key = ("%s:%d>%s:%d/%d" % five_tuple).encode()
    return zlib.crc32(key) % path_count


class BondingScheduler(Scheduler):
    """Pin the flow to one hashed path; failover when it dies."""

    name = "BONDING"

    def __init__(self, five_tuple: Optional[FiveTuple] = None):
        self.five_tuple = five_tuple or ("192.168.1.10", 5004, "10.0.0.1", 8554, 17)
        self._pinned: Optional[int] = None

    def select(self, usable: Sequence[PathState], size: int, now: float) -> List[PathState]:
        if not usable:
            return []
        pinned = None
        for p in usable:
            if p.path_id == self._pinned:
                pinned = p
                break
        if pinned is None:
            # first packet of the flow, or failover: (re-)hash onto a live
            # path when the pinned one is out of service
            pinned = usable[hash_five_tuple(self.five_tuple, len(usable))]
            self._pinned = pinned.path_id
        if not pinned.cc.can_send(size):
            return []
        return [pinned]
