"""Receiver-side ACK tracking per path packet-number space.

Each path of a multipath QUIC connection has its own packet-number space
(per the IETF multipath draft the paper builds on), so the server keeps
one :class:`AckRangeTracker` per path and periodically emits
:class:`AckFrame`s on the reverse direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .packet import AckFrame

__all__ = [
    "MAX_ACK_RANGES",
    "AckRangeTracker",
]

#: Cap on ranges carried per ACK frame (RFC 9000 implementations bound this).
MAX_ACK_RANGES = 32


class AckRangeTracker:
    """Collects received packet numbers into maximal inclusive ranges."""

    def __init__(self, path_id: int):
        self.path_id = path_id
        # sorted, disjoint, non-adjacent inclusive ranges
        self._ranges: List[List[int]] = []
        self.largest: int = -1
        self.largest_recv_time: float = 0.0
        self._dirty = False

    def on_received(self, packet_number: int, now: float) -> bool:
        """Record one packet number; returns False for duplicates."""
        if packet_number < 0:
            raise ValueError("packet numbers are non-negative")
        if packet_number > self.largest:
            self.largest = packet_number
            self.largest_recv_time = now
        ranges = self._ranges
        if ranges and ranges[-1][1] == packet_number - 1:
            # in-order arrival extends the newest range: what the search
            # below would conclude (insertion point at the end, merging
            # with the previous range only)
            ranges[-1][1] = packet_number
            self._dirty = True
            return True
        # locate insertion point among ranges
        lo, hi = 0, len(self._ranges)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._ranges[mid][1] < packet_number:
                lo = mid + 1
            else:
                hi = mid
        idx = lo
        if idx < len(self._ranges) and self._ranges[idx][0] <= packet_number <= self._ranges[idx][1]:
            return False
        merged_prev = idx > 0 and self._ranges[idx - 1][1] == packet_number - 1
        merged_next = idx < len(self._ranges) and self._ranges[idx][0] == packet_number + 1
        if merged_prev and merged_next:
            self._ranges[idx - 1][1] = self._ranges[idx][1]
            del self._ranges[idx]
        elif merged_prev:
            self._ranges[idx - 1][1] = packet_number
        elif merged_next:
            self._ranges[idx][0] = packet_number
        else:
            self._ranges.insert(idx, [packet_number, packet_number])
        self._dirty = True
        return True

    def build_ack(self, now: float, force: bool = False) -> Optional[AckFrame]:
        """Emit an ACK frame covering the newest ranges, highest first."""
        if not self._ranges:
            return None
        if not self._dirty and not force:
            return None
        newest_first = [tuple(r) for r in reversed(self._ranges)][:MAX_ACK_RANGES]
        self._dirty = False
        ack_delay = max(0.0, now - self.largest_recv_time)
        return AckFrame(
            path_id=self.path_id,
            largest=self.largest,
            ack_delay=ack_delay,
            ranges=tuple(newest_first),
        )
