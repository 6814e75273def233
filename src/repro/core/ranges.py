"""Encoding-range construction and expiry over the retransmission queue.

§4.4.2: lost packets are partitioned into contiguous ranges, each coded
independently.  Walking the queue in packet-ID order, a border is inserted
after the most-recently-added packet when any of three conditions holds:

* the current range already contains at least ``r`` packets,
* the current range spans at least ``t`` seconds (send-timestamp span), or
* a video frame border is detected (optional — user traffic may be
  encrypted, so frame marks are best-effort).

Contiguity is also a hard border: a range must cover consecutive packet
IDs so that it fits the (count, seed, startID) header.  For a 30 Mbps
session the deployed system uses r = 10 and t = 60 ms.

§4.4.3: packets are only tracked for ``t_expire`` (700 ms deployed); a
range whose *last* packet has expired is dropped entirely — recovering
stale video wastes bandwidth that newer frames need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

__all__ = [
    "DEFAULT_MAX_RANGE_PACKETS",
    "DEFAULT_MAX_RANGE_SPAN",
    "DEFAULT_EXPIRY",
    "LostPacket",
    "EncodeRange",
    "RangePolicy",
    "build_ranges",
    "RetransmissionQueue",
]

#: Deployed parameter values for a 30 Mbps session (§4.4.2, §4.4.3).
DEFAULT_MAX_RANGE_PACKETS = 10
DEFAULT_MAX_RANGE_SPAN = 0.060
DEFAULT_EXPIRY = 0.700


@dataclass(frozen=True)
class LostPacket:
    """A queue entry: packet ID, original send time, optional frame ID."""

    packet_id: int
    sent_time: float
    frame_id: Optional[int] = None


@dataclass(frozen=True)
class EncodeRange:
    """A contiguous span of lost packets to be recovered as one unit."""

    start_id: int
    count: int
    last_sent_time: float

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("range count must be >= 1")

    @property
    def end_id(self) -> int:
        """One past the last packet ID in the range."""
        return self.start_id + self.count

    def packet_ids(self) -> range:
        return range(self.start_id, self.end_id)

@dataclass
class RangePolicy:
    """Border parameters of §4.4.2 plus the expiry horizon of §4.4.3."""

    max_packets: int = DEFAULT_MAX_RANGE_PACKETS
    max_span: float = DEFAULT_MAX_RANGE_SPAN
    use_frame_borders: bool = True
    t_expire: float = DEFAULT_EXPIRY

    def __post_init__(self):
        if self.max_packets < 1:
            raise ValueError("max_packets must be >= 1")
        if self.max_span <= 0:
            raise ValueError("max_span must be positive")
        if self.t_expire <= 0:
            raise ValueError("t_expire must be positive")


def build_ranges(lost: Sequence[LostPacket], policy: Optional[RangePolicy] = None) -> List[EncodeRange]:
    """Partition the retransmission queue into encode ranges.

    ``lost`` need not be sorted; it is ordered by packet ID first.  Borders
    follow §4.4.2: contiguity, the r-packet cap, the t-second span cap, and
    (optionally) video frame boundaries.
    """
    if policy is None:
        policy = RangePolicy()
    if not lost:
        return []
    entries = sorted(lost, key=lambda p: p.packet_id)
    for a, b in zip(entries, entries[1:]):
        if a.packet_id == b.packet_id:
            raise ValueError("duplicate packet_id %d in loss queue" % a.packet_id)

    ranges: List[EncodeRange] = []
    start = entries[0]
    first_time = start.sent_time
    last = start
    count = 1

    def close() -> None:
        ranges.append(EncodeRange(start.packet_id, count, last.sent_time))

    for entry in entries[1:]:
        contiguous = entry.packet_id == last.packet_id + 1
        too_many = count >= policy.max_packets
        span = max(entry.sent_time, first_time) - min(entry.sent_time, first_time)
        too_long = span >= policy.max_span
        frame_border = (
            policy.use_frame_borders
            and entry.frame_id is not None
            and last.frame_id is not None
            and entry.frame_id != last.frame_id
        )
        if contiguous and not too_many and not too_long and not frame_border:
            last = entry
            count += 1
            continue
        close()
        start = entry
        first_time = entry.sent_time
        last = entry
        count = 1
    close()
    return ranges


class RetransmissionQueue:
    """The sender's queue of detected-lost packets awaiting recovery.

    Thin stateful wrapper over :func:`build_ranges` used by the XNC sender:
    losses are added as they are detected, ranges are drained atomically at
    recovery time, and anything past ``t_expire`` is aged out.

    ``sanitizer`` (see :mod:`repro.sanitizer`) cross-checks the §4.4.2
    border rules on every ranges() build and the §4.4.3 completeness of
    expire(); it defaults to the disabled singleton.
    """

    def __init__(self, policy: Optional[RangePolicy] = None, sanitizer=None):
        from ..sanitizer import NULL_SANITIZER

        self.policy = policy or RangePolicy()
        self.sanitizer = sanitizer if sanitizer is not None else NULL_SANITIZER
        self._lost: dict[int, LostPacket] = {}
        self.expired_packets = 0

    def __len__(self) -> int:
        return len(self._lost)

    def add(self, packet: LostPacket) -> bool:
        """Queue a lost packet; duplicates are ignored (returns False)."""
        if packet.packet_id in self._lost:
            return False
        self._lost[packet.packet_id] = packet
        return True

    def discard(self, packet_id: int) -> None:
        """Remove a packet (e.g. a late ACK arrived before recovery ran)."""
        self._lost.pop(packet_id, None)

    def expire(self, now: float) -> List[LostPacket]:
        """Drop and return every queued packet older than ``t_expire``."""
        stale = [p for p in self._lost.values() if now - p.sent_time > self.policy.t_expire]
        for p in stale:
            del self._lost[p.packet_id]
        self.expired_packets += len(stale)
        if self.sanitizer.enabled:
            self.sanitizer.check_queue_post_expire(
                self._lost.values(), now, self.policy.t_expire)
        return stale

    def ranges(self, now: Optional[float] = None) -> List[EncodeRange]:
        """Current encode ranges (after expiring stale entries if ``now``)."""
        if now is not None:
            self.expire(now)
        out = build_ranges(list(self._lost.values()), self.policy)
        if self.sanitizer.enabled:
            self.sanitizer.check_ranges(out, self.policy)
        return out

    def pop_range(self, rng: EncodeRange) -> List[LostPacket]:
        """Remove and return a range's packets (XNC forgets them, §4.5.2)."""
        out = []
        for pid in rng.packet_ids():
            pkt = self._lost.pop(pid, None)
            if pkt is not None:
                out.append(pkt)
        return out
