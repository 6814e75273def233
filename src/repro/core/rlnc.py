"""Q-RLNC encoder and decoder (§4.3).

XNC applies random linear network coding only to *retransmissions*: a coded
packet is a random linear combination of a contiguous range of original
packets ``p_k .. p_{k+n-1}``, identified on the wire by the triple
``(packetCount, randomSeed, startID)``.  First transmissions use
``packetCount == 1`` and are the original payload — the code is systematic,
so redundancy is near zero on loss-free links.

The encoder keeps a pool of registered original packets (the copy the QUIC
layer saves before first transmission, Fig. 7) and produces coded payloads
on demand.  The decoder performs *incremental* Gaussian elimination per
range: each arriving equation is reduced against the rows already held, and
as soon as the range reaches full rank every original packet is recovered
and handed up.  Originals that arrive late (reordered rather than lost) are
fed in as unit-vector equations, so they shrink the number of unknowns.

Framing note: the paper zero-pads packets to a common length and relies on
the tunnelled IP header to recover true lengths.  To stay payload-agnostic
this implementation prepends an explicit 16-bit length to each packet
before padding (``_frame``/``_unframe``); the wire format is otherwise as
described in §4.3.2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .coefficients import coefficient_bytes
from .gf256 import gf_addmul_scalar_buffer, gf_addmul_vec, gf_inv, gf_mul_vec

__all__ = [
    "RlncError",
    "UnknownPacketError",
    "frame_payload",
    "unframe_payload",
    "RlncEncoder",
    "DecodeStats",
    "RlncDecoder",
]

#: Bytes prepended to every packet to make padding reversible.
LENGTH_PREFIX_SIZE = 2
#: Upper bound on packets in one coded range; ranges are kept small by the
#: border rules of §4.4.2 (r = 10 in the deployed system), this is a sanity
#: cap only.
MAX_RANGE_PACKETS = 4096


class RlncError(Exception):
    """Base class for coding-layer errors."""


class UnknownPacketError(RlncError):
    """An encode referenced a packet ID absent from the pool."""


def _frame_bytes(payload: bytes, width: int) -> bytes:
    """Length-prefix and zero-pad ``payload`` to ``width`` bytes."""
    framed_len = len(payload) + LENGTH_PREFIX_SIZE
    if framed_len > width:
        raise ValueError("payload longer than frame width")
    if framed_len == width:
        return len(payload).to_bytes(2, "big") + payload
    return len(payload).to_bytes(2, "big") + payload + b"\x00" * (width - framed_len)


def _frame(payload: bytes, width: int) -> np.ndarray:
    """:func:`_frame_bytes` as a (read-only) uint8 array."""
    return np.frombuffer(_frame_bytes(payload, width), dtype=np.uint8)


def _unframe(row: np.ndarray) -> bytes:
    """Strip the length prefix and padding from a recovered row."""
    length = (int(row[0]) << 8) | int(row[1])
    if length + LENGTH_PREFIX_SIZE > row.shape[0]:
        raise RlncError("corrupt recovered packet: bad length prefix")
    return row[2:2 + length].tobytes()


def frame_payload(payload: bytes) -> bytes:
    """Public framing helper: length-prefix a payload (no padding).

    Used by non-coding transports (reliable tunnels, bonding) so their
    wire format matches XNC's original-packet frames byte for byte.
    """
    return len(payload).to_bytes(2, "big") + payload


def unframe_payload(data: bytes) -> bytes:
    """Inverse of :func:`frame_payload` (tolerates trailing padding); the
    pure-bytes :func:`_unframe` of the systematic (count == 1) path."""
    length = (data[0] << 8) | data[1]
    if length + LENGTH_PREFIX_SIZE > len(data):
        raise RlncError("corrupt recovered packet: bad length prefix")
    return bytes(data[2:2 + length])


@dataclass
class PooledPacket:
    """One original packet held for potential recovery encoding."""

    packet_id: int
    payload: bytes
    timestamp: float


class RlncEncoder:
    """Sender-side packet pool and coded-payload generator.

    ``simd=True`` uses the numpy-vectorised GF(2^8) kernels (the stand-in
    for the paper's ARM NEON path); ``simd=False`` runs the byte-at-a-time
    scalar kernels used as the Fig. 14 "without SIMD" baseline.  Both modes
    produce byte-identical output.
    """

    def __init__(self, simd: bool = True):
        self.simd = simd
        self._pool: Dict[int, PooledPacket] = {}

    def register(self, packet_id: int, payload: bytes, timestamp: float = 0.0) -> None:
        """Save a copy of an original packet before its first transmission."""
        if packet_id < 0:
            raise ValueError("packet_id must be non-negative")
        self._pool[packet_id] = PooledPacket(packet_id, bytes(payload), timestamp)

    def contains(self, packet_id: int) -> bool:
        return packet_id in self._pool

    def release(self, packet_id: int) -> None:
        """Drop a packet from the pool (delivered, expired, or forgotten)."""
        self._pool.pop(packet_id, None)

    def release_range(self, start_id: int, count: int) -> None:
        for pid in range(start_id, start_id + count):
            self._pool.pop(pid, None)

    def _range_width(self, start_id: int, count: int) -> int:
        width = 0
        for pid in range(start_id, start_id + count):
            pkt = self._pool.get(pid)
            if pkt is None:
                raise UnknownPacketError("packet %d not in encoder pool" % pid)
            width = max(width, len(pkt.payload) + LENGTH_PREFIX_SIZE)
        return width

    def encode(self, start_id: int, count: int, seed: int) -> bytes:
        """Produce the coded payload for header (count, seed, start_id).

        For ``count == 1`` this returns the framed original (no coding, the
        seed is ignored), matching the special case of §4.3.2.
        """
        if not 1 <= count <= MAX_RANGE_PACKETS:
            raise ValueError("count out of range")
        if count == 1:
            # systematic fast path: coeff vector is always [1], the framed
            # original needs no padding — skip the GF machinery entirely
            pkt = self._pool.get(start_id)
            if pkt is None:
                raise UnknownPacketError("packet %d not in encoder pool" % start_id)
            return len(pkt.payload).to_bytes(2, "big") + pkt.payload
        width = self._range_width(start_id, count)
        coeffs = coefficient_bytes(seed, count)
        if self.simd:
            acc = np.zeros(width, dtype=np.uint8)
            for i, coeff in enumerate(coeffs):
                row = _frame(self._pool[start_id + i].payload, width)
                gf_addmul_vec(acc, row, coeff)
            return acc.tobytes()
        acc_b = bytearray(width)
        for i, coeff in enumerate(coeffs):
            row_b = _frame(self._pool[start_id + i].payload, width).tobytes()
            gf_addmul_scalar_buffer(acc_b, row_b, coeff)
        return bytes(acc_b)

    def encode_batch(self, start_id: int, count: int, seeds: Iterable[int]) -> List[bytes]:
        """Encode one coded payload per seed over the same range."""
        return [self.encode(start_id, count, seed) for seed in seeds]


class _RangeDecoder:
    """Incremental Gaussian elimination over one contiguous range.

    Rows are kept in reduced row-echelon form: each stored row has a unique
    pivot column with coefficient 1 and zeros in that column everywhere
    else.  A new equation is reduced against stored rows; if anything
    survives it becomes a new pivot row and is eliminated from the others.
    Decoding succeeds when every column has a pivot.
    """

    def __init__(self, start_id: int, count: int):
        self.start_id = start_id
        self.count = count
        self.width = 0
        self._pivots: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self.equations_seen = 0
        self.dependent_discarded = 0

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def complete(self) -> bool:
        return self.rank == self.count

    def _grow(self, width: int) -> None:
        if width <= self.width:
            return
        grown = {}
        for col, (vec, row) in self._pivots.items():
            new_row = np.zeros(width, dtype=np.uint8)
            new_row[: row.shape[0]] = row
            grown[col] = (vec, new_row)
        self._pivots = grown
        self.width = width

    def add_equation(self, coeffs: np.ndarray, payload: np.ndarray) -> bool:
        """Reduce one equation into the system; True if it added rank."""
        self.equations_seen += 1
        self._grow(payload.shape[0])
        vec = np.array(coeffs, dtype=np.uint8, copy=True)
        row = np.zeros(self.width, dtype=np.uint8)
        row[: payload.shape[0]] = payload
        # eliminate known pivots
        for col, (pvec, prow) in self._pivots.items():
            c = int(vec[col])
            if c:
                gf_addmul_vec(vec, pvec, c)
                gf_addmul_vec(row, prow, c)
        nz = np.nonzero(vec)[0]
        if nz.size == 0:
            self.dependent_discarded += 1
            return False
        pivot_col = int(nz[0])
        inv = gf_inv(int(vec[pivot_col]))
        vec = gf_mul_vec(vec, inv)
        row = gf_mul_vec(row, inv)
        # back-substitute into existing rows to stay in RREF
        for col, (pvec, prow) in self._pivots.items():
            c = int(pvec[pivot_col])
            if c:
                gf_addmul_vec(pvec, vec, c)
                gf_addmul_vec(prow, row, c)
        self._pivots[pivot_col] = (vec, row)
        return True

    def recovered(self) -> Dict[int, bytes]:
        """All original packets once complete (pivot rows are originals)."""
        if not self.complete:
            raise RlncError("range not yet decodable")
        out = {}
        for col, (_vec, row) in self._pivots.items():
            out[self.start_id + col] = _unframe(row)
        return out


@dataclass
class DecodeStats:
    """Counters exposed by the decoder for tests and benchmarks."""

    originals_received: int = 0
    coded_received: int = 0
    duplicates: int = 0
    dependent_discarded: int = 0
    ranges_opened: int = 0
    ranges_completed: int = 0
    packets_recovered: int = 0

    def as_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


class RlncDecoder:
    """Receiver-side decoder fed by XNC_NC frame payloads (Fig. 7).

    ``push`` accepts the wire triple plus payload and returns the list of
    ``(packet_id, payload)`` pairs newly available to hand up the stack —
    the original itself for uncoded packets, or every packet of a range the
    moment it reaches full rank.  Duplicate packet IDs are suppressed.
    """

    #: How many recent original payloads to retain for seeding ranges that
    #: open after their originals arrived (Pluribus-style proactive repair
    #: and reordered XNC recoveries both need this).
    RECENT_RETENTION = 4096

    def __init__(self, on_packet: Optional[Callable[[int, bytes], None]] = None,
                 sanitizer=None):
        from ..sanitizer import NULL_SANITIZER

        self._ranges: Dict[Tuple[int, int], _RangeDecoder] = {}
        self._delivered: Dict[int, bool] = {}
        self._recent: Dict[int, bytes] = {}
        self._recent_order: Deque[int] = deque()
        self._on_packet = on_packet
        self.sanitizer = sanitizer if sanitizer is not None else NULL_SANITIZER
        self.stats = DecodeStats()

    def _deliver(self, packet_id: int, payload: bytes, out: List[Tuple[int, bytes]]) -> None:
        if self._delivered.get(packet_id, False):
            self.stats.duplicates += 1
            return
        self._delivered[packet_id] = True
        # remember the payload for ranges that open after it arrived
        recent = self._recent
        if packet_id not in recent:
            recent[packet_id] = payload
            order = self._recent_order
            order.append(packet_id)
            while len(order) > self.RECENT_RETENTION:
                recent.pop(order.popleft(), None)
        out.append((packet_id, payload))
        if self._on_packet is not None:
            self._on_packet(packet_id, payload)

    def push(self, start_id: int, count: int, seed: int, payload: bytes) -> List[Tuple[int, bytes]]:
        """Ingest one XNC_NC payload; return newly decoded packets."""
        if not 1 <= count <= MAX_RANGE_PACKETS:
            raise ValueError("count out of range")
        out: List[Tuple[int, bytes]] = []
        if count == 1:
            # systematic packet: strip the length prefix and hand it up;
            # only an open range (rare) has any use for it beyond that
            self.stats.originals_received += 1
            original = unframe_payload(payload)
            self._deliver(start_id, original, out)
            if self._ranges:
                self._cross_feed_original(start_id, original, out)
            return out

        self.stats.coded_received += 1
        key = (start_id, count)
        rng = self._ranges.get(key)
        if rng is None:
            rng = _RangeDecoder(start_id, count)
            self._ranges[key] = rng
            self.stats.ranges_opened += 1
            # seed with originals that arrived before this range opened;
            # add_equation copies its inputs, so one unit vector is
            # cleared and reused across the seeding loop
            vec = np.zeros(count, dtype=np.uint8)
            for pid in range(start_id, start_id + count):
                known = self._recent.get(pid)
                if known is None:
                    continue
                vec[pid - start_id] = 1
                rng.add_equation(vec, _frame(known, len(known) + LENGTH_PREFIX_SIZE))
                vec[pid - start_id] = 0

        coeffs = np.frombuffer(coefficient_bytes(seed, count), dtype=np.uint8)
        added = rng.add_equation(coeffs, np.frombuffer(payload, dtype=np.uint8))
        if not added:
            self.stats.dependent_discarded += 1
        if rng.complete:
            if self.sanitizer.enabled:
                self.sanitizer.check_decode_complete(rng)
            for pid, original in sorted(rng.recovered().items()):
                self._deliver(pid, original, out)
                self.stats.packets_recovered += 1
            self.stats.ranges_completed += 1
            del self._ranges[key]
        return out

    def _cross_feed_original(self, packet_id: int, payload: bytes, out: List[Tuple[int, bytes]]) -> None:
        """A late-arriving original reduces unknowns in any open range."""
        completed = []
        for key, rng in self._ranges.items():
            if rng.start_id <= packet_id < rng.start_id + rng.count:
                vec = np.zeros(rng.count, dtype=np.uint8)
                vec[packet_id - rng.start_id] = 1
                width = max(rng.width, len(payload) + LENGTH_PREFIX_SIZE)
                rng.add_equation(vec, _frame(payload, width))
                if rng.complete:
                    completed.append(key)
        for key in completed:
            rng = self._ranges.pop(key)
            if self.sanitizer.enabled:
                self.sanitizer.check_decode_complete(rng)
            for pid, original in sorted(rng.recovered().items()):
                self._deliver(pid, original, out)
                self.stats.packets_recovered += 1
            self.stats.ranges_completed += 1

    def expire_range(self, start_id: int, count: int) -> None:
        """Drop an open range whose packets passed ``t_expire`` (§4.4.3)."""
        self._ranges.pop((start_id, count), None)
