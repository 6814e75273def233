"""Byte-level QUIC packet serialisation (RFC 9000 short header).

The simulator normally passes typed :class:`QuicPacket` objects between
endpoints (only sizes matter for the evaluation), but the wire format is
part of the system: this module serialises and parses real bytes so the
formats are pinned by tests and an implementation in another language
could interoperate.

Short-header layout::

    0x4X | DCID (8) | packet number (3) | frames... | AEAD tag (16)

Frames:

* ``0x01`` PING
* ``0x02`` ACK — largest (varint), ack_delay in µs (varint),
  range_count (varint), first_range (varint), then (gap, len) varint
  pairs per RFC 9000 §19.3;
* ``0x30/0x31`` DATAGRAM (RFC 9221);
* ``0x32`` XNC_NC (CellFusion; see ``repro.core.frames``).

Encryption is out of scope — the 16-byte tag is zeros — but sizes match
a real AEAD-protected packet, which is what the emulation consumes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..core.frames import FRAME_XNC_NC, FrameError, XncNcFrame
from .packet import AckFrame, PingFrame, QuicPacket
from .varint import decode_varint, encode_varint

__all__ = [
    "WireError",
    "serialize_packet",
    "ParsedPacket",
    "parse_packet",
]

FRAME_PING = 0x01
FRAME_ACK = 0x02

HEADER_FLAGS = 0x42  # short header, 3-byte packet number
DCID_LEN = 8
PN_LEN = 3
AEAD_TAG_LEN = 16
#: ACK delay exponent of 3 (RFC 9000 default): delay unit is 8 µs.
ACK_DELAY_UNIT = 8e-6


class WireError(Exception):
    """Malformed packet bytes."""


#: Flags byte + u64 connection ID, packed/unpacked in one struct call.
_PKT_HEADER = struct.Struct("!BQ")

#: PingFrame is frozen and fieldless-in-practice; parsing reuses one
#: instance instead of allocating per PING on the hot path.
_PING = PingFrame()


def _encode_ack(ack: AckFrame) -> bytes:
    if not ack.ranges:
        raise WireError("ACK frame needs at least one range")
    out = bytearray([FRAME_ACK])
    # we don't carry path on the wire explicitly; the multipath draft
    # scopes ACKs by the path the packet arrives on — but to keep parsing
    # self-contained we prepend the path id as a varint (an extension
    # field a real deployment would negotiate)
    out += encode_varint(ack.path_id)
    out += encode_varint(ack.largest)
    out += encode_varint(int(max(ack.ack_delay, 0.0) / ACK_DELAY_UNIT))
    ranges = list(ack.ranges)  # highest-first (low, high) pairs
    out += encode_varint(len(ranges) - 1)
    first_low, first_high = ranges[0]
    if first_high != ack.largest:
        raise WireError("first ACK range must end at largest")
    out += encode_varint(first_high - first_low)
    prev_low = first_low
    for low, high in ranges[1:]:
        gap = prev_low - high - 2
        if gap < 0:
            raise WireError("ACK ranges must be descending and disjoint")
        out += encode_varint(gap)
        out += encode_varint(high - low)
        prev_low = low
    return bytes(out)


def _decode_ack(data: bytes, offset: int) -> Tuple[AckFrame, int]:
    start = offset
    offset += 1  # frame type
    path_id, n = decode_varint(data, offset)
    offset += n
    largest, n = decode_varint(data, offset)
    offset += n
    delay_units, n = decode_varint(data, offset)
    offset += n
    extra_ranges, n = decode_varint(data, offset)
    offset += n
    first_len, n = decode_varint(data, offset)
    offset += n
    ranges = [(largest - first_len, largest)]
    prev_low = largest - first_len
    for _ in range(extra_ranges):
        gap, n = decode_varint(data, offset)
        offset += n
        length, n = decode_varint(data, offset)
        offset += n
        high = prev_low - gap - 2
        low = high - length
        if low < 0:
            raise WireError("ACK range underflow")
        ranges.append((low, high))
        prev_low = low
    ack = AckFrame(
        path_id=path_id,
        largest=largest,
        ack_delay=delay_units * ACK_DELAY_UNIT,
        ranges=tuple(ranges),
    )
    return ack, offset - start


def serialize_packet(packet: QuicPacket) -> bytes:
    """Serialise a short-header packet to bytes."""
    if packet.packet_number < 0:
        pn = 0  # ACK-only packets use pn 0 in the unprotected space
    else:
        pn = packet.packet_number & 0xFFFFFF
    out = bytearray(_PKT_HEADER.pack(HEADER_FLAGS,
                                     packet.connection_id & 0xFFFFFFFFFFFFFFFF))
    out += pn.to_bytes(PN_LEN, "big")
    for frame in packet.frames:
        if isinstance(frame, AckFrame):
            out += _encode_ack(frame)
        elif isinstance(frame, XncNcFrame):
            out += frame.encode()
        elif isinstance(frame, PingFrame):
            out.append(FRAME_PING)
        else:
            raise WireError("unserialisable frame %r" % (frame,))
    out += bytes(AEAD_TAG_LEN)
    return bytes(out)


@dataclass
class ParsedPacket:
    """Result of :func:`parse_packet`."""

    connection_id: int
    packet_number: int
    frames: List[Union[AckFrame, XncNcFrame, PingFrame]]

    def to_quic_packet(self, path_id: int = 0) -> QuicPacket:
        return QuicPacket(
            path_id=path_id,
            packet_number=self.packet_number,
            frames=list(self.frames),
            connection_id=self.connection_id,
        )


def parse_packet(data: bytes) -> ParsedPacket:
    """Parse bytes produced by :func:`serialize_packet`."""
    min_len = 1 + DCID_LEN + PN_LEN + AEAD_TAG_LEN
    if len(data) < min_len:
        raise WireError("packet too short")
    if data[0] & 0xC0 != 0x40:
        raise WireError("not a short-header packet")
    _flags, cid = _PKT_HEADER.unpack_from(data, 0)
    pn = int.from_bytes(data[1 + DCID_LEN : 1 + DCID_LEN + PN_LEN], "big")
    offset = 1 + DCID_LEN + PN_LEN
    end = len(data) - AEAD_TAG_LEN
    frames: List[Union[AckFrame, XncNcFrame, PingFrame]] = []
    try:
        while offset < end:
            ftype = data[offset]
            if ftype == FRAME_PING:
                frames.append(_PING)
                offset += 1
            elif ftype == FRAME_ACK:
                ack, consumed = _decode_ack(data, offset)
                frames.append(ack)
                offset += consumed
            elif ftype == FRAME_XNC_NC:
                frame, consumed = XncNcFrame.decode_from(data, offset, end)
                frames.append(frame)
                offset += consumed
            else:
                raise WireError("unknown frame type 0x%02x" % ftype)
    except FrameError as exc:
        # one handler for the whole frame walk: any FrameError aborts the
        # parse, so hoisting the try out of the loop changes nothing
        raise WireError(str(exc))
    return ParsedPacket(connection_id=cid, packet_number=pn, frames=frames)
