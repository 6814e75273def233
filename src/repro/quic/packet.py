"""QUIC packet and frame model for the simulator.

Packets are typed Python objects with faithful *sizes* rather than real
ciphertext: the evaluation depends on bytes-on-the-wire, timing, and loss,
not on actual encryption.  Header overheads follow the paper's accounting
(Appx. E: IP + UDP + QUIC + XNC headers total at most 60 bytes).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from ..core.frames import XncNcFrame

__all__ = [
    "TUNNEL_OVERHEAD",
    "AckFrame",
    "PingFrame",
    "QuicPacket",
]

#: Wire overheads in bytes.
IP_HEADER_SIZE = 20
UDP_HEADER_SIZE = 8
#: Short-header QUIC: flags(1) + DCID(8) + packet number(3) + AEAD tag(16).
QUIC_HEADER_SIZE = 28
#: Total tunnel overhead excluding the XNC_Header (which frames carry).
TUNNEL_OVERHEAD = IP_HEADER_SIZE + UDP_HEADER_SIZE + QUIC_HEADER_SIZE
#: Device MTU and the tun MTU after the Appx. E adjustment (1500 - 60).
DEVICE_MTU = 1500
TUN_MTU = 1440

_packet_counter = itertools.count(1)


@dataclass(frozen=True)
class AckFrame:
    """An ACK for one path's packet-number space.

    ``ranges`` is a tuple of inclusive (low, high) packet-number ranges,
    highest first, mirroring RFC 9000's largest-acknowledged-first layout.
    """

    path_id: int
    largest: int
    ack_delay: float
    ranges: Tuple[Tuple[int, int], ...]

    @property
    def wire_size(self) -> int:
        # type + largest + delay + count + first range + (gap, len) pairs
        return 8 + 4 * max(0, len(self.ranges) - 1) * 2


@dataclass(frozen=True)
class PingFrame:
    """Keep-alive / RTT probe frame."""

    wire_size: int = 1


Frame = Union[AckFrame, XncNcFrame, PingFrame]


@dataclass
class QuicPacket:
    """A short-header QUIC packet travelling on one path."""

    path_id: int
    packet_number: int
    frames: List[Frame] = field(default_factory=list)
    sent_time: float = 0.0
    connection_id: int = 0
    uid: int = field(default_factory=lambda: next(_packet_counter))
