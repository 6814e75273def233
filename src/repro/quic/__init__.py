"""Simulated QUIC substrate: varints, RTT, ACKs, packets, congestion control."""

from .ack import AckRangeTracker
from .packet import AckFrame, PingFrame, QuicPacket, TUNNEL_OVERHEAD, TUN_MTU
from .rtt import RttEstimator
from .varint import decode_varint, encode_varint, varint_size
from .wire import ParsedPacket, WireError, parse_packet, serialize_packet

__all__ = [
    "AckRangeTracker",
    "AckFrame",
    "PingFrame",
    "QuicPacket",
    "TUNNEL_OVERHEAD",
    "TUN_MTU",
    "RttEstimator",
    "decode_varint",
    "encode_varint",
    "varint_size",
    "ParsedPacket",
    "WireError",
    "parse_packet",
    "serialize_packet",
]
