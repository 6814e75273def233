"""Wire serialisation and the BLEST scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frames import XncNcFrame
from repro.multipath.path import PathState
from repro.multipath.scheduler.blest import BlestScheduler
from repro.quic.cc.base import CongestionController
from repro.quic.packet import AckFrame, PingFrame, QuicPacket
from repro.quic.wire import (
    ParsedPacket,
    WireError,
    parse_packet,
    serialize_packet,
)


def xnc_frame(pid=5, payload=b"\x00\x07payload"):
    return XncNcFrame.original(pid, payload)


class TestWireFormat:
    def test_data_packet_roundtrip(self):
        pkt = QuicPacket(path_id=2, packet_number=12345, frames=[xnc_frame()], connection_id=0xABCDEF)
        data = serialize_packet(pkt)
        parsed = parse_packet(data)
        assert parsed.connection_id == 0xABCDEF
        assert parsed.packet_number == 12345
        assert len(parsed.frames) == 1
        frame = parsed.frames[0]
        assert frame.header.start_id == 5
        assert frame.payload == b"\x00\x07payload"

    def test_ack_roundtrip(self):
        ack = AckFrame(path_id=3, largest=100, ack_delay=0.0164, ranges=((98, 100), (90, 95), (0, 3)))
        pkt = QuicPacket(path_id=3, packet_number=-1, frames=[ack])
        parsed = parse_packet(serialize_packet(pkt))
        got = parsed.frames[0]
        assert got.path_id == 3
        assert got.largest == 100
        assert got.ranges == ((98, 100), (90, 95), (0, 3))
        assert got.ack_delay == pytest.approx(0.0164, abs=1e-5)

    def test_ping_and_multiple_frames(self):
        pkt = QuicPacket(0, 7, frames=[PingFrame(), xnc_frame(9, b"\x00\x01x")])
        parsed = parse_packet(serialize_packet(pkt))
        assert isinstance(parsed.frames[0], PingFrame)
        assert parsed.frames[1].header.start_id == 9

    def test_to_quic_packet(self):
        pkt = QuicPacket(1, 55, frames=[xnc_frame()], connection_id=77)
        back = parse_packet(serialize_packet(pkt)).to_quic_packet(path_id=1)
        assert back.packet_number == 55
        assert back.connection_id == 77
        assert back.path_id == 1

    def test_truncated_rejected(self):
        data = serialize_packet(QuicPacket(0, 1, frames=[PingFrame()]))
        with pytest.raises(WireError):
            parse_packet(data[:10])

    def test_wrong_header_rejected(self):
        data = bytearray(serialize_packet(QuicPacket(0, 1, frames=[PingFrame()])))
        data[0] = 0xC0  # long header
        with pytest.raises(WireError):
            parse_packet(bytes(data))

    def test_unknown_frame_rejected(self):
        data = bytearray(serialize_packet(QuicPacket(0, 1, frames=[PingFrame()])))
        data[12] = 0x99  # clobber the PING type
        with pytest.raises(WireError):
            parse_packet(bytes(data))

    def test_bad_ack_ranges_rejected(self):
        ack = AckFrame(0, 10, 0.0, ((0, 5), (4, 10)))  # overlapping/ascending
        with pytest.raises(WireError):
            serialize_packet(QuicPacket(0, 1, frames=[ack]))

    @settings(max_examples=40, deadline=None)
    @given(
        cid=st.integers(min_value=0, max_value=2 ** 64 - 1),
        pn=st.integers(min_value=0, max_value=2 ** 24 - 1),
        payload=st.binary(min_size=2, max_size=600),
        start=st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    def test_roundtrip_property(self, cid, pn, payload, start):
        frame = XncNcFrame.original(start, payload)
        pkt = QuicPacket(0, pn, frames=[frame], connection_id=cid)
        parsed = parse_packet(serialize_packet(pkt))
        assert parsed.connection_id == cid
        assert parsed.packet_number == pn
        assert parsed.frames[0].payload == payload


def make_path(pid, srtt, cwnd=20000, inflight=0):
    p = PathState(pid, cc=CongestionController())
    p.cc.cwnd = cwnd
    p.cc.bytes_in_flight = inflight
    p.rtt.update(srtt)
    return p


class TestBlest:
    def test_fast_path_preferred(self):
        sel = BlestScheduler().select([make_path(0, 0.02), make_path(1, 0.2)], 1000, 0.0)
        assert [p.path_id for p in sel] == [0]

    def test_idles_when_slow_path_blocks(self):
        fast = make_path(0, 0.02, cwnd=100_000, inflight=100_000)
        slow = make_path(1, 0.5, cwnd=4000, inflight=3800)
        assert BlestScheduler().select([fast, slow], 1000, 0.0) == []

    def test_uses_slow_path_when_harmless(self):
        fast = make_path(0, 0.05, cwnd=10_000, inflight=10_000)
        slow = make_path(1, 0.06, cwnd=50_000)
        sel = BlestScheduler().select([fast, slow], 1000, 0.0)
        assert [p.path_id for p in sel] == [1]

    def test_empty(self):
        assert BlestScheduler().select([], 1000, 0.0) == []
