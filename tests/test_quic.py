"""QUIC substrate: varints, RTT estimation, ACK tracking, packet model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.quic.ack import AckRangeTracker, MAX_ACK_RANGES
from repro.quic.packet import QuicPacket
from repro.quic.rtt import INITIAL_RTT, RttEstimator
from repro.quic.varint import VarintError, decode_varint, encode_varint, varint_size


class TestVarint:
    def test_rfc9000_vectors(self):
        # Appendix A.1 of RFC 9000
        assert encode_varint(151288809941952652) == bytes.fromhex("c2197c5eff14e88c")
        assert encode_varint(494878333) == bytes.fromhex("9d7f3e7d")
        assert encode_varint(15293) == bytes.fromhex("7bbd")
        assert encode_varint(37) == bytes.fromhex("25")

    def test_decode_vectors(self):
        assert decode_varint(bytes.fromhex("9d7f3e7d")) == (494878333, 4)
        assert decode_varint(bytes.fromhex("25")) == (37, 1)

    def test_decode_with_offset(self):
        data = b"\x00" + encode_varint(15293)
        assert decode_varint(data, offset=1) == (15293, 2)

    def test_out_of_range(self):
        with pytest.raises(VarintError):
            encode_varint(2 ** 62)
        with pytest.raises(VarintError):
            encode_varint(-1)

    def test_truncated(self):
        with pytest.raises(VarintError):
            decode_varint(bytes.fromhex("9d7f"))
        with pytest.raises(VarintError):
            decode_varint(b"")

    def test_size_matches_encoding(self):
        for v in (0, 63, 64, 16383, 16384, 2 ** 30 - 1, 2 ** 30, 2 ** 62 - 1):
            assert varint_size(v) == len(encode_varint(v))

    @given(st.integers(min_value=0, max_value=2 ** 62 - 1))
    def test_roundtrip(self, value):
        data = encode_varint(value)
        assert decode_varint(data) == (value, len(data))


class TestRttEstimator:
    def test_initial_state(self):
        rtt = RttEstimator()
        assert rtt.smoothed_rtt == INITIAL_RTT
        assert rtt.samples == 0

    def test_first_sample_resets(self):
        rtt = RttEstimator()
        rtt.update(0.05)
        assert rtt.smoothed_rtt == pytest.approx(0.05)
        assert rtt.rtt_var == pytest.approx(0.025)
        assert rtt.min_rtt == pytest.approx(0.05)

    def test_ewma_converges(self):
        rtt = RttEstimator()
        for _ in range(100):
            rtt.update(0.08)
        assert rtt.smoothed_rtt == pytest.approx(0.08, rel=1e-3)
        assert rtt.rtt_var < 0.005

    def test_min_tracks_lowest(self):
        rtt = RttEstimator()
        for s in (0.1, 0.03, 0.2):
            rtt.update(s)
        assert rtt.min_rtt == pytest.approx(0.03)

    def test_ack_delay_subtracted_when_safe(self):
        rtt = RttEstimator()
        rtt.update(0.05)
        rtt.update(0.10, ack_delay=0.02)
        # adjusted sample is 0.08, pulling smoothed up less than raw would
        assert rtt.smoothed_rtt < 0.05 + 0.125 * (0.10 - 0.05) + 1e-9

    def test_nonpositive_sample_ignored(self):
        rtt = RttEstimator()
        rtt.update(0.0)
        rtt.update(-1.0)
        assert rtt.samples == 0

    def test_pto_grows_with_variance(self):
        stable = RttEstimator()
        jittery = RttEstimator()
        for i in range(50):
            stable.update(0.05)
            jittery.update(0.05 + (0.04 if i % 2 else -0.02))
        assert jittery.pto() > stable.pto()

    def test_invalid_initial(self):
        with pytest.raises(ValueError):
            RttEstimator(initial_rtt=0)


class TestAckRangeTracker:
    def test_single_range_growth(self):
        t = AckRangeTracker(0)
        for pn in range(5):
            assert t.on_received(pn, now=pn * 0.01)
        ack = t.build_ack(now=0.05)
        assert ack.ranges == ((0, 4),)
        assert ack.largest == 4

    def test_duplicate_detection(self):
        t = AckRangeTracker(0)
        assert t.on_received(3, 0.0)
        assert not t.on_received(3, 0.1)

    def test_gap_creates_ranges(self):
        t = AckRangeTracker(0)
        for pn in (0, 1, 5, 6):
            t.on_received(pn, 0.0)
        ack = t.build_ack(0.0)
        assert ack.ranges == ((5, 6), (0, 1))

    def test_gap_fill_merges(self):
        t = AckRangeTracker(0)
        for pn in (0, 2):
            t.on_received(pn, 0.0)
        assert len(t.build_ack(0.0, force=True).ranges) == 2
        t.on_received(1, 0.0)
        assert len(t.build_ack(0.0, force=True).ranges) == 1

    def test_out_of_order_arrival(self):
        t = AckRangeTracker(0)
        for pn in (5, 1, 3, 2, 4, 0):
            t.on_received(pn, 0.0)
        assert t.build_ack(0.0).ranges == ((0, 5),)

    def test_no_ack_without_new_data(self):
        t = AckRangeTracker(0)
        t.on_received(0, 0.0)
        assert t.build_ack(0.0) is not None
        assert t.build_ack(0.0) is None  # nothing new
        assert t.build_ack(0.0, force=True) is not None

    def test_ack_delay_reflects_largest_arrival(self):
        t = AckRangeTracker(0)
        t.on_received(7, now=1.0)
        ack = t.build_ack(now=1.03)
        assert ack.ack_delay == pytest.approx(0.03)

    def test_range_cap(self):
        t = AckRangeTracker(0)
        for pn in range(0, MAX_ACK_RANGES * 4, 2):  # all isolated
            t.on_received(pn, 0.0)
        ack = t.build_ack(0.0)
        assert len(ack.ranges) == MAX_ACK_RANGES
        # newest first
        assert ack.ranges[0][1] == ack.largest

    def test_negative_pn_rejected(self):
        with pytest.raises(ValueError):
            AckRangeTracker(0).on_received(-1, 0.0)

    @given(st.sets(st.integers(min_value=0, max_value=300), min_size=1, max_size=80))
    def test_ranges_cover_exactly_received(self, pns):
        t = AckRangeTracker(0)
        for pn in pns:
            t.on_received(pn, 0.0)
        ack = t.build_ack(0.0, force=True)
        covered = set()
        for low, high in ack.ranges:
            assert low <= high
            covered.update(range(low, high + 1))
        if len(ack.ranges) < MAX_ACK_RANGES:
            assert covered == pns


class TestQuicPacket:
    def test_uids_unique(self):
        a = QuicPacket(0, 1)
        b = QuicPacket(0, 2)
        assert a.uid != b.uid
