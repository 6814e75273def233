"""Encode-range construction (§4.4.2) and expiry (§4.4.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ranges import (
    EncodeRange,
    LostPacket,
    RangePolicy,
    RetransmissionQueue,
    build_ranges,
)


def lp(pid, t=0.0, frame=None):
    return LostPacket(pid, t, frame)


class TestEncodeRange:
    def test_end_id_and_ids(self):
        r = EncodeRange(5, 3, 0.0)
        assert r.end_id == 8
        assert list(r.packet_ids()) == [5, 6, 7]

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            EncodeRange(0, 0, 0.0)


class TestRangePolicy:
    def test_defaults_match_paper(self):
        p = RangePolicy()
        assert p.max_packets == 10
        assert p.max_span == pytest.approx(0.060)
        assert p.t_expire == pytest.approx(0.700)

    def test_validation(self):
        with pytest.raises(ValueError):
            RangePolicy(max_packets=0)
        with pytest.raises(ValueError):
            RangePolicy(max_span=0)
        with pytest.raises(ValueError):
            RangePolicy(t_expire=-1)


class TestBuildRanges:
    def test_empty(self):
        assert build_ranges([]) == []

    def test_single_packet(self):
        ranges = build_ranges([lp(7, 1.0)])
        assert ranges == [EncodeRange(7, 1, 1.0)]

    def test_contiguous_merge(self):
        ranges = build_ranges([lp(1), lp(2), lp(3)])
        assert ranges == [EncodeRange(1, 3, 0.0)]

    def test_gap_splits(self):
        ranges = build_ranges([lp(1), lp(2), lp(5), lp(6)])
        assert [(r.start_id, r.count) for r in ranges] == [(1, 2), (5, 2)]

    def test_unsorted_input(self):
        ranges = build_ranges([lp(3), lp(1), lp(2)])
        assert ranges == [EncodeRange(1, 3, 0.0)]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            build_ranges([lp(1), lp(1)])

    def test_r_packet_border(self):
        policy = RangePolicy(max_packets=4)
        ranges = build_ranges([lp(i) for i in range(10)], policy)
        assert [(r.start_id, r.count) for r in ranges] == [(0, 4), (4, 4), (8, 2)]

    def test_t_span_border(self):
        policy = RangePolicy(max_span=0.060)
        # packets 10 ms apart: border when span reaches 60 ms
        ranges = build_ranges([lp(i, i * 0.010) for i in range(10)], policy)
        assert ranges[0].count == 6
        assert sum(r.count for r in ranges) == 10

    def test_frame_border(self):
        policy = RangePolicy(use_frame_borders=True)
        ranges = build_ranges([lp(0, 0, frame=1), lp(1, 0, frame=1), lp(2, 0, frame=2)], policy)
        assert [(r.start_id, r.count) for r in ranges] == [(0, 2), (2, 1)]

    def test_frame_border_disabled(self):
        policy = RangePolicy(use_frame_borders=False)
        ranges = build_ranges([lp(0, 0, frame=1), lp(1, 0, frame=2)], policy)
        assert len(ranges) == 1

    def test_unknown_frame_never_borders(self):
        # encrypted traffic: frame_id is None, the optional condition is off
        policy = RangePolicy(use_frame_borders=True)
        ranges = build_ranges([lp(0, 0, None), lp(1, 0, 5), lp(2, 0, None)], policy)
        assert len(ranges) == 1

    def test_last_sent_time_is_of_last_packet(self):
        ranges = build_ranges([lp(0, 1.000), lp(1, 1.020)])
        assert len(ranges) == 1
        assert ranges[0].last_sent_time == 1.020

    @settings(max_examples=50, deadline=None)
    @given(
        ids=st.sets(st.integers(min_value=0, max_value=200), min_size=1, max_size=60),
        max_packets=st.integers(min_value=1, max_value=12),
    )
    def test_partition_invariants(self, ids, max_packets):
        policy = RangePolicy(max_packets=max_packets)
        packets = [lp(i, i * 0.001) for i in sorted(ids)]
        ranges = build_ranges(packets, policy)
        covered = []
        for r in ranges:
            assert 1 <= r.count <= max_packets
            covered.extend(r.packet_ids())
        # exactly the lost ids, each exactly once, and every range contiguous
        assert sorted(covered) == sorted(ids)
        assert len(covered) == len(set(covered))


class TestRetransmissionQueue:
    def test_add_and_duplicate(self):
        q = RetransmissionQueue()
        assert q.add(lp(1, 0.0))
        assert not q.add(lp(1, 0.0))
        assert len(q) == 1

    def test_discard(self):
        q = RetransmissionQueue()
        q.add(lp(1, 0.0))
        q.discard(1)
        assert len(q) == 0
        q.discard(99)  # no-op

    def test_expire(self):
        q = RetransmissionQueue(RangePolicy(t_expire=0.5))
        q.add(lp(1, 0.0))
        q.add(lp(2, 0.4))
        stale = q.expire(now=0.6)
        assert [p.packet_id for p in stale] == [1]
        assert len(q) == 1
        assert q.expired_packets == 1

    def test_expire_boundary_is_strict(self):
        q = RetransmissionQueue(RangePolicy(t_expire=0.5))
        q.add(lp(1, 0.0))
        assert q.expire(now=0.5) == []  # age == t_expire: kept
        assert len(q) == 1
        assert [p.packet_id for p in q.expire(now=0.5 + 1e-9)] == [1]

    def test_ranges_with_expiry(self):
        q = RetransmissionQueue(RangePolicy(t_expire=0.5))
        q.add(lp(1, 0.0))
        q.add(lp(2, 1.0))
        ranges = q.ranges(now=1.1)
        assert [(r.start_id, r.count) for r in ranges] == [(2, 1)]

    def test_pop_range(self):
        q = RetransmissionQueue()
        for i in range(5):
            q.add(lp(i, 0.0))
        r = q.ranges()[0]
        popped = q.pop_range(r)
        assert len(popped) == 5
        assert len(q) == 0
