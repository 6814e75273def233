"""Cross-cutting property-based tests on core invariants (hypothesis)."""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.coefficients import coefficient_vector
from repro.core.gf256 import gf_matrix_rank
from repro.core.ranges import LostPacket, RangePolicy, RetransmissionQueue
from repro.core.recovery import PathBudget, RecoveryPolicy, plan_recovery
from repro.core.rlnc import RlncDecoder, RlncEncoder
from repro.emulation.events import EventLoop
from repro.quic.ack import AckRangeTracker
from repro.video.qoe import analyze_qoe
from repro.video.receiver import FrameRecord

slow = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestCodingPipelineProperties:
    @slow
    @given(
        packet_sizes=st.lists(st.integers(min_value=0, max_value=1400), min_size=2, max_size=10),
        drop_mask=st.integers(min_value=1, max_value=1023),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_any_loss_pattern_recoverable(self, packet_sizes, drop_mask, seed):
        """For any payload-size mix and any loss pattern, n' = n + 3 coded
        packets decode the entire range."""
        rng = random.Random(seed)
        n = len(packet_sizes)
        payloads = [bytes(rng.getrandbits(8) for _ in range(s)) for s in packet_sizes]
        enc = RlncEncoder()
        dec = RlncDecoder()
        delivered = {}
        for i, p in enumerate(payloads):
            enc.register(i, p)
            if drop_mask & (1 << i):
                continue  # lost
            for pid, data in dec.push(i, 1, 0, enc.encode(i, 1, 0)):
                delivered[pid] = data
        for j in range(n + 3):
            s = rng.randrange(1, 2 ** 32)
            for pid, data in dec.push(0, n, s, enc.encode(0, n, s)):
                delivered[pid] = data
        assert delivered == {i: p for i, p in enumerate(payloads)}

    @slow
    @given(
        n=st.integers(min_value=2, max_value=16),
        seeds=st.lists(st.integers(min_value=1, max_value=2 ** 32 - 1), min_size=24, max_size=24, unique=True),
    )
    def test_coefficient_matrices_reach_full_rank(self, n, seeds):
        """Enough distinct seeds always span the range (ratelessness)."""
        rows = [coefficient_vector(s, n) for s in seeds]
        assert gf_matrix_rank(np.array(rows, dtype=np.uint8)) == n


class TestQueueProperties:
    @slow
    @given(
        ids=st.sets(st.integers(min_value=0, max_value=500), min_size=1, max_size=80),
        r=st.integers(min_value=1, max_value=15),
    )
    def test_pop_all_ranges_empties_queue(self, ids, r):
        q = RetransmissionQueue(RangePolicy(max_packets=r))
        for pid in ids:
            q.add(LostPacket(pid, 0.0))
        popped = []
        for rng_ in q.ranges():
            popped.extend(p.packet_id for p in q.pop_range(rng_))
        assert sorted(popped) == sorted(ids)
        assert len(q) == 0


class TestRecoveryPlanProperties:
    @slow
    @given(
        n=st.integers(min_value=2, max_value=40),
        windows=st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=8),
        mode=st.sampled_from(["proportional_capped", "exact", "flood"]),
    )
    def test_no_path_overcommitted(self, n, windows, mode):
        policy = RecoveryPolicy(spread_mode=mode)
        budgets = [PathBudget(i, w) for i, w in enumerate(windows)]
        plan = plan_recovery(n, budgets, policy)
        if plan is None:
            assert sum(windows) < n + policy.extra_packets
            return
        for a in plan.allocations:
            assert 0 < a.packets <= windows[a.path_id]
        assert plan.total_packets >= plan.n_coded


class TestAckTrackerProperties:
    @slow
    @given(st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=200))
    def test_duplicate_count_exact(self, pns):
        t = AckRangeTracker(0)
        fresh = 0
        for pn in pns:
            if t.on_received(pn, 0.0):
                fresh += 1
        assert fresh == len(set(pns))
        assert t.largest == max(pns)


class TestQoeProperties:
    def _frames(self, completion_flags, fps=30.0):
        out = []
        for i, done in enumerate(completion_flags):
            rec = FrameRecord(i, i / fps, keyframe=(i % 30 == 0), expected_packets=10)
            if done:
                rec.received_packets = 10
                rec.complete_time = i / fps + 0.04
            out.append(rec)
        return out

    @slow
    @given(st.lists(st.booleans(), min_size=10, max_size=200))
    def test_metrics_bounded(self, flags):
        report = analyze_qoe(self._frames(flags), fps=30.0, duration=len(flags) / 30.0)
        assert 0.0 <= report.stall_ratio <= 1.0
        assert 0.0 <= report.ssim <= 1.0
        assert 0.0 <= report.avg_fps <= 31.0
        assert report.decoded_frames + report.corrupt_frames + report.missing_frames == len(flags)

    @slow
    @given(st.lists(st.booleans(), min_size=20, max_size=120))
    def test_more_completion_never_hurts_fps(self, flags):
        base = analyze_qoe(self._frames(flags), 30.0, len(flags) / 30.0)
        improved_flags = [True] * len(flags)
        improved = analyze_qoe(self._frames(improved_flags), 30.0, len(flags) / 30.0)
        assert improved.avg_fps >= base.avg_fps
        assert improved.ssim >= base.ssim - 1e-9
        assert improved.stall_ratio <= base.stall_ratio + 1e-9


class TestEventLoopProperties:
    @slow
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=100))
    def test_execution_order_is_time_order(self, times):
        loop = EventLoop()
        fired = []
        for t in times:
            loop.schedule(t, fired.append, t)
        loop.run_until(100.0)
        assert fired == sorted(fired)
        assert len(fired) == len(times)
