"""Runtime protocol sanitizer: every invariant check, the env hook, and
the range-lifecycle edge cases the checks guard.

Each ``check_*`` gets a positive case (legal protocol state passes) and a
negative case (the violation raises :class:`SanitizerViolation` naming
the invariant), plus end-to-end runs with the sanitizer armed so the
threading through the real endpoints is exercised on live traffic.
"""

import numpy as np
import pytest

from repro.core.endpoint import XncConfig, XncTunnelClient, XncTunnelServer
from repro.core.ranges import EncodeRange, LostPacket, RangePolicy, RetransmissionQueue
from repro.core.recovery import (
    PathAllocation,
    PathBudget,
    RecoveryPlan,
    RecoveryPolicy,
    coded_packet_count,
    plan_recovery,
)
from repro.core.rlnc import RlncDecoder, RlncEncoder
from repro.emulation.emulator import MultipathEmulator
from repro.emulation.events import EventLoop
from repro.emulation.trace import LinkTrace, LossProcess, opportunities_from_rate
from repro.multipath.path import PathManager, PathState
from repro.quic.cc.base import CongestionController
from repro.sanitizer import (
    NULL_SANITIZER,
    NullSanitizer,
    ProtocolSanitizer,
    SanitizerViolation,
    env_enabled,
    reset_totals,
    sanitizer_or_default,
    totals,
)


class FakeCc:
    def __init__(self, inflight=0, cwnd=12000):
        self.bytes_in_flight = inflight
        self.cwnd = cwnd


class FakePath:
    def __init__(self, path_id, inflight=0, cwnd=12000, usable=True,
                 next_pn=0, window=True):
        self.path_id = path_id
        self.cc = FakeCc(inflight, cwnd)
        self._usable = usable
        self._window = window
        self._next_packet_number = next_pn

    def is_usable(self, now):
        return self._usable

    def can_send(self, size):
        return self._window


def build_xnc_world(loss_probs=None, n_paths=2, seed=0, config=None, sanitize=True):
    """A real two-path XNC tunnel over the emulator, sanitizer armed."""
    loop = EventLoop()
    traces = []
    for i in range(n_paths):
        loss = LossProcess.constant(loss_probs[i]) if loss_probs else LossProcess.zero()
        traces.append(LinkTrace("p%d" % i, opportunities_from_rate(20.0, 30.0),
                                30.0, base_delay=0.01, loss=loss))
    emu = MultipathEmulator(loop, traces, seed=seed)
    paths = PathManager([PathState(i, cc=CongestionController()) for i in range(n_paths)])
    received = []
    server = XncTunnelServer(loop, emu, lambda pid, data, t: received.append((pid, data, t)),
                             sanitizer=sanitize)
    client = XncTunnelClient(loop, emu, paths, config or XncConfig(), sanitizer=sanitize)
    return loop, emu, client, server, received


class TestNullSanitizer:
    def test_disabled_and_inert(self):
        assert NULL_SANITIZER.enabled is False
        # every check is a no-op even on garbage arguments
        NULL_SANITIZER.check_transmit(None, -1, -1)
        NULL_SANITIZER.check_scheduler_targets(None, 0, 0.0)
        NULL_SANITIZER.check_ack_plausible(None, 10 ** 9)
        NULL_SANITIZER.check_ranges(None, None)
        NULL_SANITIZER.check_queue_post_expire(None, 0.0, 0.0)
        NULL_SANITIZER.check_plan(0, None, None)
        NULL_SANITIZER.check_range_recovery(None, 0.0, 0.0)
        NULL_SANITIZER.check_decode_complete(None)

    def test_same_interface_as_live(self):
        live = {m for m in dir(ProtocolSanitizer) if m.startswith("check_")}
        null = {m for m in dir(NullSanitizer) if m.startswith("check_")}
        assert live == null


class TestEnvHookAndResolution:
    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off", "OFF"])
    def test_falsy_spellings(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert not env_enabled()
        assert sanitizer_or_default(None) is NULL_SANITIZER

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_truthy_spellings(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert env_enabled()
        san = sanitizer_or_default(None, label="x")
        assert isinstance(san, ProtocolSanitizer) and san.label == "x"

    def test_unset_means_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitizer_or_default(None) is NULL_SANITIZER

    def test_explicit_bool_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitizer_or_default(False) is NULL_SANITIZER
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert isinstance(sanitizer_or_default(True), ProtocolSanitizer)

    def test_instance_passes_through(self):
        shared = ProtocolSanitizer(label="shared")
        assert sanitizer_or_default(shared) is shared

    def test_totals_accumulate(self):
        reset_totals()
        san = ProtocolSanitizer()
        san.check_path_transition(0, "a", "b", frozenset({("a", "b")}))
        with pytest.raises(SanitizerViolation):
            san.check_path_transition(0, "b", "a", frozenset())
        t = totals()
        assert t["checks"] == 2 and t["violations"] == 1
        assert san.checks_run == 2
        reset_totals()


class TestTransmitInvariants:
    def test_monotonic_pns_pass(self):
        san = ProtocolSanitizer()
        path = FakePath(0)
        for pn in (0, 1, 5):
            san.check_transmit(path, pn, 100)

    def test_pn_regression_raises(self):
        san = ProtocolSanitizer()
        path = FakePath(0)
        san.check_transmit(path, 3, 100)
        with pytest.raises(SanitizerViolation, match=r"\[pn-monotonic\]"):
            san.check_transmit(path, 3, 100)

    def test_number_spaces_are_per_path(self):
        san = ProtocolSanitizer()
        san.check_transmit(FakePath(0), 5, 100)
        san.check_transmit(FakePath(1), 5, 100)  # same pn, other path: fine

    def test_window_breach_raises(self):
        san = ProtocolSanitizer()
        path = FakePath(0, inflight=13000, cwnd=12000)
        with pytest.raises(SanitizerViolation, match=r"\[inflight-cwnd\]"):
            san.check_transmit(path, 0, 500)

    def test_window_edge_straddle_allowed(self):
        # one packet may straddle the edge: inflight - size <= cwnd
        san = ProtocolSanitizer()
        path = FakePath(0, inflight=12400, cwnd=12000)
        san.check_transmit(path, 0, 500)

    def test_undisciplined_clients_opt_out(self):
        san = ProtocolSanitizer()
        path = FakePath(0, inflight=50000, cwnd=12000)
        san.check_transmit(path, 0, 500, window_disciplined=False)


class TestSchedulerContract:
    def test_valid_targets_pass(self):
        ProtocolSanitizer().check_scheduler_targets(
            [FakePath(0), FakePath(1)], 100, 1.0)

    def test_duplicate_path_raises(self):
        p = FakePath(0)
        with pytest.raises(SanitizerViolation, match=r"\[scheduler-distinct\]"):
            ProtocolSanitizer().check_scheduler_targets([p, p], 100, 1.0)

    def test_unusable_path_raises(self):
        with pytest.raises(SanitizerViolation, match=r"\[scheduler-usable\]"):
            ProtocolSanitizer().check_scheduler_targets(
                [FakePath(0, usable=False)], 100, 1.0)

    def test_windowless_path_raises(self):
        with pytest.raises(SanitizerViolation, match=r"\[scheduler-window\]"):
            ProtocolSanitizer().check_scheduler_targets(
                [FakePath(0, window=False)], 100, 1.0)


class TestAckPlausibility:
    def test_acked_sent_passes(self):
        ProtocolSanitizer().check_ack_plausible(FakePath(0, next_pn=4), 3)

    def test_ack_of_unsent_raises(self):
        with pytest.raises(SanitizerViolation, match=r"\[ack-unsent\]"):
            ProtocolSanitizer().check_ack_plausible(FakePath(0, next_pn=4), 4)


class TestRangeChecks:
    def test_legal_ranges_pass(self):
        ProtocolSanitizer().check_ranges(
            [EncodeRange(0, 5, 1.0), EncodeRange(5, 3, 1.1)], RangePolicy())

    def test_r_cap_breach_raises(self):
        with pytest.raises(SanitizerViolation, match=r"\[range-rcap\]"):
            ProtocolSanitizer().check_ranges(
                [EncodeRange(0, 11, 1.0)], RangePolicy(max_packets=10))

    def test_overlap_raises(self):
        with pytest.raises(SanitizerViolation, match=r"\[range-disjoint\]"):
            ProtocolSanitizer().check_ranges(
                [EncodeRange(0, 5, 1.0), EncodeRange(3, 2, 1.0)], RangePolicy())

    def test_post_expire_completeness(self):
        san = ProtocolSanitizer()
        fresh = [LostPacket(0, 1.0)]
        san.check_queue_post_expire(fresh, now=1.5, t_expire=0.7)
        stale = [LostPacket(1, 0.0)]
        with pytest.raises(SanitizerViolation, match=r"\[expire-complete\]"):
            san.check_queue_post_expire(stale, now=1.0, t_expire=0.7)


class TestPlanBudget:
    POLICY = RecoveryPolicy()

    def test_planner_output_passes(self):
        budgets = [PathBudget(0, 6), PathBudget(1, 6)]
        plan = plan_recovery(5, budgets, self.POLICY)
        ProtocolSanitizer().check_plan(5, plan, self.POLICY)

    def test_wrong_n_raises(self):
        plan = plan_recovery(5, [PathBudget(0, 10)], self.POLICY)
        with pytest.raises(SanitizerViolation, match=r"\[plan-n\]"):
            ProtocolSanitizer().check_plan(4, plan, self.POLICY)

    def test_nprime_budget_enforced_independently(self):
        # a hand-built plan claiming n' = n + 2 must trip the recomputation
        plan = RecoveryPlan(5, 7, (PathAllocation(0, 7),))
        with pytest.raises(SanitizerViolation, match=r"\[plan-nprime\]"):
            ProtocolSanitizer().check_plan(5, plan, self.POLICY)

    def test_rho_cap_breach_raises(self):
        # n = 5 -> n' = 8; one path carrying 9 >= 1.1 * 8 = 8.8
        plan = RecoveryPlan(5, 8, (PathAllocation(0, 9),))
        with pytest.raises(SanitizerViolation, match=r"\[plan-rho-cap\]"):
            ProtocolSanitizer().check_plan(5, plan, self.POLICY)

    def test_zero_allocation_raises(self):
        plan = RecoveryPlan(5, 8, (PathAllocation(0, 8), PathAllocation(1, 0)))
        with pytest.raises(SanitizerViolation, match=r"\[plan-alloc-positive\]"):
            ProtocolSanitizer().check_plan(5, plan, self.POLICY)

    def test_single_loss_multi_copy_per_path_raises(self):
        plan = RecoveryPlan(1, 1, (PathAllocation(0, 2),))
        with pytest.raises(SanitizerViolation, match=r"\[plan-single\]"):
            ProtocolSanitizer().check_plan(1, plan, self.POLICY)

    def test_underfilled_shot_raises(self):
        plan = RecoveryPlan(5, 8, (PathAllocation(0, 4), PathAllocation(1, 3)))
        with pytest.raises(SanitizerViolation, match=r"\[plan-budget\]"):
            ProtocolSanitizer().check_plan(5, plan, self.POLICY)


class TestRecoveryLifecycle:
    def test_fresh_range_recovers_once(self):
        san = ProtocolSanitizer()
        san.check_range_recovery(EncodeRange(0, 5, 1.0), now=1.2, t_expire=0.7)

    def test_re_recovery_raises(self):
        san = ProtocolSanitizer()
        san.check_range_recovery(EncodeRange(0, 5, 1.0), now=1.2, t_expire=0.7)
        # any overlap with an already-recovered packet is a lifecycle bug
        with pytest.raises(SanitizerViolation, match=r"\[recover-once\]"):
            san.check_range_recovery(EncodeRange(4, 2, 1.3), now=1.4, t_expire=0.7)

    def test_disjoint_ranges_fine(self):
        san = ProtocolSanitizer()
        san.check_range_recovery(EncodeRange(0, 5, 1.0), now=1.2, t_expire=0.7)
        san.check_range_recovery(EncodeRange(5, 5, 1.3), now=1.4, t_expire=0.7)

    def test_expired_recovery_raises(self):
        san = ProtocolSanitizer()
        with pytest.raises(SanitizerViolation, match=r"\[recover-expired\]"):
            san.check_range_recovery(EncodeRange(0, 5, 0.0), now=0.71, t_expire=0.7)

    def test_exactly_t_expire_is_still_fresh(self):
        # §4.4.3 is strict: a range expires strictly *after* t_expire
        san = ProtocolSanitizer()
        san.check_range_recovery(EncodeRange(0, 5, 0.0), now=0.7, t_expire=0.7)


class FakeRangeDecoder:
    def __init__(self, start_id, count, pivots):
        self.start_id = start_id
        self.count = count
        self._pivots = pivots


def identity_pivots(count):
    return {col: (np.eye(count, dtype=np.uint8)[col], np.zeros(4, dtype=np.uint8))
            for col in range(count)}


class TestDecodeCompletion:
    def test_full_rank_rref_passes(self):
        ProtocolSanitizer().check_decode_complete(
            FakeRangeDecoder(0, 3, identity_pivots(3)))

    def test_rank_deficit_raises(self):
        pivots = identity_pivots(3)
        del pivots[2]
        with pytest.raises(SanitizerViolation, match=r"\[decode-rank\]"):
            ProtocolSanitizer().check_decode_complete(FakeRangeDecoder(0, 3, pivots))

    def test_wrong_pivot_columns_raise(self):
        pivots = identity_pivots(3)
        pivots[5] = pivots.pop(2)
        with pytest.raises(SanitizerViolation, match=r"\[decode-pivots\]"):
            ProtocolSanitizer().check_decode_complete(FakeRangeDecoder(0, 3, pivots))

    def test_non_unit_pivot_row_raises(self):
        pivots = identity_pivots(3)
        vec, row = pivots[1]
        vec[2] = 7  # stray off-diagonal coefficient: elimination incomplete
        with pytest.raises(SanitizerViolation, match=r"\[decode-rref\]"):
            ProtocolSanitizer().check_decode_complete(FakeRangeDecoder(0, 3, pivots))

    def test_live_decoder_roundtrip_with_sanitizer(self):
        """A real coded-only decode passes the Theorem 4.1 check."""
        san = ProtocolSanitizer()
        enc = RlncEncoder()
        payloads = [bytes([i]) * (20 + i) for i in range(5)]
        for i, p in enumerate(payloads):
            enc.register(i, p)
        dec = RlncDecoder(sanitizer=san)
        delivered = {}
        for seed in range(101, 101 + 5 + 3):
            for pid, data in dec.push(0, 5, seed, enc.encode(0, 5, seed)):
                delivered[pid] = data
        assert delivered == dict(enumerate(payloads))
        assert san.checks_run >= 1 and san.violations == 0


class TestRangeLifecycleEdges:
    """Satellite: the queue-level edge cases the sanitizer guards."""

    def test_expiry_at_exactly_t_expire_keeps_packet(self):
        q = RetransmissionQueue(RangePolicy(), sanitizer=ProtocolSanitizer())
        q.add(LostPacket(0, sent_time=0.0))
        assert q.expire(0.700) == []  # age == t_expire: still recoverable
        assert len(q) == 1
        stale = q.expire(0.700 + 1e-6)
        assert [p.packet_id for p in stale] == [0]
        assert len(q) == 0 and q.expired_packets == 1

    def test_frame_boundary_creates_border(self):
        q = RetransmissionQueue(RangePolicy(), sanitizer=ProtocolSanitizer())
        q.add(LostPacket(0, 0.0, frame_id=1))
        q.add(LostPacket(1, 0.001, frame_id=1))
        q.add(LostPacket(2, 0.002, frame_id=2))
        assert [(r.start_id, r.count) for r in q.ranges()] == [(0, 2), (2, 1)]

    def test_frame_borders_disabled_merges(self):
        q = RetransmissionQueue(RangePolicy(use_frame_borders=False),
                                sanitizer=ProtocolSanitizer())
        q.add(LostPacket(0, 0.0, frame_id=1))
        q.add(LostPacket(1, 0.001, frame_id=1))
        q.add(LostPacket(2, 0.002, frame_id=2))
        assert [(r.start_id, r.count) for r in q.ranges()] == [(0, 3)]

    def test_unknown_frame_id_never_borders(self):
        q = RetransmissionQueue(RangePolicy(), sanitizer=ProtocolSanitizer())
        q.add(LostPacket(0, 0.0, frame_id=1))
        q.add(LostPacket(1, 0.001, frame_id=None))  # encrypted user traffic
        q.add(LostPacket(2, 0.002, frame_id=2))
        assert [(r.start_id, r.count) for r in q.ranges()] == [(0, 3)]

    def test_delay_boundary_window_below_n_prime(self):
        # n = 5 -> n' = 8; b = 7 must delay, b = 8 must plan
        assert plan_recovery(5, [PathBudget(0, 3), PathBudget(1, 4)]) is None
        plan = plan_recovery(5, [PathBudget(0, 4), PathBudget(1, 4)])
        assert plan is not None and plan.total_packets >= coded_packet_count(5)
        ProtocolSanitizer().check_plan(5, plan, RecoveryPolicy())

    def test_endpoint_delays_then_recovers_under_sanitizer(self):
        """Delayed-recovery path end to end: b < n' leaves the range
        queued (no shot, no lifecycle record); once windows allow, the
        shot executes exactly once and the range is forgotten."""
        loop, emu, client, server, received = build_xnc_world()
        for i in range(6):
            client.send_app_packet(b"v" * 200, frame_id=0)
        # the loop never runs: nothing is delivered or ACKed, so the
        # encoder pool still holds every original (as it would for a
        # genuinely lost packet)
        now = loop.now
        for pid in range(5):
            client.retrans_queue.add(LostPacket(pid, now))

        client._path_budgets = lambda t: [PathBudget(0, 3), PathBudget(1, 4)]
        client._attempt_recoveries(now)
        assert client.recoveries_delayed == 1
        assert client.recoveries_executed == 0
        assert len(client.retrans_queue) == 5  # range retained, not popped

        client._path_budgets = lambda t: [PathBudget(0, 4), PathBudget(1, 4)]
        client._attempt_recoveries(now)
        assert client.recoveries_executed == 1
        assert len(client.retrans_queue) == 0  # one-shot: range forgotten
        assert all(client._app_meta[pid].forgotten for pid in range(5))
        assert client.sanitizer.violations == 0


class TestEndToEndWithSanitizer:
    def test_lossy_xnc_run_passes_all_checks(self):
        """Recoveries, decodes, expiries — all on, all checked."""
        loop, emu, client, server, received = build_xnc_world(
            loss_probs=[0.05, 0.02], seed=3)
        for i in range(400):
            client.send_app_packet(b"v" * 600, frame_id=i // 10)
        loop.run_until(5.0)
        assert client.recoveries_executed > 0
        assert client.sanitizer.checks_run > 0
        assert client.sanitizer.violations == 0
        assert server.sanitizer.violations == 0

    def test_run_stream_sanitize_flag(self):
        from repro.experiments.runner import run_stream
        from repro.video.source import VideoConfig

        reset_totals()
        result = run_stream("cellfusion", duration=2.0, seed=1,
                            video=VideoConfig(bitrate_mbps=6.0), sanitize=True)
        assert result.frames_sent > 0
        t = totals()
        assert t["checks"] > 0 and t["violations"] == 0
        reset_totals()

    def test_violation_message_carries_context(self):
        san = ProtocolSanitizer(label="client-0")
        path = FakePath(2)
        san.check_transmit(path, 9, 100)
        with pytest.raises(SanitizerViolation) as exc:
            san.check_transmit(path, 7, 100)
        msg = str(exc.value)
        assert "[pn-monotonic]" in msg and "path=2" in msg
        assert exc.value.context["pn"] == 7
        assert exc.value.context["last_pn"] == 9
        assert exc.value.context["endpoint"] == "client-0"
