"""The fault-injection engine and the path-health state machine.

Covers plan parsing/validation, the observable effect of every fault
kind on the emulated links, the health machine's edges (including the
probe backoff schedule), the cold-start liveness regression, NAT idle
expiry and rebind, the stream watchdog, and byte-identical determinism
of whole chaos soaks.
"""

import json

import pytest

from repro.emulation.emulator import MultipathEmulator
from repro.emulation.events import EventLoop
from repro.emulation.trace import LinkTrace, LossProcess, opportunities_from_rate
from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultPlanBuilder,
    FaultPlanError,
    SoakReport,
    random_plan,
    run_chaos_soak,
)
from repro.cloud.nat import NatError, SnatTable
from repro.multipath.path import (
    ALLOWED_HEALTH_TRANSITIONS,
    HEALTH_ACTIVE,
    HEALTH_DEGRADED,
    HEALTH_PROBING,
    HEALTH_SUSPENDED,
    PathHealthConfig,
    PathHealthMonitor,
    PathManager,
    PathState,
)
from repro.obs import Telemetry
from repro.obs import trace as ev
from repro.quic.cc.base import CongestionController
from repro.sanitizer import ProtocolSanitizer, SanitizerViolation
from repro.scenarios import evaluate_oracles


def make_trace(name, rate, duration, loss=None, base_delay=0.01):
    return LinkTrace(
        name,
        opportunities_from_rate(rate, duration),
        duration,
        base_delay=base_delay,
        loss=loss or LossProcess.zero(),
    )


def two_path_world(duration=10.0, rate=20.0):
    """Clean 2-path emulator with a recording uplink sink."""
    loop = EventLoop()
    emu = MultipathEmulator(
        loop,
        [make_trace("u0", rate, duration), make_trace("u1", rate, duration)],
        downlink_traces=[make_trace("d0", rate, duration),
                         make_trace("d1", rate, duration)],
    )
    received = []
    emu.attach_server(lambda pid, payload, t: received.append((pid, payload, t)))
    return loop, emu, received


def steady_sender(loop, emu, path_id, until, interval=0.01, size=500):
    """Schedule a metronome of uplink sends on one path."""
    n = int(until / interval)
    for i in range(n):
        loop.call_later(i * interval, emu.send_uplink, path_id, ("p%d" % path_id, i), size)
    return n


class TestPlanValidation:
    def test_every_kind_constructible(self):
        for kind in FAULT_KINDS:
            duration = 0.0 if kind == "nat_rebind" else 1.0
            FaultEvent(kind, 1.0, duration)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultEvent("gremlins", 0.0, 1.0)

    def test_windowed_kind_needs_duration(self):
        with pytest.raises(FaultPlanError, match="duration must be positive"):
            FaultEvent("blackout", 0.0)

    def test_instant_kind_rejects_duration(self):
        with pytest.raises(FaultPlanError, match="instantaneous"):
            FaultEvent("nat_rebind", 0.0, 2.0)

    def test_bounds_checked(self):
        with pytest.raises(FaultPlanError):
            FaultEvent("brownout", 0.0, 1.0, severity=1.5)
        with pytest.raises(FaultPlanError):
            FaultEvent("bandwidth_cliff", 0.0, 1.0, scale=-0.1)
        with pytest.raises(FaultPlanError):
            FaultEvent("blackout", -1.0, 1.0)
        with pytest.raises(FaultPlanError):
            FaultEvent("blackout", 0.0, 1.0, direction="sideways")

    def test_json_roundtrip(self):
        plan = (FaultPlanBuilder()
                .blackout(2.0, 1.5, path_id=0)
                .rtt_spike(4.0, 2.0, delay=0.4, path_id=1)
                .nat_rebind(6.0)
                .build())
        again = FaultPlan.from_json(plan.to_json())
        assert [e.as_dict() for e in again] == [e.as_dict() for e in plan]
        assert again.horizon == plan.horizon == 6.0

    def test_json_rejects_unknown_fields(self):
        doc = {"version": 1, "events": [{"kind": "blackout", "start": 0.0,
                                         "duration": 1.0, "oops": 1}]}
        with pytest.raises(FaultPlanError, match="unknown fields"):
            FaultPlan.from_json(json.dumps(doc))

    def test_json_rejects_bad_version_and_shape(self):
        with pytest.raises(FaultPlanError, match="version"):
            FaultPlan.from_json('{"version": 99, "events": []}')
        with pytest.raises(FaultPlanError, match="events"):
            FaultPlan.from_json('[1, 2]')
        with pytest.raises(FaultPlanError, match="valid JSON"):
            FaultPlan.from_json('{nope')

    def test_events_sorted_by_start(self):
        plan = FaultPlan([FaultEvent("blackout", 5.0, 1.0),
                          FaultEvent("brownout", 1.0, 1.0, severity=0.5)])
        assert [e.start for e in plan] == [1.0, 5.0]

    def test_validate_against_path_count(self):
        plan = FaultPlanBuilder().blackout(0.0, 1.0, path_id=7).build()
        with pytest.raises(FaultPlanError, match="targets path 7"):
            plan.validate(path_count=2)

    def test_save_load(self, tmp_path):
        plan = FaultPlanBuilder().pop_handover(3.0, outage=0.2).build()
        p = tmp_path / "plan.json"
        p.write_text(plan.to_json())
        assert FaultPlan.load(str(p)).horizon == plan.horizon

    def test_random_plan_spares_last_path(self):
        plan = random_plan(3, 20.0, path_count=4)
        destructive = ("blackout", "ack_blackout", "bandwidth_cliff", "burst_loss")
        assert all(e.path_id != 3 for e in plan if e.kind in destructive)
        assert len(plan) > 0

    def test_random_plan_deterministic(self):
        a = random_plan(11, 12.0)
        b = random_plan(11, 12.0)
        assert [e.as_dict() for e in a] == [e.as_dict() for e in b]
        assert [e.as_dict() for e in random_plan(12, 12.0)] != [e.as_dict() for e in a]

    def test_default_plans_always_validate(self):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        @given(
            seed=st.integers(min_value=0, max_value=2**31),
            path_count=st.integers(min_value=1, max_value=6),
            duration=st.floats(min_value=1.5, max_value=20.0,
                               allow_nan=False),
        )
        @settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def holds(seed, path_count, duration):
            plan = random_plan(seed, duration, path_count=path_count)
            plan.validate(path_count=path_count)

        holds()


class TestFaultEffects:
    def test_blackout_stops_target_path_only(self):
        loop, emu, received = two_path_world()
        steady_sender(loop, emu, 0, 4.0)
        steady_sender(loop, emu, 1, 4.0)
        inj = FaultInjector(loop, emu,
                            FaultPlanBuilder().blackout(1.0, 2.0, path_id=0).build())
        inj.arm()
        loop.run_until(5.0)
        in_window_0 = [r for r in received if r[0] == 0 and 1.1 < r[2] < 2.9]
        in_window_1 = [r for r in received if r[0] == 1 and 1.1 < r[2] < 2.9]
        assert not in_window_0, "blacked-out path delivered inside the window"
        assert len(in_window_1) > 100, "untargeted path must keep flowing"
        # and the path comes back once the window lifts
        assert any(r[0] == 0 and r[2] > 3.2 for r in received)
        assert inj.applied == 1 and inj.lifted == 1 and inj.active_count() == 0

    def test_brownout_elevates_loss(self):
        loop, emu, received = two_path_world()
        n = steady_sender(loop, emu, 0, 4.0)
        inj = FaultInjector(
            loop, emu,
            FaultPlanBuilder().brownout(0.0, 4.0, severity=0.5, path_id=0).build())
        inj.arm()
        loop.run_until(5.0)
        got = len([r for r in received if r[0] == 0])
        assert 0.3 * n < got < 0.7 * n, "severity-0.5 brownout should drop ~half"
        assert emu.channels[0].uplink.stats.dropped_loss > 0

    def test_rtt_spike_adds_delay(self):
        loop, emu, received = two_path_world()
        steady_sender(loop, emu, 0, 4.0)
        inj = FaultInjector(
            loop, emu,
            FaultPlanBuilder().rtt_spike(2.0, 1.5, delay=0.25, path_id=0,
                                         direction="up").build())
        inj.arm()
        loop.run_until(5.0)
        # one-way delay outside the window ~ base_delay (10 ms); inside
        # the window every delivery carries the extra 250 ms
        before = [t - 0.01 * (i + 1) for (_, (tag, i), t) in received if t < 2.0]
        spiked = [r for r in received if 2.3 < r[2] < 3.0]
        assert spiked, "deliveries inside the spike window expected"
        # a packet sent at time s arrives >= s + 0.25 + base during the spike
        for _pid, (_tag, i), t in spiked:
            sent = i * 0.01
            assert t - sent >= 0.25, "spike delay missing (sent %.2f got %.2f)" % (sent, t)
        assert before, "pre-window deliveries expected"

    def test_bandwidth_cliff_throttles(self):
        loop, emu, received = two_path_world(rate=20.0)
        # offer ~500 pkt/s against ~1667 opportunities/s; a 0.05 cliff
        # leaves ~83/s of capacity, so the queue builds inside the window
        steady_sender(loop, emu, 0, 4.0, interval=0.002)
        inj = FaultInjector(
            loop, emu,
            FaultPlanBuilder().bandwidth_cliff(1.0, 2.0, scale=0.05,
                                               path_id=0).build())
        inj.arm()
        loop.run_until(6.0)
        before = len([r for r in received if r[2] < 1.0])
        in_window = len([r for r in received if 1.1 < r[2] < 2.9])
        assert in_window < 0.3 * 1.8 * before, (
            "cliff window rate should collapse (before/s %d, window %d over 1.8s)"
            % (before, in_window))
        # the backlog drains after the cliff lifts: nothing is lost
        assert len(received) == 2000

    def test_reorder_window_scrambles_order(self):
        loop, emu, received = two_path_world(rate=50.0)
        steady_sender(loop, emu, 0, 3.0, interval=0.002)
        inj = FaultInjector(
            loop, emu,
            FaultPlanBuilder().reorder(0.0, 3.0, jitter=0.05, path_id=0).build())
        inj.arm()
        loop.run_until(4.0)
        seqs = [i for (_pid, (_tag, i), _t) in received]
        assert seqs != sorted(seqs), "jitter window must produce reordering"
        assert sorted(seqs) == list(range(len(seqs))), "nothing lost, only reordered"

    def test_duplicate_window_duplicates(self):
        loop, emu, received = two_path_world()
        n = steady_sender(loop, emu, 0, 3.0)
        inj = FaultInjector(
            loop, emu,
            FaultPlanBuilder().duplicate(0.0, 3.0, prob=0.5, path_id=0).build())
        inj.arm()
        loop.run_until(4.0)
        assert len(received) > n * 1.2, "expected a healthy share of duplicates"
        assert emu.channels[0].uplink.stats.delivered > n

    def test_ack_blackout_kills_downlink_only(self):
        loop, emu, received = two_path_world()
        down = []
        emu.attach_client(lambda pid, payload, t: down.append((pid, payload, t)))
        steady_sender(loop, emu, 0, 3.0)
        for i in range(100):
            loop.call_later(i * 0.02, emu.send_downlink, 0, ("ack", i), 60)
        inj = FaultInjector(
            loop, emu,
            FaultPlanBuilder().ack_blackout(0.0, 3.0, path_id=0).build())
        inj.arm()
        loop.run_until(4.0)
        assert not down, "downlink must be dead during the ACK blackout"
        assert len(received) > 200, "uplink must be untouched"

    def test_overlapping_windows_compose_and_drain(self):
        loop, emu, received = two_path_world()
        steady_sender(loop, emu, 0, 5.0)
        plan = (FaultPlanBuilder()
                .brownout(1.0, 3.0, severity=0.3, path_id=0)
                .blackout(2.0, 1.0, path_id=0)
                .build())
        inj = FaultInjector(loop, emu, plan)
        inj.arm()
        loop.run_until(6.0)
        # total blackout inside the overlap (loss composes to 1.0)
        assert not [r for r in received if r[0] == 0 and 2.1 < r[2] < 2.9]
        # brownout continues after the blackout lifts, then everything drains
        assert [r for r in received if r[0] == 0 and 3.1 < r[2] < 3.9]
        assert inj.active_count() == 0
        assert emu.channels[0].uplink.fault is None, "overlay must drain to None"

    def test_pop_handover_blacks_out_everything_and_flushes(self):
        loop, emu, received = two_path_world()
        steady_sender(loop, emu, 0, 4.0)
        steady_sender(loop, emu, 1, 4.0)
        inj = FaultInjector(loop, emu, FaultPlanBuilder().pop_handover(2.0, outage=0.5).build())
        inj.arm()
        loop.run_until(5.0)
        assert not [r for r in received if 2.1 < r[2] < 2.4], "handover outage on all paths"
        assert any(r[2] > 3.0 for r in received), "service resumes after handover"
        assert inj.nat_flushes == 1

    def test_fault_telemetry_emitted(self):
        loop, emu, _ = two_path_world()
        tel = Telemetry()
        tel.bind_clock(loop)
        inj = FaultInjector(loop, emu,
                            FaultPlanBuilder().blackout(1.0, 1.0, path_id=0).build(),
                            telemetry=tel)
        inj.arm()
        loop.run_until(3.0)
        kinds = [(e.attrs["fault"], e.attrs["phase"]) for e in tel.trace.events(ev.FAULT)]
        assert ("blackout", "begin") in kinds and ("blackout", "end") in kinds

    def test_same_fault_seed_reproduces_byte_identical_drops(self):
        def run_once():
            loop, emu, received = two_path_world()
            steady_sender(loop, emu, 0, 4.0)
            inj = FaultInjector(
                loop, emu,
                FaultPlanBuilder().brownout(0.0, 4.0, severity=0.4, path_id=0).build(),
                seed=42)
            inj.arm()
            loop.run_until(5.0)
            return [(pid, payload, round(t, 12)) for pid, payload, t in received]

        assert run_once() == run_once()


class TestHealthStateMachine:
    def _path(self, now=0.0):
        p = PathState(0, cc=CongestionController(), initial_rtt=0.1)
        return p

    def _monitor(self, path, **cfg_overrides):
        cfg = PathHealthConfig(probe_jitter=0.0, **cfg_overrides)
        return PathHealthMonitor(PathManager([path]), config=cfg, seed=1)

    def test_active_to_degraded_on_silence(self):
        p = self._path()
        mon = self._monitor(p)
        p.on_sent(1000, 1.0)
        pto = p.rtt.pto()
        assert not mon.tick(1.0 + 2.0 * pto), "quiet but under threshold"
        moved = mon.tick(1.0 + 4.0 * pto)
        assert [(m[1], m[2]) for m in moved] == [(HEALTH_ACTIVE, HEALTH_DEGRADED)]

    def test_active_to_degraded_on_loss_ewma(self):
        p = self._path()
        mon = self._monitor(p, ewma_alpha=0.5)
        p.on_sent(1000, 0.0)
        p.on_acked([1000], [0.05], 0.05, 0.0)  # healthy baseline
        for t in range(10):
            p.on_lost(1000, 0.1 + t * 0.01)
        moved = mon.tick(0.3)
        assert [(m[1], m[2]) for m in moved] == [(HEALTH_ACTIVE, HEALTH_DEGRADED)]
        assert p.loss_ewma > 0.5

    def test_degraded_recovers_when_acks_return(self):
        p = self._path()
        mon = self._monitor(p, ewma_alpha=0.5)
        p.on_sent(1000, 0.0)
        for t in range(10):
            p.on_lost(1000, 0.1)
        mon.tick(0.2)
        assert p.health == HEALTH_DEGRADED
        for _ in range(10):
            p.on_acked([1000], [0.05], 0.3, 0.0)
        moved = mon.tick(0.35)
        assert [(m[1], m[2]) for m in moved] == [(HEALTH_DEGRADED, HEALTH_ACTIVE)]

    def test_full_suspension_probe_backoff_schedule(self):
        p = self._path()
        mon = self._monitor(p, probe_backoff_initial=0.5, probe_backoff_factor=2.0,
                            probe_backoff_max=4.0)
        p.on_sent(1000, 0.0)
        pto = p.rtt.pto()
        # degrade, then suspend after 8 PTOs of silence
        mon.tick(4.0 * pto)
        assert p.health == HEALTH_DEGRADED
        mon.tick(9.0 * pto)
        assert p.health == HEALTH_SUSPENDED
        t_susp = 9.0 * pto
        assert p.probe_next_time == pytest.approx(t_susp + 0.5)
        # probe fires at the scheduled time
        assert not mon.tick(p.probe_next_time - 1e-6)
        mon.tick(p.probe_next_time)
        assert p.health == HEALTH_PROBING and p.probe_pending
        # probe times out -> back to SUSPENDED with doubled backoff
        t0 = p.health_since
        mon.tick(t0 + 3.5 * p.rtt.pto())
        assert p.health == HEALTH_SUSPENDED
        assert p.probe_backoff == pytest.approx(1.0)
        assert p.probe_next_time == pytest.approx(p.health_since + 1.0)
        # two more failures: 2.0 then the 4.0 cap
        for expect in (2.0, 4.0):
            mon.tick(p.probe_next_time)
            assert p.health == HEALTH_PROBING
            mon.tick(p.health_since + 3.5 * p.rtt.pto())
            assert p.probe_backoff == pytest.approx(expect)
        # cap holds on yet another failure
        mon.tick(p.probe_next_time)
        mon.tick(p.health_since + 3.5 * p.rtt.pto())
        assert p.probe_backoff == pytest.approx(4.0)

    def test_probe_ack_restores_active_and_resets(self):
        p = self._path()
        mon = self._monitor(p)
        p.on_sent(1000, 0.0)
        pto = p.rtt.pto()
        mon.tick(4.0 * pto)
        mon.tick(9.0 * pto)
        mon.tick(p.probe_next_time)
        assert p.health == HEALTH_PROBING
        now = p.health_since + 0.05
        p.on_acked([1000], [0.05], now, 0.0)
        moved = mon.tick(now + 0.001)
        assert [(m[1], m[2]) for m in moved] == [(HEALTH_PROBING, HEALTH_ACTIVE)]
        assert p.loss_ewma == 0.0 and p.probe_backoff == 0.0
        assert not p.probe_pending

    def test_suspended_paths_not_usable_degraded_still_is(self):
        p = self._path()
        mon = self._monitor(p)
        p.on_sent(1000, 0.0)
        pto = p.rtt.pto()
        mon.tick(4.0 * pto)
        now = 4.0 * pto
        assert p.health == HEALTH_DEGRADED
        # degraded paths stay schedulable (modulo potentially_failed)
        p.health = HEALTH_SUSPENDED
        assert not p.is_usable(now)
        p.health = HEALTH_PROBING
        assert not p.is_usable(now)
        p.health = HEALTH_ACTIVE
        p.last_ack_time = now
        assert p.is_usable(now)

    def test_transitions_are_telemetry_visible(self):
        p = self._path()
        tel = Telemetry()
        cfg = PathHealthConfig(probe_jitter=0.0)
        mon = PathHealthMonitor(PathManager([p]), config=cfg, seed=0, telemetry=tel)
        p.on_sent(1000, 0.0)
        mon.tick(4.0 * p.rtt.pto())
        events = tel.trace.events(ev.PATH_HEALTH)
        assert events and events[0].attrs["new"] == HEALTH_DEGRADED
        assert events[0].attrs["reason"] == "ack_silence"

    def test_sanitizer_rejects_illegal_edge(self):
        san = ProtocolSanitizer()
        # legal edge passes
        san.check_path_transition(0, HEALTH_ACTIVE, HEALTH_DEGRADED,
                                  ALLOWED_HEALTH_TRANSITIONS)
        with pytest.raises(SanitizerViolation, match=r"\[path-health-edge\]"):
            san.check_path_transition(0, HEALTH_ACTIVE, HEALTH_PROBING,
                                      ALLOWED_HEALTH_TRANSITIONS)

    def test_monitor_applies_legal_edges_under_sanitizer(self):
        p = self._path()
        san = ProtocolSanitizer()
        cfg = PathHealthConfig(probe_jitter=0.0)
        mon = PathHealthMonitor(PathManager([p]), config=cfg, seed=0, sanitizer=san)
        p.on_sent(1000, 0.0)
        pto = p.rtt.pto()
        mon.tick(4.0 * pto)
        mon.tick(9.0 * pto)
        mon.tick(p.probe_next_time)
        assert p.health == HEALTH_PROBING  # no violation raised along the way


class TestColdStartRegression:
    def test_path_added_mid_run_not_instantly_failed(self):
        """A fresh path at t=100 must not be judged on silence since t=0."""
        p = PathState(3, cc=CongestionController(), initial_rtt=0.1)
        now = 100.0
        assert not p.potentially_failed(now), "never sent: cannot have failed"
        assert p.is_usable(now)
        p.on_sent(1000, now)
        assert not p.potentially_failed(now + 0.01), "just sent: silence ~0"
        # silence anchors at the first send, not t=0
        assert p.ack_silence(now + 0.5) == pytest.approx(0.5)
        # and with enough true silence it still trips
        assert p.potentially_failed(now + 10.0)

    def test_idle_path_with_everything_acked_is_quiet(self):
        p = PathState(0, cc=CongestionController(), initial_rtt=0.1)
        p.on_sent(1000, 1.0)
        p.on_acked([1000], [0.05], 1.05, 0.0)
        # nothing outstanding: silence is zero no matter how long idle
        assert p.ack_silence(50.0) == 0.0
        assert not p.potentially_failed(50.0)

    def test_never_acked_path_measures_from_first_send(self):
        p = PathState(0, cc=CongestionController(), initial_rtt=0.1)
        p.on_sent(1000, 10.0)
        p.on_sent(1000, 10.5)  # keeps sending; silence still from first send
        assert p.ack_silence(11.0) == pytest.approx(1.0)


class TestSnatIdleExpiry:
    def test_exhaustion_then_recovery_via_idle_expiry(self):
        nat = SnatTable("198.51.100.7", port_base=30000, port_count=4,
                        idle_timeout=5.0)
        for i in range(4):
            nat.translate(17, "10.64.0.%d" % (i + 2), 6000, now=float(i))
        # pool full and nothing idle long enough: allocation fails
        with pytest.raises(NatError, match="exhausted"):
            nat.translate(17, "10.64.0.99", 6000, now=4.0)
        # once entries go idle past the timeout, allocation recovers
        ip, port = nat.translate(17, "10.64.0.99", 6000, now=20.0)
        assert ip == "198.51.100.7" and 30000 <= port < 30004
        assert nat.evictions == 4
        assert len(nat) == 1

    def test_no_timeout_means_no_expiry(self):
        nat = SnatTable("198.51.100.7", port_count=2)
        nat.translate(17, "10.64.0.2", 6000, now=0.0)
        assert nat.expire_idle(1e9) == 0


class TestWatchdogAndSoak:
    def test_watchdog_declares_terminal_stall(self):
        from repro.experiments.runner import run_stream

        dead = make_trace("dead", 20.0, 30.0, loss=LossProcess.constant(1.0))
        result = run_stream("mpquic", [dead], duration=8.0, seed=1)
        # every path dead from t=0: a reliable transport can never progress.
        # (watchdog_timeout defaults to 30 s; build a tighter client here)
        assert result.packets_received == 0

    def test_watchdog_fires_with_short_timeout(self):
        loop = EventLoop()
        duration = 30.0
        dead = make_trace("dead", 20.0, duration, loss=LossProcess.constant(1.0))
        emu = MultipathEmulator(loop, [dead])
        from repro.baselines.reliable import ReliableTunnelClient
        from repro.multipath.scheduler.minrtt import MinRttScheduler

        paths = PathManager([PathState(0, cc=CongestionController())])
        client = ReliableTunnelClient(loop, emu, paths, MinRttScheduler(),
                                      watchdog_timeout=2.0)
        for i in range(50):
            client.send_app_packet(b"w%03d" % i)
        loop.run_until(10.0)
        assert client.terminal_error is not None
        assert "watchdog" in client.terminal_error
        assert client.stats.watchdog_closes == 1
        assert client.closed

    def test_watchdog_quiet_on_healthy_run(self):
        from repro.experiments.runner import run_stream

        result = run_stream("cellfusion", duration=4.0, seed=2)
        assert result.terminal_error is None
        assert result.client_stats.watchdog_closes == 0

    def test_probes_restore_suspended_path(self):
        """Blackout long enough to suspend, then the path must return."""
        loop, emu, received = two_path_world(duration=20.0)
        from repro.baselines.reliable import ReliableTunnelClient, UnorderedTunnelServer
        from repro.multipath.scheduler.minrtt import MinRttScheduler

        server = UnorderedTunnelServer(loop, emu, lambda pid, d, t: None)
        paths = PathManager([PathState(i, cc=CongestionController())
                             for i in emu.path_ids()])
        client = ReliableTunnelClient(loop, emu, paths, MinRttScheduler())
        plan = FaultPlanBuilder().blackout(1.0, 6.0, path_id=0).build()
        inj = FaultInjector(loop, emu, plan)
        inj.arm()
        for i in range(3000):
            loop.call_later(i * 0.005, client.send_app_packet, bytes(300))
        loop.run_until(16.0)
        p0 = paths.get(0)
        assert client.health.transitions > 0
        assert p0.probes_sent >= 1, "suspension must be followed by probing"
        assert client.stats.probe_packets >= 1
        assert p0.health == HEALTH_ACTIVE, (
            "path must return to service after the blackout (health=%s)" % p0.health)

    def test_chaos_soak_deterministic_and_healthy(self):
        r1 = run_chaos_soak(5, duration=5.0)
        r2 = run_chaos_soak(5, duration=5.0)
        assert isinstance(r1, SoakReport)
        assert r1.digest == r2.digest, "same seed must be byte-identical"
        assert all(v.ok for v in evaluate_oracles(r1, r1.plan))
        r3 = run_chaos_soak(6, duration=5.0)
        assert r3.digest != r1.digest, "different seed should differ"

    def test_chaos_soak_under_sanitizer(self):
        report = run_chaos_soak(2, duration=4.0, sanitize=True)
        assert all(v.ok for v in evaluate_oracles(report, report.plan))
        assert report.faults_applied >= report.faults_lifted
