"""Failure injection: adverse conditions the road will eventually produce.

Each test wires a pathological network and checks the system degrades the
way the design says it should — no crashes, no unbounded state, no
permanently wedged streams.

The timed scenarios (ACK blackout, flapping path, sustained blackout)
express their adversity as :class:`repro.faults.FaultPlan` schedules over
*clean* traces, compiled by :class:`repro.faults.FaultInjector` — the same
engine `repro run --faults` uses — instead of hand-built loss processes.
"""

from repro.core.endpoint import XncConfig, XncTunnelClient, XncTunnelServer
from repro.core.ranges import RangePolicy
from repro.emulation.emulator import MultipathEmulator
from repro.emulation.events import EventLoop
from repro.emulation.trace import LinkTrace, LossProcess, opportunities_from_rate
from repro.faults import FaultInjector, FaultPlanBuilder
from repro.multipath.path import PathManager, PathState
from repro.quic.cc.base import CongestionController


def make_trace(name, rate, duration, loss=None, base_delay=0.01):
    return LinkTrace(
        name,
        opportunities_from_rate(rate, duration),
        duration,
        base_delay=base_delay,
        loss=loss or LossProcess.zero(),
    )


def xnc_pair(loop, emu, config=None):
    received = []
    server = XncTunnelServer(loop, emu, lambda pid, d, t: received.append((pid, d, t)))
    paths = PathManager([PathState(i, cc=CongestionController()) for i in emu.path_ids()])
    client = XncTunnelClient(loop, emu, paths, config or XncConfig())
    return client, server, received


def arm_plan(loop, emu, plan):
    injector = FaultInjector(loop, emu, plan)
    injector.arm()
    return injector


class TestAckBlackout:
    """The downlink (ACK path) dies while the uplink stays perfect.

    The traces themselves are clean; an ``ack_blackout`` fault spanning
    the whole run kills the downlink on every path.
    """

    def _world(self):
        loop = EventLoop()
        duration = 30.0
        up = [make_trace("up0", 20.0, duration), make_trace("up1", 20.0, duration)]
        down = [make_trace("d0", 20.0, duration), make_trace("d1", 20.0, duration)]
        emu = MultipathEmulator(loop, up, downlink_traces=down)
        arm_plan(loop, emu, FaultPlanBuilder().ack_blackout(0.0, duration).build())
        return loop, emu

    def test_data_still_delivered(self):
        loop, emu = self._world()
        client, server, received = xnc_pair(loop, emu)
        for i in range(100):
            client.send_app_packet(b"no-acks-%03d" % i)
        loop.run_until(5.0)
        # the uplink works, so the app data arrives even with zero ACKs
        assert len({pid for pid, _d, _t in received}) == 100

    def test_spurious_recovery_bounded_by_expiry(self):
        loop, emu = self._world()
        client, server, received = xnc_pair(loop, emu)
        for i in range(100):
            client.send_app_packet(b"x" * 400)
        loop.run_until(5.0)
        # everything looks lost to the sender; it recovers each range at
        # most once (one-shot + forget), so recovery traffic is bounded
        assert client.stats.recovery_packets <= 4 * 150
        assert len(client.retrans_queue) < 120


class TestExtremeReordering:
    """Two paths with wildly different delays: massive reordering."""

    def test_all_delivered_exactly_once(self):
        loop = EventLoop()
        duration = 30.0
        fast = make_trace("fast", 15.0, duration, base_delay=0.005)
        slow = make_trace("slow", 15.0, duration, base_delay=0.300)
        emu = MultipathEmulator(loop, [fast, slow])
        client, server, received = xnc_pair(loop, emu)
        # force alternating paths via round-robin scheduling
        from repro.multipath.scheduler.roundrobin import RoundRobinScheduler
        client.scheduler = RoundRobinScheduler()
        payloads = {i: b"r%04d" % i for i in range(400)}
        for i, p in payloads.items():
            client.send_app_packet(p)
        loop.run_until(8.0)
        got = [pid for pid, _d, _t in received]
        assert sorted(got) == list(range(400))
        assert len(got) == len(set(got)), "no duplicates delivered"


class TestFlappingPath:
    """A path that dies and revives every few seconds."""

    def test_stream_survives_flapping(self):
        loop = EventLoop()
        duration = 30.0
        # path 0 alternates 2 s up / 2 s dead: blackout windows on a plan
        flappy = make_trace("flappy", 20.0, duration)
        steady = make_trace("steady", 20.0, duration)
        emu = MultipathEmulator(loop, [flappy, steady])
        plan = FaultPlanBuilder()
        for start in (2.0, 6.0, 10.0, 14.0):
            plan.blackout(start, 2.0, path_id=0)
        arm_plan(loop, emu, plan.build())
        client, server, received = xnc_pair(loop, emu)
        n = 2000
        for i in range(n):
            loop.call_later(i * 0.005, client.send_app_packet, b"f%04d" % i)
        loop.run_until(15.0)
        assert len(received) >= n * 0.97


class TestPayloadEdgeCases:
    def test_empty_payload(self):
        loop = EventLoop()
        emu = MultipathEmulator(loop, [make_trace("p", 10.0, 10.0)])
        client, server, received = xnc_pair(loop, emu)
        client.send_app_packet(b"")
        loop.run_until(1.0)
        assert received[0][1] == b""

    def test_single_byte_and_max_payloads_mixed(self):
        loop = EventLoop()
        emu = MultipathEmulator(loop, [make_trace("p", 30.0, 10.0)])
        client, server, received = xnc_pair(loop, emu)
        payloads = [b"a", bytes(1400), b"bb", bytes(1399)]
        for p in payloads:
            client.send_app_packet(p)
        loop.run_until(1.0)
        assert [d for _pid, d, _t in sorted(received)] == payloads

    def test_mixed_sizes_survive_coded_recovery(self):
        """Padding correctness: coded ranges over wildly different sizes."""
        loop = EventLoop()
        duration = 20.0
        lossy = make_trace("lossy", 20.0, duration, loss=LossProcess.constant(0.5))
        clean = make_trace("clean", 20.0, duration)
        emu = MultipathEmulator(loop, [lossy, clean], seed=3)
        client, server, received = xnc_pair(loop, emu)
        import random
        rng = random.Random(9)
        payloads = {}
        for i in range(300):
            payloads[i] = bytes(rng.getrandbits(8) for _ in range(rng.choice([1, 50, 700, 1400])))
            client.send_app_packet(payloads[i])
        loop.run_until(8.0)
        for pid, data, _t in received:
            assert data == payloads[pid], "recovered payload must be byte-exact"


class TestBurstArrival:
    def test_burst_of_packets_in_one_event(self):
        """A whole keyframe arrives in one instant (source behaviour)."""
        loop = EventLoop()
        emu = MultipathEmulator(loop, [make_trace("p", 50.0, 10.0)])
        client, server, received = xnc_pair(loop, emu)
        for i in range(200):
            client.send_app_packet(bytes(1000))
        loop.run_until(3.0)
        assert len(received) == 200


class TestMemoryBounds:
    def test_encoder_pool_bounded_under_blackout(self):
        loop = EventLoop()
        duration = 60.0
        dead = make_trace("dead", 20.0, duration)
        emu = MultipathEmulator(loop, [dead])
        arm_plan(loop, emu, FaultPlanBuilder().blackout(0.0, duration).build())
        config = XncConfig(range_policy=RangePolicy(t_expire=0.3))
        client, server, received = xnc_pair(loop, emu, config)
        for i in range(3000):
            loop.call_later(i * 0.003, client.send_app_packet, bytes(500))
        loop.run_until(15.0)
        # pool trimmed to the 2*t_expire horizon: far fewer than 3000 pooled
        pool = client.encoder._pool
        assert len(pool) < 1200
        assert sum(len(p.payload) for p in pool.values()) < 1200 * 520
