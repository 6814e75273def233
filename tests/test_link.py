"""Trace-driven link emulation: delivery, queueing, loss, delay spikes."""

import numpy as np
import pytest

from repro.emulation.events import EventLoop
from repro.emulation.link import EmulatedLink
from repro.emulation.trace import LinkTrace, LossProcess, MTU_BYTES, opportunities_from_rate


def make_link(loop, rate_mbps=10.0, duration=10.0, base_delay=0.01, loss=None, limit=2_000_000, seed=0):
    trace = LinkTrace(
        "test",
        opportunities_from_rate(rate_mbps, duration),
        duration,
        base_delay=base_delay,
        loss=loss or LossProcess.zero(),
    )
    arrivals = []
    link = EmulatedLink(loop, trace, lambda payload, t: arrivals.append((payload, t)),
                        queue_limit_bytes=limit, seed=seed)
    return link, arrivals


class TestDelivery:
    def test_single_packet_arrives_with_delay(self):
        loop = EventLoop()
        link, arrivals = make_link(loop, base_delay=0.05)
        link.send("pkt", 1000)
        loop.run_until(1.0)
        assert len(arrivals) == 1
        payload, t = arrivals[0]
        assert payload == "pkt"
        assert t >= 0.05

    def test_throughput_matches_trace_rate(self):
        loop = EventLoop()
        link, arrivals = make_link(loop, rate_mbps=12.0, duration=5.0)
        # offer 2x the link rate for 2 seconds
        def offer():
            if loop.now < 2.0:
                link.send(loop.now, MTU_BYTES)
                link.send(loop.now, MTU_BYTES)
                loop.call_later(0.001, offer)
        loop.call_later(0.0, offer)
        loop.run_until(2.0)
        expected = 12e6 / 8 / MTU_BYTES * 2.0  # pkts in 2s
        assert link.stats.delivered + len(link._queue) == pytest.approx(expected * 2, rel=0.5)
        assert link.stats.delivered <= expected * 1.1

    def test_fifo_order(self):
        loop = EventLoop()
        link, arrivals = make_link(loop)
        for i in range(10):
            link.send(i, 500)
        loop.run_until(1.0)
        assert [p for p, _t in arrivals] == list(range(10))

    def test_queue_limit_drops(self):
        loop = EventLoop()
        link, arrivals = make_link(loop, limit=3000)
        assert link.send("a", 1500)
        assert link.send("b", 1500)
        assert not link.send("c", 1500)  # over limit
        assert link.stats.dropped_queue == 1

    def test_invalid_size(self):
        loop = EventLoop()
        link, _ = make_link(loop)
        with pytest.raises(ValueError):
            link.send("x", 0)


class TestLoss:
    def test_certain_loss(self):
        loop = EventLoop()
        link, arrivals = make_link(loop, loss=LossProcess.constant(1.0))
        for i in range(20):
            link.send(i, 1000)
        loop.run_until(2.0)
        assert arrivals == []
        assert link.stats.dropped_loss == 20

    def test_statistical_loss(self):
        loop = EventLoop()
        link, arrivals = make_link(loop, rate_mbps=50.0, loss=LossProcess.constant(0.3), seed=7)
        for i in range(2000):
            link.send(i, 1000)
        loop.run_until(10.0)
        rate = link.stats.loss_rate
        assert 0.2 < rate < 0.4

    def test_loss_disabled(self):
        loop = EventLoop()
        trace = LinkTrace("t", opportunities_from_rate(50.0, 5.0), 5.0, loss=LossProcess.constant(1.0))
        arrivals = []
        link = EmulatedLink(loop, trace, lambda p, t: arrivals.append(p), loss_enabled=False)
        link.send("x", 1000)
        loop.run_until(1.0)
        assert arrivals == ["x"]


class TestOutageBehaviour:
    def _outage_trace(self):
        """10 Mbps for 1 s, dead for 2 s, then 10 Mbps again."""
        duration = 6.0
        times = np.array([0.0, 1.0, 3.0])
        caps = np.array([10.0, 0.0, 10.0])
        from repro.emulation.trace import opportunities_from_capacity
        opps = opportunities_from_capacity(times, caps, duration)
        return LinkTrace("outage", opps, duration, base_delay=0.01)

    def test_delay_spike_emerges_from_outage(self):
        """Fig. 3(c): packets queued across a dead spot see seconds of delay."""
        loop = EventLoop()
        arrivals = []
        link = EmulatedLink(loop, self._outage_trace(), lambda p, t: arrivals.append((p, t)))
        def offer():
            if loop.now < 2.0:
                link.send(loop.now, MTU_BYTES)
                loop.call_later(0.01, offer)
        loop.call_later(0.0, offer)
        loop.run_until(6.0)
        delays = [t - sent for sent, t in arrivals]
        assert max(delays) > 1.0  # queued across the outage

    def test_looping_beyond_duration(self):
        loop = EventLoop()
        trace = LinkTrace("short", opportunities_from_rate(10.0, 1.0), 1.0, base_delay=0.0)
        arrivals = []
        link = EmulatedLink(loop, trace, lambda p, t: arrivals.append(t))
        loop.run_until(2.5)  # past the trace duration
        link.send("late", 1000)
        loop.run_until(4.0)
        assert len(arrivals) == 1
        assert arrivals[0] >= 2.5

    def test_dead_trace_never_delivers(self):
        loop = EventLoop()
        trace = LinkTrace("dead", np.array([]), 5.0)
        arrivals = []
        link = EmulatedLink(loop, trace, lambda p, t: arrivals.append(p), queue_limit_bytes=2000)
        assert link.send("a", 1000)
        assert not link.send("b", 1500)  # queue fills, no drain
        loop.run_until(10.0)
        assert arrivals == []
