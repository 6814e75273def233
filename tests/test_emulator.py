"""Multipath emulator: bidirectional routing and statistics."""

import pytest

from repro.emulation.emulator import MultipathEmulator
from repro.emulation.events import EventLoop
from repro.emulation.trace import LinkTrace, LossProcess, opportunities_from_rate


def clean_traces(n=4, rate=20.0, duration=10.0):
    return [
        LinkTrace("path%d" % i, opportunities_from_rate(rate, duration), duration, base_delay=0.01 * (i + 1))
        for i in range(n)
    ]


class TestEmulator:
    def test_path_ids(self):
        loop = EventLoop()
        emu = MultipathEmulator(loop, clean_traces(4))
        assert emu.path_ids() == [0, 1, 2, 3]
        assert emu.path_count == 4

    def test_uplink_routing(self):
        loop = EventLoop()
        emu = MultipathEmulator(loop, clean_traces(2))
        received = []
        emu.attach_server(lambda pid, payload, t: received.append((pid, payload, t)))
        emu.send_uplink(0, "a", 500)
        emu.send_uplink(1, "b", 500)
        loop.run_until(1.0)
        got = {pid: payload for pid, payload, _t in received}
        assert got == {0: "a", 1: "b"}

    def test_downlink_routing(self):
        loop = EventLoop()
        emu = MultipathEmulator(loop, clean_traces(2))
        received = []
        emu.attach_client(lambda pid, payload, t: received.append((pid, payload)))
        emu.send_downlink(1, "ack", 100)
        loop.run_until(1.0)
        assert received == [(1, "ack")]

    def test_per_path_base_delay(self):
        loop = EventLoop()
        emu = MultipathEmulator(loop, clean_traces(2))
        times = {}
        emu.attach_server(lambda pid, payload, t: times.setdefault(pid, t))
        emu.send_uplink(0, "x", 500)
        emu.send_uplink(1, "x", 500)
        loop.run_until(1.0)
        assert times[0] < times[1]  # path 1 has higher base delay

    def test_default_downlinks_generated(self):
        loop = EventLoop()
        emu = MultipathEmulator(loop, clean_traces(3))
        assert all(c.downlink is not None for c in emu.channels)

    def test_mismatched_downlink_count_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            MultipathEmulator(loop, clean_traces(3), downlink_traces=clean_traces(2))

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            MultipathEmulator(EventLoop(), [])

    def test_stats_accumulate(self):
        loop = EventLoop()
        emu = MultipathEmulator(loop, clean_traces(2))
        emu.attach_server(lambda *a: None)
        for _ in range(10):
            emu.send_uplink(0, "p", 1000)
        loop.run_until(2.0)
        stats = emu.uplink_stats()
        assert stats[0].delivered == 10
        assert stats[1].delivered == 0
        assert stats[0].bytes_delivered == 10_000

    def test_no_sink_attached_is_safe(self):
        loop = EventLoop()
        emu = MultipathEmulator(loop, clean_traces(1))
        emu.send_uplink(0, "p", 500)
        loop.run_until(1.0)  # delivery with no server: silently dropped
        assert emu.uplink_stats()[0].delivered == 1

    def test_lossy_path_isolated(self):
        loop = EventLoop()
        traces = clean_traces(2)
        lossy = LinkTrace(
            "lossy", traces[0].opportunities, traces[0].duration, loss=LossProcess.constant(1.0)
        )
        emu = MultipathEmulator(loop, [lossy, traces[1]])
        received = []
        emu.attach_server(lambda pid, payload, t: received.append(pid))
        for _ in range(5):
            emu.send_uplink(0, "dead", 500)
            emu.send_uplink(1, "alive", 500)
        loop.run_until(1.0)
        assert set(received) == {1}
