"""Discrete-event loop: ordering, cancellation, timers."""

import pytest

from repro.emulation.events import EventLoop, PeriodicTimer, SimulationError


def live_events(loop):
    """Non-cancelled entries still in the loop's heap."""
    return len(loop._heap) - loop._cancelled


class TestEventLoop:
    def test_runs_in_time_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule(2.0, seen.append, "b")
        loop.schedule(1.0, seen.append, "a")
        loop.schedule(3.0, seen.append, "c")
        loop.run_until(3.0)
        assert seen == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, seen.append, 1)
        loop.schedule(1.0, seen.append, 2)
        loop.schedule(1.0, seen.append, 3)
        loop.run_until(1.0)
        assert seen == [1, 2, 3]

    def test_now_advances(self):
        loop = EventLoop()
        times = []
        loop.schedule(0.5, lambda: times.append(loop.now))
        loop.run_until(0.5)
        assert times == [0.5]
        assert loop.now == 0.5

    def test_past_scheduling_rejected(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.run_until(1.0)
        with pytest.raises(SimulationError):
            loop.schedule(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventLoop().call_later(-0.1, lambda: None)

    def test_cancel(self):
        loop = EventLoop()
        seen = []
        h = loop.schedule(1.0, seen.append, "x")
        h.cancel()
        h.cancel()  # safe twice
        loop.run_until(2.0)
        assert seen == []
        assert live_events(loop) == 0

    def test_run_until_stops_and_advances(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, seen.append, "early")
        loop.schedule(5.0, seen.append, "late")
        loop.run_until(2.0)
        assert seen == ["early"]
        assert loop.now == 2.0
        loop.run_until(6.0)
        assert seen == ["early", "late"]

    def test_events_scheduled_during_run(self):
        loop = EventLoop()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                loop.call_later(0.1, chain, n + 1)

        loop.call_later(0.1, chain, 0)
        loop.run_until(1.0)
        assert seen == [0, 1, 2, 3]

    def test_events_processed_counter(self):
        loop = EventLoop()
        for i in range(5):
            loop.schedule(i * 0.1, lambda: None)
        loop.run_until(1.0)
        assert loop.events_processed == 5


class TestCompaction:
    """Cancelled-entry compaction: the heap must not grow without bound."""

    def test_cancel_churn_heap_bounded(self):
        # Regression: before compaction, a schedule/cancel churn (timer
        # re-arming) accumulated one dead entry per cancel and the heap
        # grew linearly with the number of cancels.
        loop = EventLoop()
        anchor = loop.schedule(1000.0, lambda: None)  # keep the loop alive
        for i in range(10_000):
            h = loop.call_later(500.0, lambda: None)
            h.cancel()
        assert live_events(loop) == 1
        # physical heap stays within a small constant of the live size
        assert len(loop._heap) < 200
        anchor.cancel()

    def test_cancel_after_fire_is_noop(self):
        loop = EventLoop()
        seen = []
        h = loop.schedule(1.0, seen.append, "x")
        loop.schedule(2.0, seen.append, "y")
        loop.run_until(1.5)
        assert seen == ["x"]
        before = live_events(loop)
        h.cancel()  # must not decrement accounting or disturb the heap
        h.cancel()
        assert live_events(loop) == before
        loop.run_until(3.0)
        assert seen == ["x", "y"]

    def test_tie_break_order_survives_compaction(self):
        loop = EventLoop()
        seen = []
        # interleave survivors (same fire time, distinct insertion order)
        # with enough cancelled entries to force at least one compaction
        survivors = []
        for i in range(200):
            survivors.append(loop.schedule(10.0, seen.append, i))
            for _ in range(4):
                loop.schedule(10.0, lambda: None).cancel()
        assert live_events(loop) == 200
        loop.run_until(10.0)
        assert seen == list(range(200))

    def test_pending_and_heap_size_accounting(self):
        loop = EventLoop()
        handles = [loop.schedule(float(i), lambda: None) for i in range(10)]
        assert live_events(loop) == 10
        assert len(loop._heap) == 10
        for h in handles[:4]:
            h.cancel()
        assert live_events(loop) == 6
        assert len(loop._heap) >= 6  # dead entries may linger pre-threshold
        loop.run_until(10.0)
        assert live_events(loop) == 0
        assert len(loop._heap) == 0
        assert loop.events_processed == 6

    def test_compaction_preserves_run_results(self):
        # Same workload with and without churn produces the same firing
        # sequence and times.
        def run(churn):
            loop = EventLoop()
            seen = []
            for i in range(50):
                loop.schedule(0.1 * i, lambda i=i: seen.append((i, loop.now)))
                if churn:
                    for _ in range(10):
                        loop.schedule(0.1 * i + 0.05, lambda: None).cancel()
            loop.run_until(5.0)
            return seen

        assert run(False) == run(True)


class TestPeriodicTimer:
    def test_fires_at_interval(self):
        loop = EventLoop()
        ticks = []
        timer = PeriodicTimer(loop, 0.5, lambda: ticks.append(loop.now))
        timer.start()
        loop.run_until(2.2)
        assert ticks == pytest.approx([0.5, 1.0, 1.5, 2.0])

    def test_first_delay_override(self):
        loop = EventLoop()
        ticks = []
        timer = PeriodicTimer(loop, 1.0, lambda: ticks.append(loop.now))
        timer.start(first_delay=0.1)
        loop.run_until(1.5)
        assert ticks == pytest.approx([0.1, 1.1])

    def test_stop(self):
        loop = EventLoop()
        ticks = []
        timer = PeriodicTimer(loop, 0.5, lambda: ticks.append(loop.now))
        timer.start()
        loop.run_until(0.7)
        timer.stop()
        loop.run_until(3.0)
        assert ticks == [0.5]

    def test_stop_from_callback(self):
        loop = EventLoop()
        ticks = []
        timer = PeriodicTimer(loop, 0.5, lambda: (ticks.append(1), timer.stop()))
        timer.start()
        loop.run_until(5.0)
        assert ticks == [1]

    def test_double_start_ignored(self):
        loop = EventLoop()
        ticks = []
        timer = PeriodicTimer(loop, 1.0, lambda: ticks.append(1))
        timer.start()
        timer.start()
        loop.run_until(1.5)
        assert ticks == [1]

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            PeriodicTimer(EventLoop(), 0.0, lambda: None)
