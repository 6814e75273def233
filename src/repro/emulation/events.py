"""Discrete-event simulation core.

Everything in the reproduction — links, transports, video sources, timers —
runs on one :class:`EventLoop`.  Time is a float in seconds.  The loop is a
plain binary heap with cancellable handles; ties are broken by insertion
order so runs are fully deterministic for a given seed.

Heap entries are ``[time, order, callback, args, loop]`` lists: the
``order`` field is unique, so heap comparisons resolve on the first two
(C-compared) elements and never reach the callback.  The entry is its own
cancellation handle (:class:`EventHandle` subclasses ``list``), so an
event costs one allocation whether or not anybody keeps the handle — most
are link drains and deliveries nobody can cancel.  Cancelling an event
nulls its callback in place; the dead entry stays in the heap until it
surfaces — *or* until cancelled entries pile up, at which point
the heap is compacted in one linear pass (``_COMPACT_MIN`` live threshold,
then whenever dead entries outnumber live ones).  Without compaction a
cancel-heavy workload — timer re-arming, retransmission races — grows the
heap without bound even though almost nothing in it will ever fire.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional

__all__ = [
    "SimulationError",
    "EventLoop",
    "PeriodicTimer",
]

# entry layout: [time, order, callback, args, loop]; callback None == cancelled
_TIME, _ORDER, _CALLBACK, _ARGS, _LOOP = 0, 1, 2, 3, 4

#: Compaction never triggers below this many cancelled entries — small
#: heaps are cheap to carry and the O(n) sweep would dominate.
_COMPACT_MIN = 64


class SimulationError(Exception):
    """Raised for invalid scheduling (e.g. events in the past)."""


class EventHandle(list):
    """One heap entry, returned by :meth:`EventLoop.schedule` as the
    event's cancellation handle."""

    __slots__ = ()

    def cancel(self) -> None:
        """Cancel the event; safe to call more than once (or after firing)."""
        if self[_CALLBACK] is None:
            return
        self[_CALLBACK] = None
        self[_ARGS] = ()
        self[_LOOP]._note_cancelled()


class EventLoop:
    """A deterministic discrete-event scheduler."""

    def __init__(self, start_time: float = 0.0):
        #: Current simulation time in seconds.  A plain attribute, written
        #: only by the loop itself: every layer reads the clock several
        #: times per packet and a property would cost a call each time.
        self.now = start_time
        self._heap: List[EventHandle] = []
        self._counter = itertools.count()
        self._cancelled = 0
        self.events_processed = 0

    def schedule(self, when: float, callback: Callable, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        now = self.now
        if when < now:
            if when < now - 1e-12:
                raise SimulationError(
                    "cannot schedule event at %.6f before now %.6f" % (when, now))
            when = now
        entry = EventHandle((when, next(self._counter), callback, args, self))
        heapq.heappush(self._heap, entry)
        return entry

    def call_later(self, delay: float, callback: Callable, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError("negative delay %r" % delay)
        return self.schedule(self.now + delay, callback, *args)

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        # compact when dead entries dominate: amortised O(1) per cancel,
        # keeps the heap within 2x of its live size
        if self._cancelled >= _COMPACT_MIN and self._cancelled * 2 >= len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (preserves (time, order)).

        In place: run_until holds a local reference to the heap list across
        callbacks, and a callback may cancel its way into a compaction.
        """
        live = [e for e in self._heap if e[_CALLBACK] is not None]
        heapq.heapify(live)
        self._heap[:] = live
        self._cancelled = 0

    def run_until(self, end_time: float) -> None:
        """Run events up to and including ``end_time``, then advance to it.

        This is the simulation's innermost loop (every event of every run
        goes through it), so the peek/pop sequence is inline rather than
        two method calls per event.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[_CALLBACK] is None:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            when = head[_TIME]
            if when > end_time:
                break
            entry = heapq.heappop(heap)
            self.now = when
            callback, args = entry[_CALLBACK], entry[_ARGS]
            entry[_CALLBACK] = None
            entry[_ARGS] = ()
            self.events_processed += 1
            callback(*args)
        self.now = max(self.now, end_time)


class PeriodicTimer:
    """Repeats ``callback()`` every ``interval`` seconds until stopped."""

    def __init__(self, loop: EventLoop, interval: float, callback: Callable):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._loop = loop
        self.interval = interval
        self._callback = callback
        self._handle: Optional[EventHandle] = None
        self._running = False

    def start(self, first_delay: Optional[float] = None) -> None:
        if self._running:
            return
        self._running = True
        delay = self.interval if first_delay is None else first_delay
        self._handle = self._loop.call_later(delay, self._fire)

    def _fire(self) -> None:
        if not self._running:
            return
        self._callback()
        if self._running:
            self._handle = self._loop.call_later(self.interval, self._fire)

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
