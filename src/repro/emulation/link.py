"""Trace-driven emulated link (mpshell semantics).

One :class:`EmulatedLink` models one direction of one cellular interface:
a drop-tail queue drained by the trace's delivery opportunities (one MTU
per opportunity, looping beyond the trace duration), followed by the base
propagation delay.  Random loss is sampled per packet from the trace's
loss process at drain time.

Latency spikes emerge naturally: when capacity collapses (an outage bucket
with no opportunities) the queue builds and every queued packet inherits
seconds of delay — exactly the behaviour measured in Fig. 3(c).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Deque, Tuple
from collections import deque

from ..determinism import seeded_rng
from .events import EventLoop
from .trace import LinkTrace, MTU_BYTES

__all__ = [
    "DEFAULT_QUEUE_LIMIT_BYTES",
    "LinkStats",
    "LinkFaultState",
    "EmulatedLink",
]

#: Default drop-tail queue limit; ~0.5 s of 30 Mbps video, deep enough for
#: bufferbloat-style delay spikes, small enough to convert sustained
#: outage into burst loss (both appear in Fig. 3).
DEFAULT_QUEUE_LIMIT_BYTES = 2_000_000


@dataclass
class LinkStats:
    """Counters for one link direction."""

    enqueued: int = 0
    delivered: int = 0
    dropped_queue: int = 0
    dropped_loss: int = 0
    bytes_delivered: int = 0
    bytes_dropped: int = 0

    @property
    def loss_rate(self) -> float:
        total = self.delivered + self.dropped_loss
        return self.dropped_loss / total if total else 0.0

    def as_dict(self) -> dict:
        from dataclasses import asdict

        d = asdict(self)
        d["loss_rate"] = self.loss_rate
        return d


class LinkFaultState:
    """The aggregate fault overlay one injector applies to one link.

    Owned and recomputed by :class:`repro.faults.engine.FaultInjector`;
    the link reads it through a single ``self.fault`` attribute that is
    ``None`` whenever no fault is active, so the un-faulted hot path pays
    one attribute load and one branch (the telemetry/sanitizer contract,
    gated by ``tools/check_overhead.py``).

    ``rng`` is the injector's per-link seeded stream — fault randomness
    never touches the trace loss RNG, so arming a plan perturbs nothing
    outside its own draws.
    """

    __slots__ = ("loss_prob", "extra_delay", "bw_scale", "reorder_jitter",
                 "dup_prob", "rng")

    def __init__(self, rng):
        self.loss_prob = 0.0      #: extra per-packet drop probability
        self.extra_delay = 0.0    #: added one-way delay in seconds
        self.bw_scale = 1.0       #: fraction of delivery opportunities kept
        self.reorder_jitter = 0.0  #: uniform extra delay window (reordering)
        self.dup_prob = 0.0       #: probability of duplicating a delivery
        self.rng = rng


class EmulatedLink:
    """One direction of one emulated cellular link."""

    def __init__(
        self,
        loop: EventLoop,
        trace: LinkTrace,
        deliver: Callable[[Any, float], None],
        queue_limit_bytes: int = DEFAULT_QUEUE_LIMIT_BYTES,
        seed: int = 0,
        loss_enabled: bool = True,
        telemetry=None,
        path_id: int = -1,
        direction: str = "",
    ):
        if queue_limit_bytes <= 0:
            raise ValueError("queue_limit_bytes must be positive")
        if telemetry is None:
            from ..obs import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self.loop = loop
        self.trace = trace
        self.deliver = deliver
        self.queue_limit_bytes = queue_limit_bytes
        self.loss_enabled = loss_enabled
        self.telemetry = telemetry
        self.path_id = path_id
        self.direction = direction
        self.stats = LinkStats()
        self._rng = seeded_rng(seed)  # lint: disable=shard-rng-provenance -- adding a derivation label would shift loss/delay draws and break golden replay; the caller derives a per-link seed
        self._queue: Deque[Tuple[Any, int]] = deque()  # (payload, size)
        self._queue_bytes = 0
        self._drain_scheduled = False
        # opportunity cursor: epoch * duration + opportunities[index].
        # The trace array is mirrored into a plain list once — the cursor
        # advances per drained packet, and list indexing + bisect beat
        # numpy scalar access there (same float64 values, identical times)
        self._opp_index = 0
        self._epoch = 0
        self._opps = trace.opportunities.tolist()
        self._duration = float(trace.duration)
        self._base_delay = float(trace.base_delay)
        self._loss = trace.loss
        # a dead link: packets only ever drop at the queue limit
        self._dead = not self._opps
        #: Fault-injection overlay; None = no active fault (the hot-path
        #: guard), written only by repro.faults.engine.FaultInjector.
        self.fault: "LinkFaultState | None" = None

    @property
    def queue_bytes(self) -> int:
        return self._queue_bytes

    @property
    def name(self) -> str:
        return self.trace.name

    def send(self, payload: Any, size: int) -> bool:
        """Enqueue a packet; returns False if the queue tail-dropped it."""
        if size <= 0:
            raise ValueError("packet size must be positive")
        self.stats.enqueued += 1
        if self._queue_bytes + size > self.queue_limit_bytes:
            self.stats.dropped_queue += 1
            self.stats.bytes_dropped += size
            tel = self.telemetry
            if tel.enabled:
                tel.event(self.loop.now, "link_drop", path_id=self.path_id,
                          dir=self.direction, reason="queue", size=size)
                tel.count("link.%s.drop_queue" % (self.direction or "?"))
                sp = tel.spans
                if sp.enabled:
                    sp.instant("drop", self.loop.now, path=self.path_id,
                               dir=self.direction, reason="queue")
            return False
        self._queue.append((payload, size))
        self._queue_bytes += size
        if not self._drain_scheduled and not self._dead:
            self._schedule_drain(self.loop.now)
        return True

    def _schedule_drain(self, now: float) -> None:
        """Arm the drain event at the next delivery opportunity >= ``now``.

        The event chain per packet is ``send -> _drain -> deliver``: at
        most one drain event is pending per link, armed here by ``send``
        on an idle link and re-armed by ``_drain`` while packets remain,
        so each queued packet costs one drain insert and one delivery
        insert.  An idle link's cursor may be anywhere behind ``now``:
        jump to the epoch containing it, then bisect within the epoch.
        """
        opps = self._opps
        n = len(opps)
        duration = self._duration
        target_epoch = int(now // duration)
        if target_epoch > self._epoch:
            self._epoch = target_epoch
            self._opp_index = 0
        while True:
            base = self._epoch * duration
            if self._opp_index >= n:
                self._epoch += 1
                self._opp_index = 0
                continue
            t = base + opps[self._opp_index]
            if t >= now - 1e-12:
                break
            # advance the cursor with a binary search within this epoch
            idx = bisect_left(opps, now - base)
            if idx >= n:
                self._epoch += 1
                self._opp_index = 0
            else:
                self._opp_index = idx
        self._drain_scheduled = True
        self.loop.schedule(t, self._drain)

    def _drain(self) -> None:
        self._drain_scheduled = False
        queue = self._queue
        if not queue:
            return
        now = self.loop.now
        # consume this opportunity
        self._opp_index += 1
        fault = self.fault
        if fault is not None and fault.bw_scale < 1.0 \
                and fault.rng.random() >= fault.bw_scale:
            # bandwidth cliff: the opportunity is wasted, the packet stays
            # queued (capacity collapse -> queue buildup -> inherited delay,
            # the Fig. 3(c) mechanism)
            self._schedule_drain(now)
            return
        payload, size = queue.popleft()
        self._queue_bytes -= size
        lost = False
        reason = "loss"
        if self.loss_enabled:
            p = self._loss.probability_at(now, self._duration)
            if p > 0 and self._rng.random() < p:
                lost = True
        if not lost and fault is not None and fault.loss_prob > 0.0 \
                and fault.rng.random() < fault.loss_prob:
            lost = True
            reason = "fault"
        stats = self.stats
        if lost:
            stats.dropped_loss += 1
            stats.bytes_dropped += size
            tel = self.telemetry
            if tel.enabled:
                tel.event(now, "link_drop", path_id=self.path_id,
                          dir=self.direction, reason=reason, size=size)
                tel.count("link.%s.drop_loss" % (self.direction or "?"))
                sp = tel.spans
                if sp.enabled:
                    sp.instant("drop", now, path=self.path_id,
                               dir=self.direction, reason=reason)
        else:
            stats.delivered += 1
            stats.bytes_delivered += size
            arrive = now + self._base_delay
            if fault is not None:
                if fault.extra_delay > 0.0:
                    arrive += fault.extra_delay
                if fault.reorder_jitter > 0.0:
                    arrive += fault.rng.random() * fault.reorder_jitter
            self.loop.schedule(arrive, self.deliver, payload, arrive)
            if fault is not None and fault.dup_prob > 0.0 \
                    and fault.rng.random() < fault.dup_prob:
                dup_arrive = arrive + self._base_delay * 0.5
                stats.delivered += 1
                stats.bytes_delivered += size
                self.loop.schedule(dup_arrive, self.deliver, payload, dup_arrive)
        if queue:
            # a busy link's next opportunity is the cursor's own, later in
            # this epoch; only a trace wrap needs the walk
            idx = self._opp_index
            if idx < len(self._opps) and int(now // self._duration) <= self._epoch:
                self._drain_scheduled = True
                self.loop.schedule(self._epoch * self._duration + self._opps[idx],
                                   self._drain)
            else:
                self._schedule_drain(now)
