"""Shared tunnel-endpoint machinery.

Every transport under comparison (XNC, reliable MPQUIC/MPTCP with various
schedulers, BONDING, Pluribus) is a pair of endpoints over the multipath
emulator:

* a **tunnel client** (runs on the CPE) that accepts application packets,
  schedules them onto paths as QUIC packets, and processes ACKs arriving
  on the downlink;
* a **tunnel server** (runs in the edge proxy) that receives QUIC packets,
  emits per-path ACKs on the downlink, and delivers application payloads
  upward.

This module implements the parts all of them share: per-path sent-packet
maps, RTT sampling, standard RFC 9002 congestion-level loss accounting
(packet threshold + time threshold), ACK emission, and the statistics the
benchmarks read.  Policy differences — what to do when an application
packet is deemed lost — live in the subclasses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..core.frames import XNC_HEADER_SIZE, XncNcFrame
from ..core.rlnc import LENGTH_PREFIX_SIZE
from ..emulation.emulator import MultipathEmulator
from ..emulation.events import EventLoop, PeriodicTimer
from ..multipath.path import (
    HEALTH_PROBING,
    PathHealthConfig,
    PathHealthMonitor,
    PathManager,
    PathState,
)
from ..multipath.scheduler.base import Scheduler
from ..obs import NULL_TELEMETRY
from ..obs import trace as ev
from ..quic.ack import AckRangeTracker
from ..quic.packet import TUNNEL_OVERHEAD, AckFrame, PingFrame, QuicPacket
from ..sanitizer import sanitizer_or_default

__all__ = [
    "AppPacket",
    "SentInfo",
    "ClientStats",
    "TunnelClientBase",
    "TunnelServerBase",
    "FIRST_TX_OVERHEAD",
]

#: RFC 9002 packet reordering threshold.
PACKET_REORDER_THRESHOLD = 3
#: RFC 9002 time threshold factor (9/8).
TIME_THRESHOLD_FACTOR = 1.125
#: Server ACK delay bound.
MAX_ACK_DELAY = 0.025
#: Client housekeeping cadence (loss scans, pump retries).
CLIENT_TICK = 0.002
#: Ingress (tun-interface) queue limit in packets — Linux's default
#: txqueuelen is 500; when the transport cannot drain the backlog the tun
#: device drops, which is how a real-time source sheds load into a slow
#: tunnel instead of buffering forever.
INGRESS_QUEUE_LIMIT = 512
#: Wire bytes a first transmission adds to its payload: the XNC_NC frame
#: (type byte, u16 length, XNC_Header) around the length prefix every
#: ``_build_frame`` puts in front of the payload, plus the tunnel headers.
#: The scheduler is asked with this estimate before the frame is built.
FIRST_TX_OVERHEAD = 3 + XNC_HEADER_SIZE + LENGTH_PREFIX_SIZE + TUNNEL_OVERHEAD
#: Stream watchdog: with work pending and no ACK progress for this many
#: seconds the client declares a terminal stall and closes.  Generous by
#: design — ordinary multi-PTO outages resolve via the health machine;
#: the watchdog only catches a tunnel that can never make progress again.
WATCHDOG_TIMEOUT = 30.0

#: ``_pump`` without a burst: one pass that admits nothing.
_DRAIN_ONLY: Sequence[Optional[bytes]] = (None,)


@dataclass
class AppPacket:
    """One application (tunnelled IP) packet entering the tunnel."""

    packet_id: int
    payload: bytes
    frame_id: Optional[int] = None
    enqueue_time: float = 0.0

    @property
    def size(self) -> int:
        return len(self.payload)


@dataclass
class SentInfo:
    """Book-keeping for one transmitted QUIC packet on one path."""

    packet_number: int
    path_id: int
    size: int
    sent_time: float
    app_ids: Tuple[int, ...] = ()
    is_recovery: bool = False
    acked: bool = False
    cc_lost: bool = False
    qoe_fired: bool = False
    #: Causal tx span (repro.obs.spans); 0 when span recording is off.
    span_id: int = 0


@dataclass
class ClientStats:
    """Traffic accounting for redundancy/goodput figures."""

    app_packets_in: int = 0
    app_bytes_in: int = 0
    first_tx_packets: int = 0
    first_tx_bytes: int = 0
    retx_packets: int = 0
    retx_bytes: int = 0
    recovery_packets: int = 0
    recovery_bytes: int = 0
    duplicate_packets: int = 0
    duplicate_bytes: int = 0
    expired_packets: int = 0
    ingress_dropped: int = 0
    acks_received: int = 0
    probe_packets: int = 0
    probe_bytes: int = 0
    watchdog_closes: int = 0

    @property
    def redundancy_ratio(self) -> float:
        """Retransmitted+coded+duplicated bytes over first-transmission bytes
        (the paper's 'retrans ratio')."""
        extra = self.retx_bytes + self.recovery_bytes + self.duplicate_bytes
        return extra / self.first_tx_bytes if self.first_tx_bytes else 0.0

    def as_dict(self) -> dict:
        d = asdict(self)
        d["redundancy_ratio"] = self.redundancy_ratio
        return d


class TunnelClientBase:
    """Common client: queueing, scheduling, ACK processing, cc loss."""

    #: Whether this client promises never to initiate a send with the
    #: congestion window already full.  Proactive-FEC baselines (Pluribus,
    #: fixed-rate FEC) intentionally push repairs past the spare window,
    #: so they opt out of the sanitizer's inflight<=cwnd invariant.
    sanitize_window_discipline = True

    def __init__(
        self,
        loop: EventLoop,
        emulator: MultipathEmulator,
        paths: PathManager,
        scheduler: Scheduler,
        tick: float = CLIENT_TICK,
        ingress_limit: int = INGRESS_QUEUE_LIMIT,
        connection_id: int = 0,
        telemetry=None,
        sanitizer=None,
        health_config: Optional[PathHealthConfig] = None,
        health_seed: int = 0,
        watchdog_timeout: Optional[float] = WATCHDOG_TIMEOUT,
    ):
        self.loop = loop
        self.emulator = emulator
        self.paths = paths
        self.scheduler = scheduler
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.sanitizer = sanitizer_or_default(sanitizer, label=type(self).__name__)
        self.ingress_limit = ingress_limit
        #: Distinguishes this connection's packets when several tunnels
        #: share the same links (e.g. the bidirectional tunnel).
        self.connection_id = connection_id
        #: Floor on the retransmission timeout.  0 for QUIC-style PTO;
        #: kernel TCP (hence MPTCP) enforces RTO_min = 200 ms, one of the
        #: reasons it recovers slowly on cellular links.
        self.rto_min = 0.0
        self.stats = ClientStats()
        self._queue: Deque[AppPacket] = deque()
        self._queue_bytes = 0
        #: The paths usable at the current sim instant while ``_pump`` is
        #: running (shared with the scheduler), None outside it.
        self._usable: Optional[List[PathState]] = None
        # probed once: only backlog-aware schedulers (ECF) expose the hint
        self._scheduler_wants_backlog = hasattr(scheduler, "queued_bytes_hint")
        self._next_app_id = 0
        # per path: packet number -> SentInfo, plus send-order pn deque
        self._sent: Dict[int, Dict[int, SentInfo]] = {p.path_id: {} for p in paths}
        self._sent_order: Dict[int, Deque[int]] = {p.path_id: deque() for p in paths}
        self._largest_acked: Dict[int, int] = {p.path_id: -1 for p in paths}
        #: Per-path health machine: degrades noisy paths, suspends dead
        #: ones (excluded from scheduling and recovery budgets), and asks
        #: for probes that bring recovered paths back.
        self.health = PathHealthMonitor(
            paths, config=health_config, seed=health_seed,
            telemetry=self.telemetry, sanitizer=self.sanitizer,
        )
        #: Forward-progress watchdog (None disables): set when the tunnel
        #: stalled terminally; checked by harnesses after close().
        self.watchdog_timeout = watchdog_timeout
        self.terminal_error: Optional[str] = None
        self._watchdog_acks_seen = 0
        self._watchdog_progress_time = loop.now
        emulator.attach_client(self._on_downlink)
        self._timer = PeriodicTimer(loop, tick, self._on_tick)
        self._timer.start(first_delay=tick)
        self.closed = False

    # -- application ingress -------------------------------------------------

    def send_app_packet(self, payload: bytes, frame_id: Optional[int] = None) -> Optional[int]:
        """Accept one application packet into the tunnel (a burst of one);
        returns its ID, or None when the ingress (tun) queue tail-dropped
        it."""
        return self._pump((payload,), frame_id)[0]

    def send_app_burst(self, payloads: Sequence[bytes],
                       frame_id: Optional[int] = None) -> List[Optional[int]]:
        """Accept the packets of one burst — a video frame, entering the
        tunnel at one sim instant — in order; returns one ID per packet,
        None where the ingress queue tail-dropped it.

        Packet for packet this does what a loop of :meth:`send_app_packet`
        would (same drops, same transmissions in the same order, same
        telemetry), but whatever cannot change within one sim instant —
        the clock, which paths are usable — is worked out once per burst.
        """
        return self._pump(payloads, frame_id)

    # -- subclass hooks --------------------------------------------------

    #: Retransmission backlog sent ahead of fresh data (``_drain_retx``);
    #: only the reliable transports keep one.
    _retx: Sequence[int] = ()

    def _on_app_packet_queued(self, pkt: AppPacket) -> None:
        """Called when an app packet enters the queue (e.g. pool register)."""

    def _build_frame(self, pkt: AppPacket) -> XncNcFrame:
        """Wire frame for a first transmission of ``pkt``: the payload
        behind its length prefix, nothing more (``FIRST_TX_OVERHEAD``)."""
        raise NotImplementedError

    def _drain_retx(self, usable: List[PathState], now: float) -> bool:
        """Send what ``_retx`` holds; True when the scheduler held one back
        (fresh data then waits behind it)."""
        raise NotImplementedError

    def _on_app_acked(self, infos: Sequence[SentInfo]) -> None:
        """The packets one ACK frame newly confirmed delivered (each
        carries app packets and was not already given up as lost)."""

    def _on_cc_lost(self, info: SentInfo, now: float) -> None:
        """Transport-level loss (policy: requeue, code, or ignore)."""

    def _on_tick_hook(self, now: float) -> None:
        """Periodic housekeeping for subclasses."""

    def _queue_entry_stale(self, pkt: AppPacket, now: float) -> bool:
        """True when a still-queued packet should be dropped unsent
        (real-time transports abandon stale video; reliable ones never do)."""
        return False

    def _on_queue_entry_dropped(self, pkt: AppPacket) -> None:
        """Called when a stale queued packet is abandoned."""

    # -- scheduling / transmission ------------------------------------------

    def _admit(self, payload: bytes, frame_id: Optional[int], now: float) -> Optional[int]:
        """Ingress of one app packet: tail-drop it against the live queue
        length (None), or queue it and return its ID."""
        stats = self.stats
        stats.app_packets_in += 1
        stats.app_bytes_in += len(payload)
        tel = self.telemetry
        if len(self._queue) >= self.ingress_limit:
            stats.ingress_dropped += 1
            if tel.enabled:
                tel.event(now, ev.INGRESS_DROP, self._next_app_id)
                tel.count("client.ingress_dropped")
            return None
        pkt = AppPacket(self._next_app_id, bytes(payload), frame_id, now)
        self._next_app_id += 1
        self._queue.append(pkt)
        self._queue_bytes += len(pkt.payload)
        if tel.enabled:
            tel.event(now, ev.APP_IN, pkt.packet_id,
                      size=pkt.size, frame=frame_id)
            tel.count("client.app_in")
            sp = tel.spans
            if sp.enabled:
                parent = sp.lookup("frame", frame_id) if frame_id is not None else 0
                sid = sp.open("packet", now, parent=parent,
                              packet=pkt.packet_id, size=pkt.size)
                sp.bind("packet", pkt.packet_id, sid)
        self._on_app_packet_queued(pkt)
        return pkt.packet_id

    def _pump(self, burst: Sequence[bytes] = _DRAIN_ONLY,
              frame_id: Optional[int] = None) -> List[Optional[int]]:
        """Drain the app queue through the scheduler while windows allow.

        With a ``burst``, its packets are admitted one at a time and the
        queue is drained after each — the order a per-packet caller would
        produce — and their IDs returned (None = tail-dropped at ingress).

        Sim time cannot advance inside one event callback and no ACK, loss
        or health edge can run, so the clock is read once and the usable
        paths are worked out once; a path's usability can change under the
        pump only through its own send (``_transmit_frame`` keeps
        ``_usable`` honest), and the scheduler is left to test windows.
        """
        admitted: List[Optional[int]] = []
        queue = self._queue
        closed = self.closed
        if burst is _DRAIN_ONLY and (closed or not (queue or self._retx)):
            return admitted
        now = self.loop.now
        tel = self.telemetry
        stats = self.stats
        scheduler = self.scheduler
        usable: Optional[List[PathState]] = None
        try:
            for payload in burst:
                if payload is not None:
                    packet_id = self._admit(payload, frame_id, now)
                    admitted.append(packet_id)
                    if packet_id is None:
                        continue
                if closed:
                    continue
                if usable is None:
                    usable = self._usable = self.paths.usable(now)
                if self._retx and self._drain_retx(usable, now):
                    continue
                while queue:
                    pkt = queue[0]
                    if self._queue_entry_stale(pkt, now):
                        queue.popleft()
                        self._queue_bytes -= len(pkt.payload)
                        stats.expired_packets += 1
                        if tel.enabled:
                            tel.event(now, ev.EXPIRED, pkt.packet_id,
                                      where="ingress_queue")
                            tel.count("client.expired")
                            sp = tel.spans
                            if sp.enabled:
                                sp.close(sp.lookup("packet", pkt.packet_id), now,
                                         outcome="expired", where="ingress_queue")
                        self._on_queue_entry_dropped(pkt)
                        continue
                    wire_estimate = len(pkt.payload) + FIRST_TX_OVERHEAD
                    if self._scheduler_wants_backlog:
                        scheduler.queued_bytes_hint = self._queue_bytes
                    targets = scheduler.select(usable, wire_estimate, now)
                    if not targets:
                        break
                    if self.sanitizer.enabled:
                        self.sanitizer.check_scheduler_targets(targets, wire_estimate, now)
                    queue.popleft()
                    self._queue_bytes -= len(pkt.payload)
                    if tel.enabled:
                        tel.event(now, ev.SCHEDULED, pkt.packet_id,
                                  targets[0].path_id, fanout=len(targets),
                                  queue_wait=now - pkt.enqueue_time)
                        for t in targets:
                            tel.count("scheduler.selected.path%d" % t.path_id)
                        tel.observe("client.queue_wait", now - pkt.enqueue_time)
                        sp = tel.spans
                        if sp.enabled:
                            sp.annotate(sp.lookup("packet", pkt.packet_id),
                                        sched_t=now, fanout=len(targets),
                                        sched_path=targets[0].path_id)
                    # built only now that a target exists: a blocked pump
                    # (every ACK and tick while the windows are full) must
                    # not encode the head-of-line packet over and over
                    frame = self._build_frame(pkt)
                    app_ids = (pkt.packet_id,)
                    is_dup = False
                    for path in targets:
                        self._transmit_frame(path, frame, app_ids, is_recovery=False, is_dup=is_dup)
                        is_dup = True
        finally:
            self._usable = None
        return admitted

    def _transmit_frame(
        self,
        path: PathState,
        frame: XncNcFrame,
        app_ids: Tuple[int, ...],
        is_recovery: bool,
        is_dup: bool = False,
        is_retx: bool = False,
        is_probe: bool = False,
    ) -> SentInfo:
        """Wrap one frame into a QUIC packet and put it on a path."""
        now = self.loop.now
        pn = path.next_packet_number()
        qpkt = QuicPacket(
            path_id=path.path_id,
            packet_number=pn,
            frames=[frame],
            sent_time=now,
            connection_id=self.connection_id,
        )
        # single-frame packet: equals qpkt.wire_size without the generic sum
        size = TUNNEL_OVERHEAD + frame.wire_size
        info = SentInfo(pn, path.path_id, size, now, app_ids, is_recovery)
        self._sent[path.path_id][pn] = info
        self._sent_order[path.path_id].append(pn)
        was_idle = path.cc.bytes_in_flight <= 0
        path.on_sent(size, now)
        usable = self._usable
        if was_idle and usable is not None and path in usable \
                and not path.is_usable(now):
            # ACK silence is measured only while data is in flight, so a
            # path quiet for several PTOs turns "potentially failed" by its
            # own first send: the one way the pump's view can go stale
            usable.remove(path)
        if self.sanitizer.enabled:
            # probes fly on suspended paths whose window is full of
            # presumed-lost bytes; they are exempt from window discipline
            self.sanitizer.check_transmit(
                path, pn, size,
                window_disciplined=(self.sanitize_window_discipline
                                    and not is_probe))
        if is_probe:
            self.stats.probe_packets += 1
            self.stats.probe_bytes += size
        elif is_recovery:
            self.stats.recovery_packets += 1
            self.stats.recovery_bytes += size
        elif is_dup:
            self.stats.duplicate_packets += 1
            self.stats.duplicate_bytes += size
        elif is_retx:
            self.stats.retx_packets += 1
            self.stats.retx_bytes += size
        else:
            self.stats.first_tx_packets += 1
            self.stats.first_tx_bytes += size
        tel = self.telemetry
        if tel.enabled:
            kind = ev.RECOVERY_TX if is_recovery else ev.TX
            attrs = {"pn": pn, "size": size, "count": len(app_ids)}
            if is_dup:
                attrs["dup"] = True
            if is_retx:
                attrs["retx"] = True
            if is_probe:
                attrs["probe"] = True
            tel.event(now, kind, app_ids[0] if app_ids else -1,
                      path.path_id, **attrs)
            tel.count("client.%s" % kind)
            sp = tel.spans
            if sp.enabled:
                # tx spans are root-level: their close (the ACK) arrives a
                # downlink-RTT after the carried packet may already have
                # decoded, so containment under the packet span cannot
                # hold — the causal link rides the `cause` attribute.
                span_attrs = {"path": path.path_id, "pn": pn,
                              "cause": sp.lookup("packet", app_ids[0]) if app_ids else 0}
                if is_recovery:
                    span_attrs["recovery"] = True
                if is_retx:
                    span_attrs["retx"] = True
                if is_dup:
                    span_attrs["dup"] = True
                if is_probe:
                    span_attrs["probe"] = True
                info.span_id = sp.open("tx", now, **span_attrs)
        self.emulator.send_uplink(path.path_id, qpkt, size)
        return info

    # -- downlink (ACK) processing --------------------------------------------

    def _on_downlink(self, path_id: int, payload: Any, now: float) -> None:
        if self.closed or not isinstance(payload, QuicPacket):
            return
        if payload.connection_id != self.connection_id:
            return  # another tunnel's traffic on the shared links
        for frame in payload.frames:
            if isinstance(frame, AckFrame):
                self._process_ack(frame, now)
        self._pump()

    def _process_ack(self, ack: AckFrame, now: float) -> None:
        self.stats.acks_received += 1
        path_id = ack.path_id
        path = self.paths.get(path_id)
        if self.sanitizer.enabled:
            self.sanitizer.check_ack_plausible(path, ack.largest)
        sent_map = self._sent[path_id]
        order = self._sent_order[path_id]
        # everything below the oldest outstanding pn is already resolved;
        # clamping keeps ACK processing O(outstanding), not O(history)
        floor = order[0] if order else (self._largest_acked[path_id] + 1)
        newly_acked: List[SentInfo] = []
        delivered: List[SentInfo] = []
        top: Optional[SentInfo] = None
        for low, high in ack.ranges:
            if high < floor:
                continue
            for pn in range(low if low > floor else floor, high + 1):
                info = sent_map.get(pn)
                if info is None or info.acked:
                    continue
                info.acked = True
                newly_acked.append(info)
                if top is None or pn > top.packet_number:
                    top = info
                if info.app_ids and not info.cc_lost:
                    delivered.append(info)
        if top is None:
            return
        if ack.largest > self._largest_acked[path_id]:
            self._largest_acked[path_id] = ack.largest
        # one congestion-control call per ACK frame: size and RTT of each
        # packet in the order the controller is to replay them — the RTT
        # sample (the largest newly-acked packet, when it is the frame's
        # largest) first, then the rest in ACK-range order
        sample = top if top.packet_number == ack.largest else None
        sizes: List[int] = []
        rtts: List[float] = []
        if sample is not None:
            sizes.append(sample.size)
            rtts.append(max(1e-4, now - sample.sent_time))
        for info in newly_acked:
            if info is not sample:
                rtt = now - info.sent_time
                sizes.append(info.size)
                rtts.append(rtt if rtt > 1e-4 else 1e-4)
        path.on_acked(sizes, rtts, now,
                      ack.ack_delay if sample is not None else None)
        tel = self.telemetry
        if tel.enabled:
            spans = tel.spans
            for info in newly_acked:
                tel.event(now, ev.ACK,
                          info.app_ids[0] if info.app_ids else -1,
                          info.path_id, pn=info.packet_number,
                          count=len(info.app_ids))
                tel.observe("client.ack_rtt", now - info.sent_time)
                if info.span_id:
                    spans.close(info.span_id, now, outcome="ack")
        if delivered:
            self._on_app_acked(delivered)
        # packet-threshold loss: unacked packets well below largest acked
        threshold_pn = self._largest_acked[path_id] - PACKET_REORDER_THRESHOLD
        self._detect_cc_losses(path_id, now, threshold_pn)
        self._gc_sent(path_id)

    # -- loss detection (transport level) ------------------------------------

    def _cc_time_threshold(self, path: PathState) -> float:
        rtt = max(path.rtt.smoothed_rtt, path.rtt.latest_rtt or path.rtt.smoothed_rtt)
        return TIME_THRESHOLD_FACTOR * rtt

    def _detect_cc_losses(self, path_id: int, now: float, threshold_pn: int = -1) -> None:
        sent_map = self._sent[path_id]
        if not sent_map:
            return
        path = self.paths.get(path_id)
        time_limit = max(self._cc_time_threshold(path), self.rto_min)
        pto_limit = max(path.rtt.pto() * 1.5, self.rto_min)
        # sent_map is insertion-ordered by pn, and sent_time is
        # non-decreasing in pn, so once a live packet is both above the
        # reorder threshold and not yet PTO-overdue, no later packet can
        # satisfy either loss branch — stop scanning there instead of
        # walking the whole outstanding window on every ACK.
        newly_lost: List[SentInfo] = []
        for pn, info in sent_map.items():
            if info.acked or info.cc_lost:
                continue
            overdue = now - info.sent_time
            if pn <= threshold_pn:
                if overdue < time_limit and overdue < pto_limit:
                    continue
            elif overdue < pto_limit:
                break
            newly_lost.append(info)
        # side effects after the scan: _on_cc_lost may enqueue work that
        # grows sent_map, which the snapshot-based scan never observed
        tel = self.telemetry
        for info in newly_lost:
            info.cc_lost = True
            path.on_lost(info.size, now)
            if tel.enabled:
                tel.event(now, ev.CC_LOSS,
                          info.app_ids[0] if info.app_ids else -1,
                          path_id, pn=info.packet_number,
                          overdue=now - info.sent_time,
                          count=len(info.app_ids))
                tel.count("client.cc_loss")
                sp = tel.spans
                if sp.enabled and info.span_id:
                    sp.close(info.span_id, now, outcome="cc_loss")
            if not info.is_recovery:
                self._on_cc_lost(info, now)

    def _gc_sent(self, path_id: int) -> None:
        """Drop acked/lost entries from the front of the send-order deque."""
        order = self._sent_order[path_id]
        sent_map = self._sent[path_id]
        while order:
            pn = order[0]
            info = sent_map.get(pn)
            if info is None or info.acked or info.cc_lost:
                order.popleft()
                sent_map.pop(pn, None)
                continue
            break

    # -- timers ---------------------------------------------------------------

    def _on_tick(self) -> None:
        if self.closed:
            return
        now = self.loop.now
        for path_id, sent_map in self._sent.items():
            if sent_map:  # nothing outstanding: nothing to lose or collect
                self._detect_cc_losses(path_id, now)
                self._gc_sent(path_id)
        self._health_tick(now)
        self._watchdog_tick(now)
        if self.closed:
            return  # the watchdog fired
        self._on_tick_hook(now)
        self._pump()

    def _health_tick(self, now: float) -> None:
        """Advance the path-health machine; fly probes it asks for."""
        for path, _old, new in self.health.tick(now):
            if new == HEALTH_PROBING and path.probe_pending:
                path.probe_pending = False
                path.probes_sent += 1
                self._transmit_frame(path, PingFrame(), (), is_recovery=False,
                                     is_probe=True)

    def _has_pending_work(self) -> bool:
        """Work the watchdog should demand ACK progress on.

        Subclasses that hold undelivered data in private backlogs (e.g.
        a retransmission queue) must override to include them, or the
        watchdog cannot see a stall once the shared queues drain.
        """
        if self._queue:
            return True
        return any(len(order) > 0 for order in self._sent_order.values())

    def _watchdog_tick(self, now: float) -> None:
        """Terminal-stall detector: pending work but no ACK progress."""
        if self.watchdog_timeout is None:
            return
        acks = self.stats.acks_received
        pending = self._has_pending_work()
        if acks != self._watchdog_acks_seen or not pending:
            self._watchdog_acks_seen = acks
            self._watchdog_progress_time = now
            return
        stalled = now - self._watchdog_progress_time
        if stalled <= self.watchdog_timeout:
            return
        self.terminal_error = (
            "stream watchdog: no ACK progress for %.1fs with work pending"
            % stalled)
        self.stats.watchdog_closes += 1
        tel = self.telemetry
        if tel.enabled:
            tel.event(now, ev.WATCHDOG, stalled=stalled,
                      backlog=len(self._queue),
                      outstanding=sum(len(o) for o in self._sent_order.values()))
            tel.count("client.watchdog_close")
        self.close()

    def close(self) -> None:
        self.closed = True
        self._timer.stop()

    # -- introspection ---------------------------------------------------------


class TunnelServerBase:
    """Common server: per-path ACK tracking and emission, app delivery."""

    def __init__(
        self,
        loop: EventLoop,
        emulator: MultipathEmulator,
        on_app_packet: Callable[[int, bytes, float], None],
        ack_every: int = 2,
        max_ack_delay: float = MAX_ACK_DELAY,
        connection_id: int = 0,
        telemetry=None,
        sanitizer=None,
    ):
        self.loop = loop
        self.emulator = emulator
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.sanitizer = sanitizer_or_default(sanitizer, label=type(self).__name__)
        self.on_app_packet = on_app_packet
        self.connection_id = connection_id
        self.ack_every = ack_every
        self.max_ack_delay = max_ack_delay
        self._trackers: Dict[int, AckRangeTracker] = {
            pid: AckRangeTracker(pid) for pid in emulator.path_ids()
        }
        self._unacked_count: Dict[int, int] = {pid: 0 for pid in emulator.path_ids()}
        self._ack_timer_handles: Dict[int, Any] = {}
        self.packets_received = 0
        self.duplicates = 0
        emulator.attach_server(self._on_uplink)
        self.closed = False

    # -- subclass hook ---------------------------------------------------------

    def _handle_frame(self, path_id: int, frame: XncNcFrame, now: float) -> None:
        """Consume one data frame (decode, reorder, deliver...)."""
        raise NotImplementedError

    # -- uplink processing -------------------------------------------------------

    def _on_uplink(self, path_id: int, payload: Any, now: float) -> None:
        if self.closed or not isinstance(payload, QuicPacket):
            return
        if payload.connection_id != self.connection_id:
            return  # another tunnel's traffic on the shared links
        self.packets_received += 1
        tracker = self._trackers[path_id]
        fresh = tracker.on_received(payload.packet_number, now)
        if not fresh:
            self.duplicates += 1
        # one pass over the frames replaces the xnc_frames() list build and
        # the is_ack_eliciting scan (eliciting == any non-ACK frame)
        ack_eliciting = False
        for frame in payload.frames:
            if isinstance(frame, XncNcFrame):
                ack_eliciting = True
                self._handle_frame(path_id, frame, now)
            elif not isinstance(frame, AckFrame):
                ack_eliciting = True
        if ack_eliciting:
            self._unacked_count[path_id] += 1
            if self._unacked_count[path_id] >= self.ack_every:
                self._emit_ack(path_id)
            elif path_id not in self._ack_timer_handles:
                handle = self.loop.call_later(self.max_ack_delay, self._emit_ack_timer, path_id)
                self._ack_timer_handles[path_id] = handle

    def _emit_ack_timer(self, path_id: int) -> None:
        self._ack_timer_handles.pop(path_id, None)
        self._emit_ack(path_id)

    def _emit_ack(self, path_id: int) -> None:
        if self.closed:
            return
        handle = self._ack_timer_handles.pop(path_id, None)
        if handle is not None:
            handle.cancel()
        tracker = self._trackers[path_id]
        ack = tracker.build_ack(self.loop.now)
        if ack is None:
            return
        self._unacked_count[path_id] = 0
        pkt = QuicPacket(
            path_id=path_id,
            packet_number=-1,
            frames=[ack],
            sent_time=self.loop.now,
            connection_id=self.connection_id,
        )
        self.emulator.send_downlink(path_id, pkt, TUNNEL_OVERHEAD + ack.wire_size)

    def close(self) -> None:
        self.closed = True
        for handle in self._ack_timer_handles.values():
            handle.cancel()
        self._ack_timer_handles.clear()
