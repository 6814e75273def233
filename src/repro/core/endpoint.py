"""XNC tunnel endpoints: the paper's transport, end to end (§4).

:class:`XncTunnelClient` is the CPE-side sender.  Per Fig. 7 and §4.4–§4.5:

* every application packet is registered in the encoder pool, then
  forwarded immediately as an uncoded XNC_NC frame (``n = 1``) on the
  min-RTT path — coding never delays first transmissions;
* a QoE-aware scan marks packets lost once unacknowledged for
  ``min(app_threshold, PTO)``;
* detected losses are partitioned into contiguous ranges (r packets /
  t seconds / frame borders) and recovered in one opportunistic shot:
  ``n' = n + 3`` random linear combinations spread over every usable
  path's spare window;
* ranges expire after ``t_expire`` — stale video is abandoned, never
  retransmitted.

:class:`XncTunnelServer` is the proxy-side receiver: XNC_NC payloads feed
the incremental RLNC decoder and recovered packets are handed to the
``on_app_packet`` sink in whatever order they decode (the tunnel carries
IP packets; order is the application's business).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Sequence, Tuple

from ..determinism import seeded_rng
from ..emulation.emulator import MultipathEmulator
from ..emulation.events import EventLoop
from ..multipath.path import PathManager
from ..multipath.scheduler.base import Scheduler
from ..multipath.scheduler.minrtt import MinRttScheduler
from ..obs import trace as ev
from ..transport.base import AppPacket, SentInfo, TunnelClientBase, TunnelServerBase
from .frames import XncNcFrame
from .loss_detection import QoeLossPolicy
from .ranges import EncodeRange, LostPacket, RangePolicy, RetransmissionQueue
from .recovery import PathBudget, RecoveryPolicy, plan_recovery, recovery_seeds
from .rlnc import RlncDecoder, RlncEncoder

__all__ = [
    "XncConfig",
    "XncTunnelClient",
    "XncTunnelServer",
]


@dataclass
class XncConfig:
    """All XNC tuning knobs in one place (paper defaults)."""

    loss_policy: QoeLossPolicy = None
    range_policy: RangePolicy = None
    recovery_policy: RecoveryPolicy = None
    simd: bool = True
    seed: int = 7
    #: Ablation switch: retransmit plain originals instead of coded
    #: packets (the "w/o Q-RLNC" arm of Fig. 13(a)).
    coding_enabled: bool = True
    #: Best-effort RTP sniffing for frame borders (§4.4.2's optional third
    #: condition): used only when the app doesn't tag frames explicitly,
    #: and silently off for unrecognisable (e.g. encrypted) traffic.
    sniff_rtp: bool = True

    def __post_init__(self):
        if self.loss_policy is None:
            self.loss_policy = QoeLossPolicy()
        if self.range_policy is None:
            self.range_policy = RangePolicy()
        if self.recovery_policy is None:
            self.recovery_policy = RecoveryPolicy()


@dataclass
class _AppMeta:
    frame_id: Optional[int]
    delivered: bool = False
    forgotten: bool = False


class XncTunnelClient(TunnelClientBase):
    """CPE-side XNC sender over unreliable multipath QUIC-Datagram."""

    def __init__(
        self,
        loop: EventLoop,
        emulator: MultipathEmulator,
        paths: PathManager,
        config: Optional[XncConfig] = None,
        scheduler: Optional[Scheduler] = None,
        telemetry=None,
        sanitizer=None,
        **kwargs,
    ):
        super().__init__(loop, emulator, paths, scheduler or MinRttScheduler(),
                         telemetry=telemetry, sanitizer=sanitizer, **kwargs)
        self.config = config or XncConfig()
        self.encoder = RlncEncoder(simd=self.config.simd)
        self.retrans_queue = RetransmissionQueue(self.config.range_policy,
                                                 sanitizer=self.sanitizer)
        self._seed_rng = seeded_rng(self.config.seed)  # lint: disable=shard-rng-provenance -- adding a derivation label would shift coefficient seeds and break golden replay; EndpointConfig.seed is unique per endpoint
        self._app_meta: Dict[int, _AppMeta] = {}
        self._pool_order: Deque[Tuple[int, float]] = deque()
        self.recoveries_executed = 0
        self.recoveries_delayed = 0
        self.ranges_expired = 0

    # -- ingress / first transmission -----------------------------------------

    def _on_app_packet_queued(self, pkt: AppPacket) -> None:
        now = self.loop.now
        self.encoder.register(pkt.packet_id, pkt.payload, now)
        self._pool_order.append((pkt.packet_id, now))
        frame_id = pkt.frame_id
        if frame_id is None and self.config.sniff_rtp:
            from ..video.rtp import sniff_frame_id

            frame_id = sniff_frame_id(pkt.payload)
        self._app_meta[pkt.packet_id] = _AppMeta(frame_id)

    def _build_frame(self, pkt: AppPacket) -> XncNcFrame:
        framed = self.encoder.encode(pkt.packet_id, 1, 0)
        return XncNcFrame.original(pkt.packet_id, framed)

    def _queue_entry_stale(self, pkt: AppPacket, now: float) -> bool:
        # a packet queued past t_expire is stale video; sending it would
        # only delay fresh frames (§4.4.3 applied at the source queue)
        return now - pkt.enqueue_time > self.config.range_policy.t_expire

    def _on_queue_entry_dropped(self, pkt: AppPacket) -> None:
        self.encoder.release(pkt.packet_id)
        meta = self._app_meta.get(pkt.packet_id)
        if meta is not None:
            meta.forgotten = True

    # -- delivery / QoE loss detection -----------------------------------------

    def _on_app_acked(self, infos: Sequence[SentInfo]) -> None:
        for info in infos:
            for app_id in info.app_ids:
                meta = self._app_meta.get(app_id)
                if meta is None or meta.delivered:
                    continue
                meta.delivered = True
                self.retrans_queue.discard(app_id)
                self.encoder.release(app_id)

    def _qoe_scan(self, now: float) -> None:
        """Mark overdue in-flight packets lost per min(app_threshold, PTO)."""
        tel = self.telemetry
        for path in self.paths:
            sent_map = self._sent[path.path_id]
            if not sent_map:
                continue
            threshold = self.config.loss_policy.threshold(*path.rtt.as_tuple())
            # iterate the sent map directly (in_flight_infos would build a
            # throwaway list per path per tick); nothing below mutates it.
            # Entries are insertion-ordered by pn with non-decreasing
            # sent_time, so the first not-yet-overdue packet ends the scan:
            # everything after it is younger still.
            for info in sent_map.values():
                if now - info.sent_time < threshold:
                    break
                if info.acked or info.cc_lost or info.is_recovery or info.qoe_fired:
                    continue
                info.qoe_fired = True
                for app_id in info.app_ids:
                    meta = self._app_meta.get(app_id)
                    if meta is None or meta.delivered or meta.forgotten:
                        continue
                    if self.retrans_queue.add(
                        LostPacket(app_id, info.sent_time, meta.frame_id)
                    ) and tel.enabled:
                        tel.event(now, ev.QOE_LOSS, app_id, path.path_id,
                                  overdue=now - info.sent_time,
                                  threshold=threshold)
                        tel.count("xnc.qoe_loss")
                        sp = tel.spans
                        if sp.enabled and info.span_id:
                            sp.annotate(info.span_id, qoe_loss=True,
                                        qoe_t=now)

    def _on_cc_lost(self, info: SentInfo, now: float) -> None:
        # cc-level loss implies the QoE threshold has long passed; make sure
        # the app packets are queued for recovery if still fresh
        for app_id in info.app_ids:
            meta = self._app_meta.get(app_id)
            if meta is None or meta.delivered or meta.forgotten:
                continue
            self.retrans_queue.add(LostPacket(app_id, info.sent_time, meta.frame_id))

    # -- opportunistic one-shot recovery -----------------------------------------

    def _path_budgets(self, now: float) -> list:
        budgets = []
        for path in self.paths:
            budgets.append(
                PathBudget(
                    path_id=path.path_id,
                    available_window=path.cc.available_packets(),
                    usable=path.is_usable(now),
                )
            )
        return budgets

    def _attempt_recoveries(self, now: float) -> None:
        if not len(self.retrans_queue):
            return  # nothing awaiting recovery: nothing to expire or plan
        tel = self.telemetry
        stale = self.retrans_queue.expire(now)
        if stale:
            self.stats.expired_packets += len(stale)
            self.ranges_expired += 1
            if tel.enabled:
                sp = tel.spans
                for pkt in stale:
                    tel.event(now, ev.EXPIRED, pkt.packet_id,
                              where="retrans_queue")
                    if sp.enabled:
                        sp.close(sp.lookup("packet", pkt.packet_id), now,
                                 outcome="expired", where="retrans_queue")
                tel.count("xnc.expired", len(stale))
        ranges = self.retrans_queue.ranges()
        for rng in ranges:
            plan = plan_recovery(rng.count, self._path_budgets(now), self.config.recovery_policy)
            if plan is None:
                self.recoveries_delayed += 1
                if tel.enabled:
                    tel.count("xnc.recovery_delayed")
                continue
            self._execute_plan(rng, plan)

    def _execute_plan(self, rng: EncodeRange, plan) -> None:
        self.recoveries_executed += 1
        san = self.sanitizer
        if san.enabled:
            # §4.5 budget + lifecycle invariants before any packet leaves
            san.check_plan(rng.count, plan, self.config.recovery_policy)
            san.check_range_recovery(rng, self.loop.now,
                                     self.config.range_policy.t_expire)
        tel = self.telemetry
        range_sid = 0
        if tel.enabled:
            tel.event(self.loop.now, ev.RANGE_FORMED, rng.start_id,
                      count=rng.count, n_prime=plan.total_packets,
                      paths=[a.path_id for a in plan.allocations])
            tel.observe("xnc.range_size", rng.count)
            tel.observe("xnc.recovery_n", plan.total_packets)
            sp = tel.spans
            if sp.enabled:
                range_sid = sp.open("range", self.loop.now,
                                    start_id=rng.start_id, count=rng.count,
                                    n_prime=plan.total_packets)
                sp.bind("range", (rng.start_id, rng.count), range_sid)
        if rng.count == 1 or not self.config.coding_enabled:
            self._send_uncoded_recovery(rng, plan)
        else:
            seeds = recovery_seeds(plan.total_packets, self._seed_rng)
            cursor = 0
            for alloc in plan.allocations:
                path = self.paths.get(alloc.path_id)
                for _ in range(alloc.packets):
                    payload = self.encoder.encode(rng.start_id, rng.count, seeds[cursor])
                    frame = XncNcFrame.coded(rng.start_id, rng.count, seeds[cursor], payload)
                    self._transmit_frame(
                        path, frame, tuple(rng.packet_ids()), is_recovery=True
                    )
                    cursor += 1
            if range_sid:
                # the block encode is instantaneous in sim time; an instant
                # child keeps the coding stage visible in the waterfall
                tel.spans.instant("encode", self.loop.now, parent=range_sid,
                                  combos=plan.total_packets, k=rng.count)
        if range_sid:
            tel.spans.close(range_sid, self.loop.now, executed=True)
        # one-shot: forget the packets involved (§4.5.2)
        self.retrans_queue.pop_range(rng)
        for app_id in rng.packet_ids():
            meta = self._app_meta.get(app_id)
            if meta is not None:
                meta.forgotten = True

    def _send_uncoded_recovery(self, rng: EncodeRange, plan) -> None:
        """n == 1 fast path and the w/o-Q-RLNC ablation: plain originals."""
        for alloc in plan.allocations:
            path = self.paths.get(alloc.path_id)
            budget = alloc.packets
            ids = list(rng.packet_ids())
            for i in range(budget):
                app_id = ids[i % len(ids)]
                if not self.encoder.contains(app_id):
                    continue
                framed = self.encoder.encode(app_id, 1, 0)
                frame = XncNcFrame.original(app_id, framed)
                self._transmit_frame(path, frame, (app_id,), is_recovery=True)

    # -- housekeeping -----------------------------------------------------------

    def _on_tick_hook(self, now: float) -> None:
        self._qoe_scan(now)
        self._attempt_recoveries(now)
        self._trim_pool(now)

    def _trim_pool(self, now: float) -> None:
        horizon = self.config.range_policy.t_expire * 2 + 0.5
        while self._pool_order and now - self._pool_order[0][1] > horizon:
            app_id, _t = self._pool_order.popleft()
            meta = self._app_meta.pop(app_id, None)
            if meta is None or not meta.delivered:
                # a delivered packet left the pool when its ACK arrived
                self.encoder.release(app_id)


class XncTunnelServer(TunnelServerBase):
    """Proxy-side XNC receiver: decode and forward."""

    #: Open decoder ranges older than this are abandoned (their packets
    #: expired at the sender anyway).
    RANGE_GC_HORIZON = 2.0

    def __init__(
        self,
        loop: EventLoop,
        emulator: MultipathEmulator,
        on_app_packet: Callable[[int, bytes, float], None],
        connection_id: int = 0,
        telemetry=None,
        sanitizer=None,
    ):
        super().__init__(loop, emulator, on_app_packet, connection_id=connection_id,
                         telemetry=telemetry, sanitizer=sanitizer)
        self.decoder = RlncDecoder(sanitizer=self.sanitizer)
        self._range_first_seen: Dict[Tuple[int, int], float] = {}
        self._gc_counter = 0

    def _handle_frame(self, path_id: int, frame: XncNcFrame, now: float) -> None:
        h = frame.header
        count = h.packet_count
        tel = self.telemetry
        key = None
        if count > 1:
            key = (h.start_id, count)
            if key not in self._range_first_seen:
                self._range_first_seen[key] = now
                if tel.enabled:
                    sp = tel.spans
                    if sp.enabled:
                        # decode span: first coded symbol of the range seen
                        # -> first successful decode; `cause` links back to
                        # the client's recovery range (same recorder per run)
                        sid = sp.open("decode", now, start_id=h.start_id,
                                      count=count,
                                      cause=sp.lookup("range", key))
                        sp.bind("decode", key, sid)
        decoded = self.decoder.push(h.start_id, count, h.random_seed, frame.payload)
        for packet_id, payload in decoded:
            if tel.enabled:
                tel.event(now, ev.DECODED, packet_id, path_id,
                          coded=key is not None)
                tel.count("server.decoded")
            self.on_app_packet(packet_id, payload, now)
        if decoded and key is not None and tel.enabled:
            sp = tel.spans
            if sp.enabled:
                sp.close(sp.lookup("decode", key), now, outcome="decoded")
        self._gc_counter += 1
        if self._gc_counter % 512 == 0:
            self._gc_ranges(now)

    def _gc_ranges(self, now: float) -> None:
        for key in list(self._range_first_seen):
            if now - self._range_first_seen[key] > self.RANGE_GC_HORIZON:
                self.decoder.expire_range(*key)
                del self._range_first_seen[key]
