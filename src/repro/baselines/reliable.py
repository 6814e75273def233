"""Fully reliable multipath tunnels: MPQUIC, MPTCP, and the Fig. 11
scheduler arms (minRTT / RE / XLINK / ECF).

These transports retransmit every lost packet until it is acknowledged and
deliver in order — the behaviour of stream-mode MPQUIC and MPTCP that §1
identifies as the core mismatch with real-time video: under bursty
cellular loss, retransmission queues and head-of-line blocking convert
loss into seconds of stall.

A single client class hosts all of them; the scheduler object and the
congestion-controller factory are the configuration axes (MPTCP =
minRTT + NewReno, MPQUIC = minRTT + BBR, RE/XLINK/ECF = that scheduler +
BBR).  The server delivers strictly in order.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Set

from ..core.frames import XncNcFrame
from ..core.rlnc import frame_payload, unframe_payload
from ..emulation.emulator import MultipathEmulator
from ..emulation.events import EventLoop
from ..multipath.path import PathManager
from ..multipath.scheduler.base import Scheduler
from ..transport.base import (
    FIRST_TX_OVERHEAD,
    AppPacket,
    SentInfo,
    TunnelClientBase,
    TunnelServerBase,
)

__all__ = [
    "ReliableTunnelClient",
    "InOrderTunnelServer",
    "UnorderedTunnelServer",
]


class ReliableTunnelClient(TunnelClientBase):
    """Retransmit-until-acked multipath sender."""

    def __init__(
        self,
        loop: EventLoop,
        emulator: MultipathEmulator,
        paths: PathManager,
        scheduler: Scheduler,
        telemetry=None,
        sanitizer=None,
        **kwargs,
    ):
        super().__init__(loop, emulator, paths, scheduler, telemetry=telemetry,
                         sanitizer=sanitizer, **kwargs)
        self._payloads: Dict[int, AppPacket] = {}
        self._delivered: Set[int] = set()
        self._retx: Deque[int] = deque()
        self._retx_queued: Set[int] = set()

    def _on_app_packet_queued(self, pkt: AppPacket) -> None:
        self._payloads[pkt.packet_id] = pkt

    def _build_frame(self, pkt: AppPacket) -> XncNcFrame:
        return XncNcFrame.original(pkt.packet_id, frame_payload(pkt.payload))

    def _on_app_acked(self, infos) -> None:
        for info in infos:
            for app_id in info.app_ids:
                if app_id in self._delivered:
                    continue
                self._delivered.add(app_id)
                self._payloads.pop(app_id, None)
                self._retx_queued.discard(app_id)

    def _has_pending_work(self) -> bool:
        # undelivered payloads await either first transmission or a
        # retransmit — the watchdog must see them as pending work even
        # after the base queues drain
        return bool(self._payloads) or super()._has_pending_work()

    def _on_cc_lost(self, info: SentInfo, now: float) -> None:
        for app_id in info.app_ids:
            if app_id in self._delivered or app_id in self._retx_queued:
                continue
            if app_id not in self._payloads:
                continue
            self._retx_queued.add(app_id)
            self._retx.append(app_id)

    def _drain_retx(self, usable, now: float) -> bool:
        # retransmissions first (TCP semantics), then fresh data
        retx = self._retx
        while retx:
            app_id = retx[0]
            pkt = self._payloads.get(app_id)
            if pkt is None:  # delivered while it waited
                retx.popleft()
                self._retx_queued.discard(app_id)
                continue
            targets = self.scheduler.select(usable, len(pkt.payload) + FIRST_TX_OVERHEAD, now)
            if not targets:
                return True
            retx.popleft()
            self._retx_queued.discard(app_id)
            frame = self._build_frame(pkt)
            app_ids = (app_id,)
            for i, path in enumerate(targets):
                self._transmit_frame(
                    path, frame, app_ids, is_recovery=False, is_dup=i > 0, is_retx=i == 0
                )
        return False


class InOrderTunnelServer(TunnelServerBase):
    """Delivers application packets strictly in packet-ID order.

    Models the byte-stream semantics of MPTCP / stream-mode MPQUIC: one
    missing packet blocks everything behind it until retransmission
    arrives (head-of-line blocking).
    """

    def __init__(
        self,
        loop: EventLoop,
        emulator: MultipathEmulator,
        on_app_packet: Callable[[int, bytes, float], None],
        telemetry=None,
        sanitizer=None,
    ):
        super().__init__(loop, emulator, on_app_packet, telemetry=telemetry,
                         sanitizer=sanitizer)
        self._buffer: Dict[int, bytes] = {}
        self._expected = 0
        self.max_buffered = 0
        self.hol_blocked_deliveries = 0

    def _handle_frame(self, path_id: int, frame: XncNcFrame, now: float) -> None:
        if frame.header.packet_count != 1:
            return  # reliable tunnels never send coded frames
        app_id = frame.header.start_id
        if app_id < self._expected or app_id in self._buffer:
            return
        self._buffer[app_id] = unframe_payload(frame.payload)
        self.max_buffered = max(self.max_buffered, len(self._buffer))
        released = 0
        while self._expected in self._buffer:
            payload = self._buffer.pop(self._expected)
            self.on_app_packet(self._expected, payload, now)
            self._expected += 1
            released += 1
        if released > 1:
            self.hol_blocked_deliveries += released - 1


class UnorderedTunnelServer(TunnelServerBase):
    """Delivers packets as they arrive (datagram semantics, used by the
    BONDING baseline and by tests)."""

    def __init__(
        self,
        loop: EventLoop,
        emulator: MultipathEmulator,
        on_app_packet: Callable[[int, bytes, float], None],
        telemetry=None,
        sanitizer=None,
    ):
        super().__init__(loop, emulator, on_app_packet, telemetry=telemetry,
                         sanitizer=sanitizer)
        self._seen: Set[int] = set()

    def _handle_frame(self, path_id: int, frame: XncNcFrame, now: float) -> None:
        if frame.header.packet_count != 1:
            return
        app_id = frame.header.start_id
        if app_id in self._seen:
            return
        self._seen.add(app_id)
        self.on_app_packet(app_id, unframe_payload(frame.payload), now)
