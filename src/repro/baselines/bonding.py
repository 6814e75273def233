"""Cellular bonding baseline (BONDING, §8.1.2).

SD-WAN-style bonding hashes each session's 5-tuple onto one cellular
interface and forwards UDP as-is: no proxy, no retransmission, no
aggregation.  The video stream therefore lives or dies with one link at a
time (failover re-pins the flow only after the liveness probe notices).

The client still exchanges lightweight ACKs so path liveness and RTT are
observable — standing in for mwan3's ping-based interface tracking — but
losses are never repaired and the congestion window never binds (plain
UDP has none).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.frames import XncNcFrame
from ..core.rlnc import frame_payload
from ..emulation.emulator import MultipathEmulator
from ..emulation.events import EventLoop
from ..multipath.path import PathManager, PathState
from ..multipath.scheduler.bonding import BondingScheduler, FiveTuple
from ..quic.cc.base import CongestionController
from ..transport.base import AppPacket, SentInfo, TunnelClientBase

__all__ = [
    "UnlimitedController",
    "build_bonding_paths",
    "BondingTunnelClient",
]


class UnlimitedController(CongestionController):
    """No congestion control: the window never binds (plain UDP)."""

    def __init__(self, mss: int = 1400):
        super().__init__(mss)
        self.cwnd = 1 << 40

    def _acked(self, size: int, rtt: float, now: float) -> None:
        self.cwnd = 1 << 40

    def _lost(self, size: int, now: float) -> None:
        self.cwnd = 1 << 40


def build_bonding_paths(emulator: MultipathEmulator, names: Optional[list] = None) -> PathManager:
    """Paths with unlimited windows for the bonding client."""
    manager = PathManager()
    for pid in emulator.path_ids():
        name = names[pid] if names else "path-%d" % pid
        manager.add(PathState(pid, name=name, cc=UnlimitedController()))
    return manager


class BondingTunnelClient(TunnelClientBase):
    """UDP pass-through pinned to one hashed interface."""

    def __init__(
        self,
        loop: EventLoop,
        emulator: MultipathEmulator,
        paths: Optional[PathManager] = None,
        five_tuple: Optional[FiveTuple] = None,
        telemetry=None,
        sanitizer=None,
        **kwargs,
    ):
        paths = paths or build_bonding_paths(emulator)
        super().__init__(loop, emulator, paths, BondingScheduler(five_tuple),
                         telemetry=telemetry, sanitizer=sanitizer, **kwargs)

    def _build_frame(self, pkt: AppPacket) -> XncNcFrame:
        return XncNcFrame.original(pkt.packet_id, frame_payload(pkt.payload))

    def _on_cc_lost(self, info: SentInfo, now: float) -> None:
        # plain UDP: losses are not repaired
        return
