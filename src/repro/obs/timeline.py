"""Per-path timeline sampling on the simulation clock.

The paper's per-path plots (cwnd/RTT timelines behind Figs. 8 and 14) need
periodic snapshots of transport state, not just terminal counters.  The
:class:`PathTimelineSampler` rides a :class:`~repro.emulation.events.PeriodicTimer`
and appends one :class:`PathSample` per path per interval, reading from
``PathState`` (and therefore whatever congestion controller — BBR or
NewReno — the path runs) plus, when given the emulator, the uplink queue
depth of the corresponding emulated link.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Dict, List, Optional

__all__ = [
    "DEFAULT_SAMPLE_INTERVAL",
    "PathSample",
    "PathTimelineSampler",
]

#: Default sampling cadence in simulated seconds (20 Hz).
DEFAULT_SAMPLE_INTERVAL = 0.05


@dataclass
class PathSample:
    """One snapshot of one path's sender-side state."""

    t: float
    path_id: int
    cwnd: int
    bytes_in_flight: int
    srtt: float
    latest_rtt: float
    min_rtt: float
    pacing_rate: Optional[float]
    packets_sent: int
    packets_acked: int
    packets_lost: int
    loss_rate: float
    uplink_queue_bytes: Optional[int] = None

    def as_dict(self) -> dict:
        return asdict(self)


def sample_path(path, now: float, uplink_queue_bytes: Optional[int] = None) -> PathSample:
    """Snapshot one ``PathState`` (pure read, no side effects)."""
    return PathSample(
        t=now,
        path_id=path.path_id,
        cwnd=path.cc.cwnd,
        bytes_in_flight=path.cc.bytes_in_flight,
        srtt=path.rtt.smoothed_rtt,
        latest_rtt=path.rtt.latest_rtt,
        min_rtt=path.rtt.min_rtt if path.rtt.min_rtt != float("inf") else 0.0,
        pacing_rate=path.cc.pacing_rate,
        packets_sent=path.packets_sent,
        packets_acked=path.packets_acked,
        packets_lost=path.packets_lost,
        loss_rate=path.loss_rate,
        uplink_queue_bytes=uplink_queue_bytes,
    )


class PathTimelineSampler:
    """Samples every path on a fixed sim-time interval into ``timelines``."""

    def __init__(self, loop, paths, timelines: Dict[int, List[PathSample]],
                 interval: float = DEFAULT_SAMPLE_INTERVAL, emulator=None):
        # local import dodges an emulation<->obs import cycle
        from ..emulation.events import PeriodicTimer

        if interval <= 0:
            raise ValueError("interval must be positive")
        self.loop = loop
        self.paths = paths
        self.timelines = timelines
        self.emulator = emulator
        self.interval = interval
        self._timer = PeriodicTimer(loop, interval, self._sample)

    def start(self) -> None:
        self._timer.start(first_delay=0.0)

    def stop(self) -> None:
        self._timer.stop()

    def _sample(self) -> None:
        now = self.loop.now
        for path in self.paths:
            queue_bytes = None
            if self.emulator is not None:
                try:
                    queue_bytes = self.emulator.channels[path.path_id].uplink.queue_bytes
                except (IndexError, AttributeError):
                    queue_bytes = None
            self.timelines.setdefault(path.path_id, []).append(
                sample_path(path, now, queue_bytes)
            )
