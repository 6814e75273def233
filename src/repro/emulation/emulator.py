"""The 4-path tunnel emulator (mpshell extended to multipath, §8.3.1).

A :class:`MultipathEmulator` wires a tunnel-client and a tunnel-server
through N emulated cellular channels, each with an uplink (video direction)
and a downlink (ACK direction) driven by traces.  Endpoints interact with
it through two callbacks:

* the client calls :meth:`send_uplink`, and packets that survive the link
  arrive at the server's ``on_uplink(path_id, payload, time)``;
* the server calls :meth:`send_downlink`, arriving at the client's
  ``on_downlink(path_id, payload, time)``.

Payloads are opaque; only an explicit wire size is modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from .cellular import generate_downlink_trace
from .events import EventLoop
from .link import DEFAULT_QUEUE_LIMIT_BYTES, EmulatedLink, LinkStats
from .trace import LinkTrace

__all__ = [
    "MultipathEmulator",
]


@dataclass
class PathChannel:
    """One cellular interface: paired uplink and downlink."""

    path_id: int
    uplink: EmulatedLink
    downlink: EmulatedLink

    @property
    def name(self) -> str:
        return self.uplink.name


class MultipathEmulator:
    """Connects one client and one server across N trace-driven paths."""

    def __init__(
        self,
        loop: EventLoop,
        uplink_traces: Sequence[LinkTrace],
        downlink_traces: Optional[Sequence[LinkTrace]] = None,
        queue_limit_bytes: int = DEFAULT_QUEUE_LIMIT_BYTES,
        seed: int = 0,
        telemetry=None,
    ):
        if not uplink_traces:
            raise ValueError("need at least one uplink trace")
        if downlink_traces is None:
            downlink_traces = [
                generate_downlink_trace(t, seed=seed + 1000 + i) for i, t in enumerate(uplink_traces)
            ]
        if len(downlink_traces) != len(uplink_traces):
            raise ValueError("uplink/downlink trace count mismatch")
        self.loop = loop
        self._on_uplink: Optional[Callable[[int, Any, float], None]] = None
        self._on_downlink: Optional[Callable[[int, Any, float], None]] = None
        self.channels: List[PathChannel] = []
        for i, (up, down) in enumerate(zip(uplink_traces, downlink_traces)):
            up_link = EmulatedLink(
                loop, up, self._make_deliver(i, "up"), queue_limit_bytes,
                seed=seed * 17 + i, telemetry=telemetry, path_id=i, direction="up"
            )
            down_link = EmulatedLink(
                loop, down, self._make_deliver(i, "down"), queue_limit_bytes,
                seed=seed * 31 + i + 7, telemetry=telemetry, path_id=i, direction="down"
            )
            self.channels.append(PathChannel(i, up_link, down_link))

    @property
    def path_count(self) -> int:
        return len(self.channels)

    def path_ids(self) -> List[int]:
        return [c.path_id for c in self.channels]

    def links_for(self, path_id: int = -1, direction: str = "both") -> List[EmulatedLink]:
        """Fault-injection surface: the links matched by a path/direction
        selector (``path_id`` -1 = every path; direction up|down|both)."""
        if direction not in ("up", "down", "both"):
            raise ValueError("direction must be up, down, or both")
        out: List[EmulatedLink] = []
        for c in self.channels:
            if path_id >= 0 and c.path_id != path_id:
                continue
            if direction in ("up", "both"):
                out.append(c.uplink)
            if direction in ("down", "both"):
                out.append(c.downlink)
        if path_id >= 0 and not out:
            raise ValueError("unknown path_id %d" % path_id)
        return out

    def attach_server(self, on_uplink: Callable[[int, Any, float], None]) -> None:
        """Register the tunnel-server's uplink receive callback."""
        self._on_uplink = on_uplink

    def attach_client(self, on_downlink: Callable[[int, Any, float], None]) -> None:
        """Register the tunnel-client's downlink receive callback."""
        self._on_downlink = on_downlink

    def _make_deliver(self, path_id: int, direction: str) -> Callable[[Any, float], None]:
        def deliver(payload: Any, arrive_time: float) -> None:
            sink = self._on_uplink if direction == "up" else self._on_downlink
            if sink is not None:
                sink(path_id, payload, arrive_time)

        return deliver

    def send_uplink(self, path_id: int, payload: Any, size: int) -> bool:
        """Client -> server; returns False on immediate tail drop."""
        return self.channels[path_id].uplink.send(payload, size)

    def send_downlink(self, path_id: int, payload: Any, size: int) -> bool:
        """Server -> client; returns False on immediate tail drop."""
        return self.channels[path_id].downlink.send(payload, size)

    def uplink_stats(self) -> Dict[int, LinkStats]:
        return {c.path_id: c.uplink.stats for c in self.channels}

    def downlink_stats(self) -> Dict[int, LinkStats]:
        return {c.path_id: c.downlink.stats for c in self.channels}
