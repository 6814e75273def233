"""Congestion-controller interface shared by BBR and the baselines.

Controllers track bytes in flight themselves: the endpoint reports every
send, ACK, and loss, and reads ``cwnd`` / ``can_send`` / ``available_window``
back.  Windows are in bytes; ``available_packets`` converts to the packet
budget the one-shot recovery planner consumes (§4.5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "DEFAULT_MSS",
    "INITIAL_WINDOW",
    "MIN_WINDOW",
    "CongestionController",
]

#: Conventional QUIC defaults.
DEFAULT_MSS = 1400
INITIAL_WINDOW = 10 * DEFAULT_MSS
MIN_WINDOW = 2 * DEFAULT_MSS


class CongestionController:
    """Base class: in-flight accounting plus the controller hooks."""

    def __init__(self, mss: int = DEFAULT_MSS):
        if mss <= 0:
            raise ValueError("mss must be positive")
        self.mss = mss
        self.bytes_in_flight = 0
        self.cwnd = INITIAL_WINDOW
        self.delivered_bytes = 0
        self.lost_bytes = 0

    # -- endpoint-facing API -------------------------------------------------

    def can_send(self, size: int) -> bool:
        """True when ``size`` more bytes fit in the window."""
        return self.bytes_in_flight + size <= self.cwnd

    def available_window(self) -> int:
        """Spare window in bytes."""
        return max(0, self.cwnd - self.bytes_in_flight)

    def available_packets(self) -> int:
        """Spare window in MSS-sized packets (recovery budget units)."""
        return self.available_window() // self.mss

    def on_sent(self, size: int, now: float) -> None:
        self.bytes_in_flight += size
        self._sent(size, now)

    def on_ack(self, sizes: Sequence[int], rtts: Sequence[float], now: float) -> None:
        """One ACK frame: size and RTT of every packet it newly
        acknowledged (parallel sequences).  The per-packet arithmetic is
        replayed in the order given, so the window ends up exactly where
        one call per packet would have left it."""
        for size, rtt in zip(sizes, rtts):
            in_flight = self.bytes_in_flight - size
            self.bytes_in_flight = in_flight if in_flight > 0 else 0
            self.delivered_bytes += size
            self._acked(size, rtt, now)

    def on_loss(self, size: int, now: float) -> None:
        self.bytes_in_flight = max(0, self.bytes_in_flight - size)
        self.lost_bytes += size
        self._lost(size, now)

    # -- controller hooks ----------------------------------------------------

    def _sent(self, size: int, now: float) -> None:
        """Subclass hook on transmission."""

    def _acked(self, size: int, rtt: float, now: float) -> None:
        """Subclass hook on acknowledgement."""

    def _lost(self, size: int, now: float) -> None:
        """Subclass hook on loss."""

    @property
    def pacing_rate(self) -> Optional[float]:
        """Bytes/second pacing hint, or None for window-limited senders."""
        return None
