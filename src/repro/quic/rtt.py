"""Per-path RTT estimation (RFC 9002 §5).

Maintains latest/min/smoothed RTT and RTT variance with the standard
EWMA update, honouring the peer's reported ACK delay for non-minimal
samples.  One estimator per path; XNC's QoE-aware loss threshold and the
PTO both read from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "INITIAL_RTT",
    "RttEstimator",
]

#: RFC 9002 recommended initial RTT before any sample exists.
INITIAL_RTT = 0.333


@dataclass
class RttEstimator:
    """RFC 9002-style RTT statistics for a single network path."""

    initial_rtt: float = INITIAL_RTT
    latest_rtt: float = field(init=False, default=0.0)
    min_rtt: float = field(init=False, default=float("inf"))
    smoothed_rtt: float = field(init=False, default=0.0)
    rtt_var: float = field(init=False, default=0.0)
    samples: int = field(init=False, default=0)
    # memoised default-argument pto(); invalidated on every update().  The
    # loss detector and path-liveness checks call pto() once per candidate
    # packet, far more often than new samples arrive.
    _pto_cache: float = field(init=False, default=-1.0, repr=False)

    def __post_init__(self):
        if self.initial_rtt <= 0:
            raise ValueError("initial_rtt must be positive")
        self.smoothed_rtt = self.initial_rtt
        self.rtt_var = self.initial_rtt / 2

    def update(self, rtt_sample: float, ack_delay: float = 0.0) -> None:
        """Fold one RTT sample in (RFC 9002 §5.3)."""
        if rtt_sample <= 0:
            return
        self._pto_cache = -1.0
        self.samples += 1
        self.latest_rtt = rtt_sample
        self.min_rtt = min(self.min_rtt, rtt_sample)
        # only subtract ack_delay when it doesn't take us below min_rtt
        adjusted = rtt_sample
        if adjusted >= self.min_rtt + ack_delay:
            adjusted -= ack_delay
        if self.samples == 1:
            self.smoothed_rtt = adjusted
            self.rtt_var = adjusted / 2
            return
        self.rtt_var = 0.75 * self.rtt_var + 0.25 * abs(self.smoothed_rtt - adjusted)
        self.smoothed_rtt = 0.875 * self.smoothed_rtt + 0.125 * adjusted

    def pto(self, max_ack_delay: float = 0.025, granularity: float = 0.001) -> float:
        """Probe timeout interval (RFC 9002 §6.2)."""
        if max_ack_delay == 0.025 and granularity == 0.001:
            cached = self._pto_cache
            if cached >= 0.0:
                return cached
            cached = self.smoothed_rtt + max(4 * self.rtt_var, granularity) + max_ack_delay
            self._pto_cache = cached
            return cached
        return self.smoothed_rtt + max(4 * self.rtt_var, granularity) + max_ack_delay

    def as_tuple(self) -> tuple:
        """(smoothed_rtt, rtt_var) — the pair the loss detector consumes."""
        return (self.smoothed_rtt, self.rtt_var)
