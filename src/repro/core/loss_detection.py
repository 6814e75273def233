"""QoE-aware loss detection (§4.4.1).

Legacy QUIC declares a packet lost via packet-threshold reordering or the
probe timeout (PTO, RFC 9002).  For real-time video a frame is worthless
after its deadline, so XNC instead marks a packet lost once it has been
unacknowledged for ``min(app_threshold, PTO)`` — the application-defined
time threshold is derived from the end-to-end latency the video needs.
This makes recovery more aggressive than legacy QUIC; fairness is preserved
because recovery traffic still spends congestion window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "pto_interval",
    "QoeLossPolicy",
]

#: RFC 9002 timer granularity used by the PTO computation.
DEFAULT_TIMER_GRANULARITY = 0.001


def pto_interval(
    smoothed_rtt: float,
    rtt_var: float,
    max_ack_delay: float = 0.025,
    granularity: float = DEFAULT_TIMER_GRANULARITY,
) -> float:
    """Probe timeout per RFC 9002 §6.2: srtt + max(4*rttvar, kGranularity) + max_ack_delay."""
    return smoothed_rtt + max(4.0 * rtt_var, granularity) + max_ack_delay


@dataclass
class QoeLossPolicy:
    """The QoE-aware threshold: min(application threshold, PTO).

    ``app_threshold`` encodes the latency budget of the video application
    (ToD's ~100 ms one-way budget leaves ~120 ms before a packet must be
    considered gone; it must also sit above the typical tunnel RTT or
    every queued packet looks lost).  Setting it to ``None`` degrades to
    PTO-only detection — that configuration is the "without QoE-aware loss
    detection" arm of the Fig. 13(b) ablation.
    """

    app_threshold: Optional[float] = 0.120
    max_ack_delay: float = 0.025
    granularity: float = DEFAULT_TIMER_GRANULARITY

    def __post_init__(self):
        if self.app_threshold is not None and self.app_threshold <= 0:
            raise ValueError("app_threshold must be positive")

    def threshold(self, smoothed_rtt: float, rtt_var: float) -> float:
        """Loss threshold given the path's current RTT statistics."""
        pto = pto_interval(smoothed_rtt, rtt_var, self.max_ack_delay, self.granularity)
        if self.app_threshold is None:
            return pto
        return min(self.app_threshold, pto)
