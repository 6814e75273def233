"""BBR congestion control (simplified, after Cardwell et al. [50]).

XNC uses BBR "due to its resilience to packet losses and its ability to
quickly grab available bandwidth" (§4.2).  This implementation keeps the
properties the evaluation depends on:

* model-based window: cwnd = cwnd_gain x max_bandwidth x min_rtt, so random
  loss does *not* shrink the window (unlike NewReno);
* STARTUP's 2/ln2 gain finds the link rate in a few RTTs;
* DRAIN empties the startup queue; PROBE_BW cycles pacing gains to track
  capacity changes; PROBE_RTT periodically re-measures the floor RTT.

Delivery rate is sampled from cumulative-delivered deltas over a short
window — a simplification of BBR's per-packet rate sampler that behaves
identically at the simulator's granularity.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from .base import CongestionController, INITIAL_WINDOW, MIN_WINDOW

__all__ = [
    "STARTUP_GAIN",
    "BbrController",
]

#: BBR constants from the paper/reference implementation.
STARTUP_GAIN = 2.885  # 2/ln(2)
DRAIN_GAIN = 1.0 / STARTUP_GAIN
PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
MIN_RTT_WINDOW = 10.0
PROBE_RTT_DURATION = 0.200
PROBE_RTT_CWND_PACKETS = 4
BW_FILTER_ROUNDS = 10
STARTUP_FULL_BW_THRESHOLD = 1.25
STARTUP_FULL_BW_ROUNDS = 3


class BbrController(CongestionController):
    """Simplified BBR over the common controller interface."""

    STARTUP, DRAIN, PROBE_BW, PROBE_RTT = "STARTUP", "DRAIN", "PROBE_BW", "PROBE_RTT"

    def __init__(self, mss: int = 1400):
        super().__init__(mss)
        self.state = self.STARTUP
        self.pacing_gain = STARTUP_GAIN
        self.cwnd_gain = STARTUP_GAIN
        # bandwidth filter: (round_index, bw) samples, max over last rounds
        self._bw_samples: Deque[Tuple[int, float]] = deque()
        self.max_bandwidth = 0.0  # bytes/sec
        # delivery-rate sampling: (time, cumulative delivered bytes)
        self._delivered_history: Deque[Tuple[float, int]] = deque()
        # min RTT filter
        self.min_rtt = float("inf")
        self._min_rtt_stamp = 0.0
        # round accounting (a round is one smoothed RTT of wall time)
        self._round = 0
        self._round_start = 0.0
        self._latest_rtt = 0.1
        # startup exit detection
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        # PROBE_BW cycling
        self._cycle_index = 0
        self._cycle_stamp = 0.0
        # PROBE_RTT
        self._probe_rtt_done_stamp: Optional[float] = None
        self._saved_cwnd = INITIAL_WINDOW

    # -- helpers ---------------------------------------------------------

    def _bdp(self) -> float:
        if self.max_bandwidth <= 0 or self.min_rtt == float("inf"):
            return float(INITIAL_WINDOW)
        return self.max_bandwidth * self.min_rtt

    def _sample_bandwidth(self, now: float) -> None:
        history = self._delivered_history
        history.append((now, self.delivered_bytes))
        horizon = now - max(self._latest_rtt, 0.05)
        while len(history) > 2 and history[0][0] < horizon:
            history.popleft()
        first_time, first_delivered = history[0]
        span = now - first_time
        if span <= 0:
            return
        bw = (self.delivered_bytes - first_delivered) / span
        # windowed max over the last BW_FILTER_ROUNDS rounds, aggregated to
        # one (round, max) entry per round so the filter stays O(rounds).
        # max_bandwidth is maintained incrementally: per-round entries only
        # ever grow, so the filter max can change only when a new sample
        # exceeds it or an eviction removes the entry that held it.
        samples = self._bw_samples
        if samples and samples[-1][0] == self._round:
            if bw > samples[-1][1]:
                samples[-1] = (self._round, bw)
        else:
            samples.append((self._round, bw))
        cutoff = self._round - BW_FILTER_ROUNDS
        evicted_max = False
        while samples and samples[0][0] < cutoff:
            if samples[0][1] >= self.max_bandwidth:
                evicted_max = True
            samples.popleft()
        if evicted_max:
            mb = 0.0
            for _, b in samples:
                if b > mb:
                    mb = b
            self.max_bandwidth = mb
        elif bw > self.max_bandwidth:
            self.max_bandwidth = bw

    # The state-machine steps below are each a no-op outside their own
    # state; ``_acked`` enters them only there.

    def _check_startup_done(self) -> None:
        if self.max_bandwidth >= self._full_bw * STARTUP_FULL_BW_THRESHOLD:
            self._full_bw = self.max_bandwidth
            self._full_bw_rounds = 0
            return
        self._full_bw_rounds += 1
        if self._full_bw_rounds >= STARTUP_FULL_BW_ROUNDS:
            self.state = self.DRAIN
            self.pacing_gain = DRAIN_GAIN
            self.cwnd_gain = STARTUP_GAIN

    def _maybe_enter_probe_bw(self, now: float) -> None:
        if self.bytes_in_flight <= self._bdp():
            self.state = self.PROBE_BW
            self.pacing_gain = 1.0
            self.cwnd_gain = 2.0
            self._cycle_index = 2
            self._cycle_stamp = now

    def _advance_probe_bw_cycle(self, now: float) -> None:
        interval = self.min_rtt if self.min_rtt != float("inf") else self._latest_rtt
        if now - self._cycle_stamp >= interval:
            self._cycle_index = (self._cycle_index + 1) % len(PROBE_BW_GAINS)
            self._cycle_stamp = now
            self.pacing_gain = PROBE_BW_GAINS[self._cycle_index]

    def _maybe_probe_rtt(self, now: float) -> None:
        if self.state == self.PROBE_RTT:
            if self._probe_rtt_done_stamp is not None and now >= self._probe_rtt_done_stamp:
                self._min_rtt_stamp = now
                self.state = self.PROBE_BW
                self.pacing_gain = 1.0
                self.cwnd_gain = 2.0
                self.cwnd = max(self.cwnd, self._saved_cwnd)
            return
        if self.state == self.PROBE_BW and now - self._min_rtt_stamp > MIN_RTT_WINDOW:
            self.state = self.PROBE_RTT
            self._saved_cwnd = self.cwnd
            self._probe_rtt_done_stamp = now + PROBE_RTT_DURATION

    # -- controller hooks --------------------------------------------------

    def _acked(self, size: int, rtt: float, now: float) -> None:
        self._latest_rtt = rtt
        if rtt < self.min_rtt or now - self._min_rtt_stamp > MIN_RTT_WINDOW:
            self.min_rtt = min(rtt, self.min_rtt if now - self._min_rtt_stamp <= MIN_RTT_WINDOW else rtt)
            self._min_rtt_stamp = now
        # a round is one RTT of sim time
        if now - self._round_start >= rtt:
            self._round += 1
            self._round_start = now
        self._sample_bandwidth(now)
        if self.state == self.STARTUP:
            self._check_startup_done()
        if self.state == self.DRAIN:
            self._maybe_enter_probe_bw(now)
        if self.state == self.PROBE_BW:
            self._advance_probe_bw_cycle(now)
        self._maybe_probe_rtt(now)
        if self.state == self.PROBE_RTT:
            self.cwnd = PROBE_RTT_CWND_PACKETS * self.mss
        else:
            target = int(self.cwnd_gain * self._bdp())
            self.cwnd = target if target > MIN_WINDOW else MIN_WINDOW

    def _lost(self, size: int, now: float) -> None:
        # BBR is rate-based: loss does not collapse the model window.  The
        # reference implementation bounds inflight on severe loss; we keep
        # the floor only.
        self.cwnd = max(MIN_WINDOW, self.cwnd)

    @property
    def pacing_rate(self) -> Optional[float]:
        if self.max_bandwidth <= 0:
            return None
        return self.pacing_gain * self.max_bandwidth
