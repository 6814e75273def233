"""Trace formats for the trace-driven link emulator.

The controlled experiments of §8.3 replay cellular traces through an
mpshell-style emulator.  A :class:`LinkTrace` follows Mahimahi's semantics:
a sorted array of *delivery opportunities* — timestamps at which the link
may transmit one MTU-sized packet — plus, in our extension, a base one-way
propagation delay and a piecewise-constant random-loss process (Appx. D's
collector records arrivals of constant-rate UDP probes; capacity and loss
are what that measurement recovers).

Traces can be serialised to/from Mahimahi's integer-millisecond text format
(losing the loss/delay extensions) or to a JSON side-car that keeps
everything.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

__all__ = [
    "MTU_BYTES",
    "TraceError",
    "LossProcess",
    "LinkTrace",
    "opportunities_from_rate",
    "opportunities_from_capacity",
    "save_mahimahi",
    "load_mahimahi",
    "save_json",
    "load_json",
]

#: Bytes carried by one delivery opportunity (Mahimahi's assumption).
MTU_BYTES = 1500


class TraceError(Exception):
    """Malformed or inconsistent trace data."""


@dataclass
class LossProcess:
    """Piecewise-constant per-packet random loss probability.

    ``bucket_times[i]`` is the start of bucket ``i``; ``loss_prob[i]``
    applies until the next bucket (the last bucket extends forever and the
    process loops with the trace).  Probability 1.0 models a full outage.
    """

    bucket_times: np.ndarray
    loss_prob: np.ndarray

    def __post_init__(self):
        self.bucket_times = np.asarray(self.bucket_times, dtype=np.float64)
        self.loss_prob = np.asarray(self.loss_prob, dtype=np.float64)
        if self.bucket_times.shape != self.loss_prob.shape:
            raise TraceError("bucket_times/loss_prob length mismatch")
        if self.bucket_times.size == 0:
            raise TraceError("loss process needs at least one bucket")
        if np.any(np.diff(self.bucket_times) <= 0):
            raise TraceError("bucket_times must be strictly increasing")
        if np.any((self.loss_prob < 0) | (self.loss_prob > 1)):
            raise TraceError("loss probabilities must lie in [0, 1]")
        # plain-list mirrors: probability_at is called once per drained
        # packet, where bisect over a list beats numpy's scalar searchsorted
        # (same float64 values, so lookups are bit-identical)
        self._times = self.bucket_times.tolist()
        self._probs = self.loss_prob.tolist()

    @classmethod
    def zero(cls) -> "LossProcess":
        return cls(np.array([0.0]), np.array([0.0]))

    @classmethod
    def constant(cls, prob: float) -> "LossProcess":
        return cls(np.array([0.0]), np.array([float(prob)]))

    def probability_at(self, t: float, duration: Optional[float] = None) -> float:
        """Loss probability at time ``t`` (looping if ``duration`` given)."""
        if duration is not None and duration > 0:
            t = t % duration
        idx = bisect_right(self._times, t) - 1
        if idx < 0:
            idx = 0
        return self._probs[idx]


@dataclass
class LinkTrace:
    """One direction of one cellular link, Mahimahi-style.

    ``opportunities`` is a sorted float array of times (seconds) at which
    one MTU-sized packet may leave the queue.  ``duration`` is the replay
    period; the emulator loops the trace beyond it.
    """

    name: str
    opportunities: np.ndarray
    duration: float
    base_delay: float = 0.030
    loss: LossProcess = field(default_factory=LossProcess.zero)

    def __post_init__(self):
        self.opportunities = np.asarray(self.opportunities, dtype=np.float64)
        if self.duration <= 0:
            raise TraceError("duration must be positive")
        if self.base_delay < 0:
            raise TraceError("base_delay must be >= 0")
        if self.opportunities.size and (
            np.any(self.opportunities < 0) or np.any(self.opportunities >= self.duration)
        ):
            raise TraceError("opportunities must lie in [0, duration)")
        if self.opportunities.size > 1 and np.any(np.diff(self.opportunities) < 0):
            raise TraceError("opportunities must be sorted")

    @property
    def mean_capacity_mbps(self) -> float:
        """Average capacity implied by the delivery opportunities."""
        return self.opportunities.size * MTU_BYTES * 8 / self.duration / 1e6


def opportunities_from_rate(rate_mbps: float, duration: float, start: float = 0.0) -> np.ndarray:
    """Evenly spaced delivery opportunities for a constant-rate link."""
    if rate_mbps <= 0:
        return np.array([], dtype=np.float64)
    interval = MTU_BYTES * 8 / (rate_mbps * 1e6)
    n = int(duration / interval)
    return start + np.arange(n) * interval


def opportunities_from_capacity(
    bucket_times: Sequence[float], capacity_mbps: Sequence[float], duration: float
) -> np.ndarray:
    """Delivery opportunities for a piecewise-constant capacity series.

    Within each bucket the opportunities are evenly spaced at the bucket's
    rate; fractional packet budget carries over between buckets so the
    long-run rate is exact.
    """
    times = np.asarray(bucket_times, dtype=np.float64)
    caps = np.asarray(capacity_mbps, dtype=np.float64)
    if times.shape != caps.shape:
        raise TraceError("bucket_times/capacity length mismatch")
    out: List[float] = []
    credit = 0.0
    for i, t0 in enumerate(times):
        t1 = times[i + 1] if i + 1 < times.size else duration
        if t1 <= t0:
            continue
        rate_pkts = caps[i] * 1e6 / 8 / MTU_BYTES
        budget = rate_pkts * (t1 - t0) + credit
        n = int(budget + 1e-9)  # guard against 0.6+0.4 -> 0.999... float dust
        credit = budget - n
        if n > 0:
            out.extend(np.linspace(t0, t1, n, endpoint=False))
    arr = np.array(out, dtype=np.float64)
    return arr[arr < duration]


def save_mahimahi(trace: LinkTrace, path: Union[str, Path]) -> None:
    """Write Mahimahi's one-integer-millisecond-per-line uplink format."""
    ms = np.round(trace.opportunities * 1000).astype(np.int64)
    with open(path, "w") as f:
        for value in ms:
            f.write("%d\n" % value)


def load_mahimahi(
    path: Union[str, Path], name: Optional[str] = None, base_delay: float = 0.030
) -> LinkTrace:
    """Read a Mahimahi trace file into a LinkTrace (loss defaults to zero)."""
    values: List[int] = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            values.append(int(line))
    if not values:
        raise TraceError("empty mahimahi trace %s" % path)
    opportunities = np.array(sorted(values), dtype=np.float64) / 1000.0
    duration = float(opportunities[-1]) + 0.001
    return LinkTrace(
        name=name or str(path), opportunities=opportunities, duration=duration, base_delay=base_delay
    )


def save_json(trace: LinkTrace, path: Union[str, Path]) -> None:
    """Write the full extended trace (opportunities + delay + loss)."""
    doc = {
        "name": trace.name,
        "duration": trace.duration,
        "base_delay": trace.base_delay,
        "opportunities": trace.opportunities.tolist(),
        "loss_bucket_times": trace.loss.bucket_times.tolist(),
        "loss_prob": trace.loss.loss_prob.tolist(),
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_json(path: Union[str, Path]) -> LinkTrace:
    """Read a trace written by :func:`save_json`."""
    with open(path) as f:
        doc = json.load(f)
    return LinkTrace(
        name=doc["name"],
        opportunities=np.array(doc["opportunities"], dtype=np.float64),
        duration=float(doc["duration"]),
        base_delay=float(doc["base_delay"]),
        loss=LossProcess(
            np.array(doc["loss_bucket_times"], dtype=np.float64),
            np.array(doc["loss_prob"], dtype=np.float64),
        ),
    )
