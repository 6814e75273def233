"""Zero-dependency metrics primitives keyed on the simulation clock.

Two instrument kinds, the conventional counter and histogram:

* :class:`Counter` — monotonically increasing event count;
* :class:`Histogram` — log-bucketed value distribution with p50/p95/p99
  estimation.  Buckets grow geometrically (HdrHistogram-style), so
  recording is O(1) and quantile estimates carry a bounded *relative*
  error of about half the growth factor — plenty for delay CDFs spanning
  100 µs to 10 s.

Every instrument supports an **associative, commutative** in-place
``merge(other)`` — the primitive fleet sharding needs: per-vehicle (or
per-PoP) registries merge pairwise in any grouping and produce the same
rollup as one global registry would have.  For histograms this holds
*exactly* (bucket tables are sparse integer maps over a shared geometric
grid), which is what makes fleet-level delay CDFs honest.

Everything here is plain Python on purpose: the registry must import (and
no-op) on machines with nothing but the standard library.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "Histogram",
    "MetricsRegistry",
]

#: Geometric bucket growth; ~1.6% worst-case relative quantile error.
DEFAULT_GROWTH = 1.03
#: Values below this are clamped into bucket 0 (100 ns in seconds-units).
DEFAULT_MIN_VALUE = 1e-7


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def merge(self, other: "Counter") -> "Counter":
        """Fold another counter in (associative: counts sum)."""
        self.value += other.value
        return self

    def as_dict(self) -> dict:
        return {"name": self.name, "kind": "counter", "value": self.value}

    def state_dict(self) -> dict:
        """Exact state for cross-process shipping (see Histogram)."""
        return {"name": self.name, "value": self.value}

    @classmethod
    def from_state(cls, state: dict) -> "Counter":
        c = cls(state["name"])
        c.value = int(state["value"])
        return c


class Histogram:
    """Log-bucketed histogram with quantile estimation.

    ``record`` maps a positive value to a geometric bucket index in O(1);
    ``quantile`` walks the (sparse) bucket table and returns the geometric
    midpoint of the bucket holding the requested rank.  Exact count, sum,
    min, and max are kept alongside so means are not bucket-quantised.
    """

    __slots__ = ("name", "growth", "min_value", "_log_growth", "_buckets",
                 "count", "total", "min", "max")

    def __init__(self, name: str, growth: float = DEFAULT_GROWTH,
                 min_value: float = DEFAULT_MIN_VALUE):
        if growth <= 1.0:
            raise ValueError("growth must exceed 1.0")
        self.name = name
        self.growth = growth
        self.min_value = min_value
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        return int(math.log(value / self.min_value) / self._log_growth) + 1

    def _bucket_value(self, index: int) -> float:
        if index == 0:
            return self.min_value
        # geometric midpoint of [g^(i-1), g^i) * min_value
        return self.min_value * self.growth ** (index - 0.5)

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        idx = self._index(value)
        self._buckets[idx] = self._buckets.get(idx, 0) + 1

    def record_many(self, values) -> None:
        """Record a whole sequence with one pass of bookkeeping.

        Equivalent to ``for v in values: self.record(v)`` — summary fields
        and bucket counts end up identical — but pays the attribute and
        dict overhead once per batch instead of once per value.
        """
        values = list(values)
        if not values:
            return
        self.count += len(values)
        self.total += sum(values)
        lo, hi = min(values), max(values)
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi
        buckets = self._buckets
        index = self._index
        for value in values:
            idx = index(value)
            buckets[idx] = buckets.get(idx, 0) + 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram in (exactly associative).

        Both sides must share the geometric grid (``growth`` and
        ``min_value``): bucket indices then mean the same value range on
        both sides and the merge is a plain sparse-map sum, so any merge
        tree over the same shards yields identical buckets, count, sum,
        and extremes — the property the fleet-rollup tests pin.
        """
        if (other.growth != self.growth or other.min_value != self.min_value):
            raise ValueError(
                "cannot merge histograms on different grids: "
                "growth %r/%r min_value %r/%r"
                % (self.growth, other.growth, self.min_value, other.min_value))
        buckets = self._buckets
        for idx, n in other._buckets.items():
            buckets[idx] = buckets.get(idx, 0) + n
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 < q <= 1) of recorded values."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must lie in (0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if seen >= rank:
                # clamp the estimate to the observed extremes
                return min(max(self._bucket_value(idx), self.min), self.max)
        return self.max

    def percentiles(self) -> Dict[str, float]:
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def as_dict(self) -> dict:
        d = {
            "name": self.name,
            "kind": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }
        d.update(self.percentiles())
        return d

    def state_dict(self) -> dict:
        """Exact, lossless state — unlike :meth:`as_dict` (a summary for
        humans and exports), this keeps the sparse bucket table so a
        histogram shipped between shard processes merges *identically* to
        one that never left.  Bucket keys are stringified for JSON; order
        is sorted so the serialisation is byte-stable."""
        return {
            "name": self.name,
            "growth": self.growth,
            "min_value": self.min_value,
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(k): self._buckets[k]
                        for k in sorted(self._buckets)},
        }

    @classmethod
    def from_state(cls, state: dict) -> "Histogram":
        h = cls(state["name"], growth=state["growth"],
                min_value=state["min_value"])
        h.count = int(state["count"])
        h.total = float(state["sum"])
        h.min = math.inf if state["min"] is None else float(state["min"])
        h.max = -math.inf if state["max"] is None else float(state["max"])
        h._buckets = {int(k): int(n) for k, n in state["buckets"].items()}
        return h

    def iter_cdf(self):
        """Yield ``(bucket_value, cumulative_fraction)`` pairs in value
        order — the points a CDF plot needs, without expanding counts."""
        if not self.count:
            return
        seen = 0
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            value = min(max(self._bucket_value(idx), self.min), self.max)
            yield value, seen / self.count


class MetricsRegistry:
    """Get-or-create home for every instrument in one run.

    ``clock`` is the run's simulation clock (``Telemetry.bind_clock``
    points it at the loop); no instrument reads it.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock = clock or (lambda: 0.0)
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def histogram(self, name: str, growth: float = DEFAULT_GROWTH) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, growth=growth)
        return h

    # -- hot-path shorthands -------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).record(value)

    def observe_many(self, name: str, values) -> None:
        self.histogram(name).record_many(values)

    # -- fleet rollup ----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold every instrument of ``other`` into this registry.

        Instruments are matched by name and created on first sight (a
        new histogram adopts the incoming grid), so merging shard
        registries in any pairwise order reproduces the global registry.
        """
        for name, c in other._counters.items():
            self.counter(name).merge(c)
        for name, h in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                mine = self._histograms[name] = Histogram(
                    name, growth=h.growth, min_value=h.min_value)
            mine.merge(h)
        return self

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> List[dict]:
        """Every instrument as a serialisable dict, names sorted."""
        out: List[dict] = []
        for store in (self._counters, self._histograms):
            for name in sorted(store):
                out.append(store[name].as_dict())
        return out

    def state_dict(self) -> dict:
        """Exact registry state (all instruments, lossless histograms).

        JSON-safe and byte-stable (sorted names); ``from_state`` round
        trips it so registries can cross process boundaries and still
        merge exactly — the contract the fleet runner's shard workers
        rely on.  ``gauges`` stays, always empty, because the fleet
        report digest hashes this document."""
        return {
            "counters": [self._counters[n].state_dict()
                         for n in sorted(self._counters)],
            "gauges": [],
            "histograms": [self._histograms[n].state_dict()
                           for n in sorted(self._histograms)],
        }

    @classmethod
    def from_state(cls, state: dict) -> "MetricsRegistry":
        reg = cls()
        for s in state.get("counters", ()):
            c = Counter.from_state(s)
            reg._counters[c.name] = c
        for s in state.get("histograms", ()):
            h = Histogram.from_state(s)
            reg._histograms[h.name] = h
        return reg
