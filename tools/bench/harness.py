"""Trial runner for the microbenchmark subsystem.

Every benchmark is a *deterministic* workload — seeded inputs, sim-clock
event patterns, fixed iteration counts — timed with the wall clock.  The
harness removes the two classic sources of flakiness:

* **warmup trials** absorb import costs, allocator warm-up, and branch
  predictor training before anything is recorded;
* **repeated measured trials** are summarised by their *median* (robust
  to one slow trial from a scheduler hiccup) with the stddev reported
  alongside so a noisy environment is visible in the artifact.

A benchmark callable receives a :class:`Workload` scale ("smoke" or
"full") and returns ``(units_done, unit)`` — e.g. ``(1_000_000, "bytes")``
— while the harness times it.  Throughput = units_done / elapsed.

Schema v2 adds one allocation metric per benchmark: ``allocs_per_op``,
the *net* live-block growth across one complete workload invocation,
normalised per unit.  It is measured on a dedicated **untimed** rep after
warmup — ``sys.getallocatedblocks()`` before/after with the cyclic GC
parked — so the timed trials stay undisturbed (no tracemalloc, no GC
pauses injected into the measurement window).  Net growth is a retention
gauge: transient per-iteration churn that the allocator reclaims
immediately is the static analyzer's job (``alloc-in-hot-loop``); what
the bench gates is memory the workload *keeps* per unit of work.
"""

from __future__ import annotations

import gc
import math
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

__all__ = [
    "Workload",
    "TrialStats",
    "BenchResult",
    "Benchmark",
    "measure_allocs_per_op",
    "run_benchmark",
]

#: Measured trials per benchmark at full scale (median is reported).
DEFAULT_TRIALS = 5
#: Warmup (discarded) trials at full scale.
DEFAULT_WARMUP = 2


@dataclass(frozen=True)
class Workload:
    """Scale knobs handed to each benchmark body."""

    #: "smoke" (tiny, CI-budget) or "full" (the trajectory numbers).
    mode: str = "full"
    #: Multiplier the bodies apply to their iteration counts.
    scale: float = 1.0

    def __post_init__(self):
        if self.mode not in ("full", "smoke"):
            raise ValueError("mode must be 'full' or 'smoke', got %r" % self.mode)
        if not (self.scale > 0):
            raise ValueError("scale must be positive, got %r" % self.scale)

    @property
    def smoke(self) -> bool:
        return self.mode == "smoke"


@dataclass
class TrialStats:
    """Throughput summary over the measured trials."""

    values: List[float]

    @property
    def median(self) -> float:
        return statistics.median(self.values)

    @property
    def stddev(self) -> float:
        if len(self.values) < 2:
            return 0.0
        return statistics.stdev(self.values)

    @property
    def rel_stddev(self) -> float:
        m = self.median
        return self.stddev / m if m else 0.0


@dataclass
class BenchResult:
    """One benchmark's outcome, JSON-ready."""

    name: str
    family: str
    unit: str
    value: float
    stddev: float
    trials: List[float]
    #: Net retained allocator blocks per unit of work (schema v2).
    allocs_per_op: Optional[float] = None
    #: Pre-optimization value merged in via ``--baseline`` (None until then).
    baseline_value: Optional[float] = None
    baseline_stddev: Optional[float] = None

    @property
    def speedup(self) -> Optional[float]:
        if not self.baseline_value:
            return None
        return self.value / self.baseline_value

    def as_dict(self) -> dict:
        d = {
            "name": self.name,
            "family": self.family,
            "unit": self.unit,
            "value": self.value,
            "stddev": self.stddev,
            "trials": list(self.trials),
        }
        if self.allocs_per_op is not None:
            d["allocs_per_op"] = self.allocs_per_op
        if self.baseline_value is not None:
            d["baseline"] = {
                "value": self.baseline_value,
                "stddev": self.baseline_stddev or 0.0,
            }
            d["speedup"] = self.speedup
        return d


@dataclass
class Benchmark:
    """A registered benchmark: name, family, unit, and the workload body.

    ``body(workload)`` must perform the complete workload once and return
    the number of abstract units processed (events, bytes, packets,
    sim-seconds...).  The body is re-invoked per trial; it must be
    side-effect free between invocations (fresh loop/encoder per call).
    """

    name: str
    family: str
    unit: str
    body: Callable[[Workload], float]
    #: Trial-count overrides (smoke mode always uses 1 warmup / 2 trials).
    trials: int = DEFAULT_TRIALS
    warmup: int = DEFAULT_WARMUP


def measure_allocs_per_op(body: Callable[[Workload], float],
                          workload: Workload) -> float:
    """Net live-block growth of one workload invocation, per unit.

    Runs the body once *untimed* with the cyclic GC disabled (so cycle
    collection doesn't race the block count) after a full collection (so
    pre-existing garbage isn't charged to the body).  The result is
    clamped at zero: a body that *frees* more than it retains (e.g. by
    shrinking an interned-object cache) reports 0, not a negative budget.
    """
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        units = body(workload)
        after = sys.getallocatedblocks()
    finally:
        if gc_was_enabled:
            gc.enable()
    if not units or units <= 0:
        return 0.0
    return max(0, after - before) / units


def run_benchmark(bench: Benchmark, workload: Workload) -> BenchResult:
    """Run warmup + measured trials; return the median-throughput result."""
    warmup = 1 if workload.smoke else bench.warmup
    trials = 2 if workload.smoke else bench.trials
    for _ in range(warmup):
        bench.body(workload)
    # allocation rep: after warmup (module/class caches are primed) and
    # before the timed trials so it can never perturb the clock readings
    allocs_per_op = measure_allocs_per_op(bench.body, workload)
    throughputs: List[float] = []
    for _ in range(trials):
        t0 = time.perf_counter()
        units = bench.body(workload)
        elapsed = time.perf_counter() - t0
        if elapsed <= 0 or not math.isfinite(elapsed):
            elapsed = 1e-9
        throughputs.append(units / elapsed)
    stats = TrialStats(throughputs)
    return BenchResult(
        name=bench.name,
        family=bench.family,
        unit=bench.unit,
        value=stats.median,
        stddev=stats.stddev,
        trials=throughputs,
        allocs_per_op=allocs_per_op,
    )
