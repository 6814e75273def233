"""Statistics helpers: percentiles, tail reports, mean/std summaries.

Thin, well-tested wrappers used by every benchmark so the numbers quoted
in EXPERIMENTS.md all come from one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

__all__ = [
    "percentile",
    "tail_percentiles",
    "reduction_pct",
    "SeriesSummary",
]


def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile (0..100) with linear interpolation."""
    if not 0 <= p <= 100:
        raise ValueError("percentile must be in [0, 100]")
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty sample")
    return float(np.percentile(arr, p))


def tail_percentiles(values: Sequence[float]) -> Dict[str, float]:
    """The paper's standard tail report: P50/P95/P99/P99.9."""
    return {
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
        "p99.9": percentile(values, 99.9),
    }


def reduction_pct(baseline: float, improved: float) -> float:
    """Percent reduction of ``improved`` relative to ``baseline``."""
    if baseline == 0:
        return 0.0
    return (baseline - improved) / baseline * 100.0


@dataclass
class SeriesSummary:
    """mean/std/min/max of one metric across repeated runs."""

    mean: float
    std: float
    min: float
    max: float
    n: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "SeriesSummary":
        arr = np.asarray(list(values), dtype=np.float64)
        if arr.size == 0:
            raise ValueError("empty sample")
        return cls(float(arr.mean()), float(arr.std()), float(arr.min()), float(arr.max()), arr.size)
