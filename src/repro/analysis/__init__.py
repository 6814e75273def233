"""Statistics and reporting used by the figure benchmarks."""

from .plots import ascii_cdf
from .report import format_qoe_rows, format_table
from .stats import (
    SeriesSummary,
    percentile,
    reduction_pct,
    tail_percentiles,
)

__all__ = [
    "ascii_cdf",
    "format_qoe_rows",
    "format_table",
    "SeriesSummary",
    "percentile",
    "reduction_pct",
    "tail_percentiles",
]
