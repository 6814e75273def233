"""Terminal plot rendering."""

from repro.analysis.plots import ascii_cdf


class TestCdf:
    def test_multiple_series_with_legend(self):
        out = ascii_cdf({"a": [1, 2, 3], "b": [10, 20, 30]})
        assert "*=a" in out and "o=b" in out

    def test_log_scale(self):
        out = ascii_cdf({"d": [0.01, 0.1, 1.0, 10.0]}, log_x=True)
        assert "log scale" in out

    def test_empty(self):
        assert ascii_cdf({}) == "(no data)"
        assert ascii_cdf({"a": []}) == "(no data)"
