"""Trace formats: validation, capacity conversion, (de)serialisation."""

import numpy as np
import pytest

from repro.emulation.trace import (
    LinkTrace,
    LossProcess,
    MTU_BYTES,
    TraceError,
    load_json,
    load_mahimahi,
    opportunities_from_capacity,
    opportunities_from_rate,
    save_json,
    save_mahimahi,
)


class TestLossProcess:
    def test_zero(self):
        lp = LossProcess.zero()
        assert lp.probability_at(5.0) == 0.0

    def test_constant(self):
        lp = LossProcess.constant(0.25)
        assert lp.probability_at(123.0) == 0.25

    def test_piecewise_lookup(self):
        lp = LossProcess(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 1.0]))
        assert lp.probability_at(0.5) == 0.0
        assert lp.probability_at(1.5) == 0.5
        assert lp.probability_at(99.0) == 1.0

    def test_looping(self):
        lp = LossProcess(np.array([0.0, 1.0]), np.array([0.1, 0.9]))
        assert lp.probability_at(2.5, duration=2.0) == 0.1
        assert lp.probability_at(3.5, duration=2.0) == 0.9

    def test_validation(self):
        with pytest.raises(TraceError):
            LossProcess(np.array([0.0, 0.0]), np.array([0.1, 0.2]))  # not increasing
        with pytest.raises(TraceError):
            LossProcess(np.array([0.0]), np.array([1.5]))  # prob > 1
        with pytest.raises(TraceError):
            LossProcess(np.array([]), np.array([]))


class TestLinkTrace:
    def test_mean_capacity(self):
        opps = opportunities_from_rate(12.0, 10.0)
        trace = LinkTrace("t", opps, duration=10.0)
        assert trace.mean_capacity_mbps == pytest.approx(12.0, rel=0.01)

    def test_validation(self):
        with pytest.raises(TraceError):
            LinkTrace("t", np.array([0.5]), duration=0.0)
        with pytest.raises(TraceError):
            LinkTrace("t", np.array([5.0]), duration=1.0)  # beyond duration
        with pytest.raises(TraceError):
            LinkTrace("t", np.array([0.5, 0.2]), duration=1.0)  # unsorted
        with pytest.raises(TraceError):
            LinkTrace("t", np.array([0.5]), duration=1.0, base_delay=-1)


class TestConversions:
    def test_rate_zero(self):
        assert opportunities_from_rate(0.0, 10.0).size == 0

    def test_rate_spacing(self):
        opps = opportunities_from_rate(MTU_BYTES * 8 / 1e6, 1.0)  # 1 pkt/sec
        assert opps.size == 1

    def test_capacity_piecewise(self):
        # 12 Mbps for 1s, then 0 for 1s: all opportunities in [0,1)
        opps = opportunities_from_capacity([0.0, 1.0], [12.0, 0.0], 2.0)
        assert opps.size == pytest.approx(1000 * 12 / 8 / 1.5, rel=0.05)
        assert (opps < 1.0).all()

    def test_capacity_credit_carryover(self):
        # 0.6 packets per bucket accumulate into deliveries
        rate = 0.6 * MTU_BYTES * 8 / 1e6  # 0.6 pkts/s
        times = np.arange(0.0, 10.0)
        opps = opportunities_from_capacity(times, np.full(10, rate), 10.0)
        assert opps.size == 6

    def test_capacity_length_mismatch(self):
        with pytest.raises(TraceError):
            opportunities_from_capacity([0.0, 1.0], [1.0], 2.0)


class TestSerialisation:
    def test_mahimahi_roundtrip(self, tmp_path):
        opps = opportunities_from_rate(5.0, 2.0)
        trace = LinkTrace("orig", opps, 2.0, base_delay=0.02)
        path = tmp_path / "trace.up"
        save_mahimahi(trace, path)
        loaded = load_mahimahi(path, name="loaded", base_delay=0.02)
        # millisecond rounding: counts match, times within 1ms
        assert loaded.opportunities.size == trace.opportunities.size
        assert np.allclose(loaded.opportunities, trace.opportunities, atol=0.001)

    def test_mahimahi_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.up"
        path.write_text("# just a comment\n")
        with pytest.raises(TraceError):
            load_mahimahi(path)

    def test_json_roundtrip(self, tmp_path):
        opps = opportunities_from_rate(5.0, 2.0)
        loss = LossProcess(np.array([0.0, 1.0]), np.array([0.0, 0.3]))
        trace = LinkTrace("orig", opps, 2.0, base_delay=0.033, loss=loss)
        path = tmp_path / "trace.json"
        save_json(trace, path)
        loaded = load_json(path)
        assert loaded.name == "orig"
        assert loaded.base_delay == pytest.approx(0.033)
        assert np.allclose(loaded.opportunities, trace.opportunities)
        assert loaded.loss.probability_at(1.5) == pytest.approx(0.3)
