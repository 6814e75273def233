"""QoE-aware loss detection (§4.4.1)."""

import pytest

from repro.core.loss_detection import QoeLossPolicy, pto_interval


class TestPtoInterval:
    def test_rfc9002_formula(self):
        assert pto_interval(0.1, 0.01, max_ack_delay=0.025) == pytest.approx(
            0.1 + 0.04 + 0.025
        )

    def test_granularity_floor(self):
        # tiny rtt_var: the kGranularity term dominates 4*rttvar
        assert pto_interval(0.1, 0.0001, max_ack_delay=0.0, granularity=0.001) == pytest.approx(0.101)


class TestQoePolicy:
    def test_threshold_is_min_of_app_and_pto(self):
        policy = QoeLossPolicy(app_threshold=0.05)
        # high RTT: app threshold wins
        assert policy.threshold(0.2, 0.05) == pytest.approx(0.05)
        # tiny RTT: PTO wins
        tiny = policy.threshold(0.001, 0.0001)
        assert tiny < 0.05

    def test_pto_only_mode(self):
        policy = QoeLossPolicy(app_threshold=None)
        assert policy.threshold(0.2, 0.05) == pytest.approx(pto_interval(0.2, 0.05))

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            QoeLossPolicy(app_threshold=0.0)

    def test_qoe_more_aggressive_than_pto(self):
        """The paper's point: min(app, PTO) <= PTO always."""
        qoe = QoeLossPolicy(app_threshold=0.12)
        pto = QoeLossPolicy(app_threshold=None)
        for srtt, var in ((0.05, 0.01), (0.2, 0.05), (0.5, 0.2)):
            assert qoe.threshold(srtt, var) <= pto.threshold(srtt, var)
