"""Congestion controllers: base accounting, NewReno dynamics, BBR model."""

import pytest

from repro.quic.cc.base import (
    CongestionController,
    DEFAULT_MSS,
    INITIAL_WINDOW,
    MIN_WINDOW,
)
from repro.quic.cc.bbr import BbrController, STARTUP_GAIN
from repro.quic.cc.newreno import NewRenoController


class TestBaseAccounting:
    def test_initial_state(self):
        cc = CongestionController()
        assert cc.bytes_in_flight == 0
        assert cc.cwnd == INITIAL_WINDOW

    def test_sent_ack_loss_cycle(self):
        cc = CongestionController()
        cc.on_sent(1000, 0.0)
        assert cc.bytes_in_flight == 1000
        cc.on_ack([400], [0.05], 0.1)
        assert cc.bytes_in_flight == 600
        assert cc.delivered_bytes == 400
        cc.on_loss(600, 0.2)
        assert cc.bytes_in_flight == 0
        assert cc.lost_bytes == 600

    def test_can_send_window_bound(self):
        cc = CongestionController()
        assert cc.can_send(INITIAL_WINDOW)
        cc.on_sent(INITIAL_WINDOW, 0.0)
        assert not cc.can_send(1)

    def test_available_packets(self):
        cc = CongestionController(mss=1000)
        cc.cwnd = 5500
        cc.on_sent(1000, 0.0)
        assert cc.available_window() == 4500
        assert cc.available_packets() == 4

    def test_inflight_never_negative(self):
        cc = CongestionController()
        cc.on_ack([1000], [0.05], 0.0)
        assert cc.bytes_in_flight == 0

    def test_invalid_mss(self):
        with pytest.raises(ValueError):
            CongestionController(mss=0)


class TestNewReno:
    def test_slow_start_doubles(self):
        cc = NewRenoController()
        start = cc.cwnd
        cc.on_sent(start, 0.0)
        cc.on_ack([start], [0.05], 0.1)
        assert cc.cwnd == 2 * start

    def test_loss_halves_and_sets_ssthresh(self):
        cc = NewRenoController()
        cc.cwnd = 100_000
        cc.on_sent(1000, 0.0)
        cc.on_loss(1000, 1.0)
        assert cc.cwnd == 50_000
        assert cc.ssthresh == 50_000
        assert not cc.in_slow_start

    def test_one_reduction_per_epoch(self):
        cc = NewRenoController()
        cc.cwnd = 100_000
        cc.on_sent(3000, 0.0)
        cc.on_loss(1000, 1.0)
        cc.on_loss(1000, 1.0)  # same instant: same epoch
        assert cc.cwnd == 50_000

    def test_floor_at_min_window(self):
        cc = NewRenoController()
        for i in range(20):
            cc.on_sent(1000, float(i))
            cc.on_loss(1000, float(i) + 0.5)
        assert cc.cwnd >= MIN_WINDOW

    def test_congestion_avoidance_linear(self):
        cc = NewRenoController()
        cc.ssthresh = cc.cwnd  # exit slow start
        before = cc.cwnd
        # one full window of acks grows cwnd by ~one MSS
        acked = 0
        while acked < before:
            cc.on_sent(DEFAULT_MSS, 0.0)
            cc.on_ack([DEFAULT_MSS], [0.05], 0.1)
            acked += DEFAULT_MSS
        assert before < cc.cwnd <= before + 2 * DEFAULT_MSS


def drive_bbr(cc, rate_bps, rtt, seconds, start=0.0):
    """Feed BBR a synthetic steady link: acks arriving at link rate."""
    now = start
    pkt = DEFAULT_MSS
    interval = pkt / rate_bps
    while now < start + seconds:
        if cc.can_send(pkt):
            cc.on_sent(pkt, now)
        cc.on_ack([pkt], [rtt], now + rtt)
        now += interval
    return now


class TestBbr:
    def test_startup_gain_active(self):
        cc = BbrController()
        assert cc.state == BbrController.STARTUP
        assert cc.pacing_gain == pytest.approx(STARTUP_GAIN)

    def test_finds_bandwidth(self):
        cc = BbrController()
        rate = 5e6 / 8  # 5 Mbps in bytes/s
        drive_bbr(cc, rate, rtt=0.05, seconds=3.0)
        assert cc.max_bandwidth == pytest.approx(rate, rel=0.5)

    def test_exits_startup(self):
        cc = BbrController()
        drive_bbr(cc, 2e6 / 8, rtt=0.05, seconds=4.0)
        assert cc.state in (BbrController.PROBE_BW, BbrController.PROBE_RTT, BbrController.DRAIN)

    def test_loss_does_not_collapse_window(self):
        """BBR's key property for XNC: loss-resilience (§4.2)."""
        cc = BbrController()
        drive_bbr(cc, 5e6 / 8, rtt=0.05, seconds=3.0)
        before = cc.cwnd
        for i in range(50):
            cc.on_sent(DEFAULT_MSS, 3.0 + i * 0.001)
            cc.on_loss(DEFAULT_MSS, 3.0 + i * 0.001)
        assert cc.cwnd >= before * 0.9

    def test_newreno_collapses_where_bbr_does_not(self):
        reno, bbr = NewRenoController(), BbrController()
        drive_bbr(bbr, 5e6 / 8, rtt=0.05, seconds=3.0)
        reno.cwnd = bbr.cwnd
        for i in range(5):
            t = 3.0 + i * 0.3
            reno.on_sent(DEFAULT_MSS, t)
            reno.on_loss(DEFAULT_MSS, t)
            bbr.on_sent(DEFAULT_MSS, t)
            bbr.on_loss(DEFAULT_MSS, t)
        assert reno.cwnd < bbr.cwnd

    def test_cwnd_tracks_bdp(self):
        cc = BbrController()
        rate = 10e6 / 8
        rtt = 0.04
        drive_bbr(cc, rate, rtt=rtt, seconds=3.0)
        bdp = rate * rtt
        assert cc.cwnd >= bdp * 0.8
        assert cc.cwnd <= bdp * 6

    def test_min_rtt_tracked(self):
        cc = BbrController()
        drive_bbr(cc, 5e6 / 8, rtt=0.05, seconds=1.0)
        assert cc.min_rtt == pytest.approx(0.05, rel=0.01)

    def test_pacing_rate_none_before_estimate(self):
        assert BbrController().pacing_rate is None
