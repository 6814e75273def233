"""Experiment runner: transport registry and end-to-end sessions."""

import pytest

from repro.emulation.cellular import generate_cellular_trace, generate_fleet_traces
from repro.experiments.runner import (
    TRANSPORT_NAMES,
    make_transport,
    run_single_link_stream,
    run_stream,
)
from repro.emulation.emulator import MultipathEmulator
from repro.emulation.events import EventLoop
from repro.video.source import VideoConfig

SHORT = 4.0
LIGHT_VIDEO = VideoConfig(bitrate_mbps=6.0)


class TestRegistry:
    def test_all_names_constructible(self):
        for name in TRANSPORT_NAMES:
            loop = EventLoop()
            emu = MultipathEmulator(loop, generate_fleet_traces(duration=2.0, seed=0))
            client, server = make_transport(name, loop, emu, lambda *a: None)
            assert client is not None and server is not None
            client.close()
            server.close()

    @pytest.mark.parametrize("ablation", ["xnc-no-rlnc", "xnc-pto-only"])
    def test_ablation_arm_leaves_callers_config_alone(self, ablation):
        from repro.core.endpoint import XncConfig

        cfg = XncConfig()
        run_stream(ablation, duration=1.0, seed=2, xnc_config=cfg)
        assert cfg.coding_enabled is True
        assert cfg.loss_policy.app_threshold is not None
        reused = run_stream("cellfusion", duration=1.0, seed=2, xnc_config=cfg)
        fresh = run_stream("cellfusion", duration=1.0, seed=2,
                           xnc_config=XncConfig())
        assert reused.digest() == fresh.digest()

    def test_unknown_name_rejected(self):
        loop = EventLoop()
        emu = MultipathEmulator(loop, generate_fleet_traces(duration=2.0, seed=0))
        with pytest.raises(ValueError):
            make_transport("carrier-pigeon", loop, emu, lambda *a: None)


@pytest.mark.parametrize("name", ["cellfusion", "mpquic", "mptcp", "bonding", "pluribus", "fec", "RE", "XLINK", "ECF", "minRTT"])
def test_run_stream_smoke(name):
    """Every transport completes a short session and produces sane metrics."""
    result = run_stream(name, duration=SHORT, seed=1, video=LIGHT_VIDEO)
    assert result.transport == name
    assert result.frames_sent > 0
    assert 0.0 <= result.qoe.stall_ratio <= 1.0
    assert 0.0 <= result.qoe.ssim <= 1.0
    assert result.qoe.avg_fps <= LIGHT_VIDEO.fps + 1
    assert result.packets_received <= result.packets_sent * 1.01
    assert len(result.frame_statuses) == result.frames_sent


class TestRunStreamDetails:
    def test_deterministic_given_seed(self):
        a = run_stream("cellfusion", duration=SHORT, seed=3, video=LIGHT_VIDEO)
        b = run_stream("cellfusion", duration=SHORT, seed=3, video=LIGHT_VIDEO)
        assert a.packets_received == b.packets_received
        assert a.qoe.stall_ratio == b.qoe.stall_ratio

    def test_different_seeds_differ(self):
        # both sessions may be loss-free, but the traces (and hence the
        # delay distribution) must differ between seeds
        a = run_stream("cellfusion", duration=SHORT, seed=1, video=LIGHT_VIDEO)
        b = run_stream("cellfusion", duration=SHORT, seed=2, video=LIGHT_VIDEO)
        assert sum(a.packet_delays) != sum(b.packet_delays)

    def test_packet_delays_positive(self):
        r = run_stream("cellfusion", duration=SHORT, seed=1, video=LIGHT_VIDEO)
        assert r.packet_delays
        assert all(d >= 0 for d in r.packet_delays)

    def test_explicit_traces_reused(self):
        traces = generate_fleet_traces(duration=SHORT, seed=5)
        a = run_stream("cellfusion", uplink_traces=traces, duration=SHORT, seed=5, video=LIGHT_VIDEO)
        b = run_stream("cellfusion", uplink_traces=traces, duration=SHORT, seed=5, video=LIGHT_VIDEO)
        assert a.packets_received == b.packets_received

    def test_single_link_stream(self):
        cell = generate_cellular_trace("LTE", duration=SHORT, seed=2)
        r = run_single_link_stream(cell.to_link_trace(), duration=SHORT, video=LIGHT_VIDEO)
        assert r.transport == "bonding"
        assert r.frames_sent > 0

    def test_xnc_low_redundancy_typical(self):
        r = run_stream("cellfusion", duration=6.0, seed=0)
        assert r.redundancy_ratio < 0.25  # paper: <10% on average over days
