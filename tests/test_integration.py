"""Cross-module integration: the paper's qualitative claims, end to end."""

import pytest

from repro.cloud.controller import Controller
from repro.cloud.pop import default_pop_grid
from repro.emulation.cellular import generate_fleet_traces
from repro.experiments.runner import run_stream
from repro.video.source import VideoConfig

DURATION = 10.0
VIDEO = VideoConfig(bitrate_mbps=20.0)


def _first_harsh_seed():
    """Find a seed where at least one path suffers a real outage."""
    for seed in range(10):
        traces = generate_fleet_traces(duration=DURATION, seed=seed)
        if any((t.loss.loss_prob >= 1.0).mean() > 0.05 for t in traces):
            return seed
    return 0


@pytest.mark.slow  # each claim streams several full sessions
class TestSystemClaims:
    def test_multipath_beats_single_link(self):
        """Fusing four links must beat riding one (the core premise)."""
        seed = _first_harsh_seed()
        traces = generate_fleet_traces(duration=DURATION, seed=seed)
        fused = run_stream("cellfusion", uplink_traces=traces, duration=DURATION, seed=seed, video=VIDEO)
        single = run_stream("bonding", uplink_traces=traces, duration=DURATION, seed=seed, video=VIDEO)
        assert fused.delivery_ratio >= single.delivery_ratio
        assert fused.qoe.stall_ratio <= single.qoe.stall_ratio + 1e-9

    def test_xnc_stall_not_worse_than_reliable_inorder(self):
        seed = _first_harsh_seed()
        traces = generate_fleet_traces(duration=DURATION, seed=seed)
        xnc = run_stream("cellfusion", uplink_traces=traces, duration=DURATION, seed=seed, video=VIDEO)
        mpq = run_stream("mpquic", uplink_traces=traces, duration=DURATION, seed=seed, video=VIDEO)
        assert xnc.qoe.stall_ratio <= mpq.qoe.stall_ratio + 0.01

    def test_xnc_redundancy_far_below_re(self):
        seed = 1
        traces = generate_fleet_traces(duration=DURATION, seed=seed)
        xnc = run_stream("cellfusion", uplink_traces=traces, duration=DURATION, seed=seed, video=VIDEO)
        re = run_stream("RE", uplink_traces=traces, duration=DURATION, seed=seed, video=VIDEO)
        assert re.redundancy_ratio > 5 * max(xnc.redundancy_ratio, 0.01)

    def test_xnc_redundancy_below_pluribus(self):
        seed = 1
        traces = generate_fleet_traces(duration=DURATION, seed=seed)
        xnc = run_stream("cellfusion", uplink_traces=traces, duration=DURATION, seed=seed, video=VIDEO)
        plb = run_stream("pluribus", uplink_traces=traces, duration=DURATION, seed=seed, video=VIDEO)
        assert xnc.redundancy_ratio < plb.redundancy_ratio


class TestDeploymentScale:
    def test_many_vehicles_one_controller(self):
        controller = Controller()
        for pop in default_pop_grid():
            controller.register_pop(pop)
            controller.heartbeat(pop.pop_id, 0, now=0.0)
        # the paper's fleet: 100 vehicles
        chosen = []
        for i in range(100):
            device_id = "veh-%03d" % i
            token = controller.register_device(device_id)
            location = ((i * 37) % 800, (i * 13) % 120)
            chosen.append(controller.place(device_id, token, location).pop_id)
        # sessions spread across PoPs rather than piling on one
        assert len(set(chosen)) > 5
        total = sum(p.active_sessions for p in controller.pops())
        assert total == 100
