"""§10 future-work extensions: server migration and satellite fusion."""

import importlib.util

import numpy as np
import pytest

from repro.cloud.controller import Controller
from repro.cloud.migration import (
    DEFAULT_HOLD,
    MigrationManager,
    SWITCHOVER_GAP,
    drive_with_migration,
)
from repro.cloud.pop import PopNode
from repro.emulation.cellular import (
    PROFILE_LEO_SAT,
    generate_cellular_trace,
    profile_for,
)
from repro.experiments.runner import run_single_link_stream, run_stream
from repro.video.source import VideoConfig
from tests.lintkit import REPO_ROOT


def _rural_example():
    """examples/rural_satellite.py, which builds the §10 rural trace mix."""
    spec = importlib.util.spec_from_file_location(
        "example_rural_satellite", REPO_ROOT / "examples" / "rural_satellite.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def generate_rural_traces(duration, seed):
    return _rural_example().rural_traces(duration, seed)


def migration_world():
    controller = Controller()
    # two PoPs 400 km apart
    controller.register_pop(PopNode("west", "A", (0.0, 0.0)))
    controller.register_pop(PopNode("east", "B", (400.0, 0.0)))
    for pid in ("west", "east"):
        controller.heartbeat(pid, 0, now=0.0)
    token = controller.register_device("veh-1")
    controller.assign("veh-1", "west")
    return controller, token


class TestServerMigration:
    def test_no_migration_when_current_is_best(self):
        controller, token = migration_world()
        mgr = MigrationManager(controller, "veh-1", token)
        for t in range(20):
            assert mgr.observe((10.0, 0.0), now=float(t)) is None
        assert controller.assigned_pop("veh-1") == "west"

    def test_migrates_after_hysteresis(self):
        controller, token = migration_world()
        mgr = MigrationManager(controller, "veh-1", token, hold=3.0)
        # vehicle drives far east: "east" is clearly closer
        events = [mgr.observe((390.0, 0.0), now=float(t)) for t in range(10)]
        fired = [e for e in events if e is not None]
        assert len(fired) == 1
        assert fired[0].from_pop == "west" and fired[0].to_pop == "east"
        assert fired[0].gap == SWITCHOVER_GAP
        assert controller.assigned_pop("veh-1") == "east"

    def test_hysteresis_blocks_flapping(self):
        controller, token = migration_world()
        mgr = MigrationManager(controller, "veh-1", token, hold=5.0)
        # alternate positions so no candidate stays better long enough
        for t in range(20):
            pos = (390.0, 0.0) if t % 2 == 0 else (10.0, 0.0)
            assert mgr.observe(pos, now=float(t)) is None
        assert controller.assigned_pop("veh-1") == "west"

    def test_small_improvement_ignored(self):
        controller, token = migration_world()
        mgr = MigrationManager(controller, "veh-1", token, improvement=0.0015)
        # midpoint: the delay difference is below the improvement bar
        for t in range(30):
            assert mgr.observe((200.5, 0.0), now=float(t)) is None

    def test_drive_route_migrates_once(self):
        controller, token = migration_world()
        # a route from west to east sampled at 1 Hz
        route = [(x, 0.0) for x in np.linspace(0.0, 400.0, 60)]
        events = drive_with_migration(controller, "veh-1", token, route)
        assert len(events) == 1
        assert events[0].to_pop == "east"
        assert events[0].improvement > 0

    def test_validation(self):
        controller, token = migration_world()
        with pytest.raises(ValueError):
            MigrationManager(controller, "veh-1", token, improvement=0.0)


class TestSatelliteFusion:
    def test_leo_profile_registered(self):
        prof = profile_for("LEO-SAT")
        assert prof is PROFILE_LEO_SAT
        assert prof.base_delay > profile_for("LTE").base_delay

    def test_leo_capacity_position_independent(self):
        t = generate_cellular_trace("LEO-SAT", duration=60.0, seed=1)
        # outside handover outages, capacity barely varies
        clear = t.capacity_mbps[~t.outage_mask]
        assert clear.size > 0
        assert clear.std() < clear.mean() * 0.5

    def test_rural_traces_composition(self):
        traces = generate_rural_traces(duration=20.0, seed=3)
        names = [t.name for t in traces]
        assert names == ["LTE-rural", "LEO-sat"]
        assert traces[1].base_delay == pytest.approx(0.045)

    @pytest.mark.slow  # three 12 s streams over rural traces
    def test_fusion_beats_each_rural_link_alone(self):
        """The §10 thesis: NC multipath helps where coverage is sparse."""
        duration = 12.0
        video = VideoConfig(bitrate_mbps=8.0)
        # find a seed where the rural LTE link actually suffers
        for seed in range(8):
            traces = generate_rural_traces(duration=duration, seed=seed)
            lte_only = run_single_link_stream(traces[0], video=video, duration=duration, seed=seed)
            if lte_only.qoe.stall_ratio > 0.02:
                break
        sat_only = run_single_link_stream(traces[1], video=video, duration=duration, seed=seed)
        fused = run_stream("cellfusion", uplink_traces=traces, video=video, duration=duration, seed=seed)
        # fusion dramatically beats the degraded link, and comes close to a
        # perfect link — min-RTT first transmissions still prefer the
        # lower-delay (flaky) LTE path, so a small scheduling cost remains
        # (the very "bad path scheduling" effect §4.1 discusses)
        assert fused.qoe.stall_ratio <= lte_only.qoe.stall_ratio * 0.5
        assert fused.qoe.stall_ratio <= sat_only.qoe.stall_ratio + 0.03
        assert fused.delivery_ratio >= max(lte_only.delivery_ratio, sat_only.delivery_ratio) - 0.02
