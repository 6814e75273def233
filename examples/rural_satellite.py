#!/usr/bin/env python3
"""Beyond cellular: fusing a sparse LTE link with a LEO satellite (§10).

The paper's discussion suggests CellFusion's network-coding multipath
approach "might not be confined to cellular connectivity" — satellite
links could extend it to areas with sparse infrastructure.  This example
builds that scenario: a rural drive where the only LTE carrier has
stretched cells and long dead zones, plus a LEO satellite uplink with
position-independent capacity but ~45 ms base delay and handover gaps.

It streams the same 8 Mbps video three ways — LTE only, satellite only,
and both fused through XNC — and also demonstrates server migration
(§10's other future-work item) as the vehicle crosses into another PoP's
region.
"""

import sys

import numpy as np

from repro.analysis.report import format_table
from repro.cloud.controller import Controller
from repro.cloud.migration import MigrationManager
from repro.cloud.pop import PopNode
from repro.emulation.cellular import PROFILE_LEO_SAT, TechnologyProfile, generate_cellular_trace
from repro.experiments.runner import run_single_link_stream, run_stream
from repro.video.source import VideoConfig

#: The lone rural LTE carrier: stretched cells, weak edges, long outages.
SPARSE_LTE = TechnologyProfile(
    name="LTE",
    peak_uplink_mbps=30.0,
    tower_spacing_m=2600.0,
    shadow_sigma_db=7.0,
    shadow_tau_s=6.0,
    pathloss_exponent=3.0,
    ref_power_dbm=-56.0,
    outage_rate_per_min=1.2,
    outage_mean_s=8.0,
    sinr_decode_threshold_db=1.0,
    base_delay=0.030,
)


def rural_traces(duration: float, seed: int, speed_mps: float = 22.0):
    """One weak LTE link plus a LEO uplink that covers its dead zones."""
    lte = generate_cellular_trace("LTE", carrier=0, duration=duration,
                                  speed_mps=speed_mps, seed=seed, profile=SPARSE_LTE)
    sat = generate_cellular_trace("LEO-SAT", carrier=9, duration=duration,
                                  speed_mps=speed_mps, seed=seed + 77, profile=PROFILE_LEO_SAT)
    return [lte.to_link_trace("LTE-rural"), sat.to_link_trace("LEO-sat")]


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 15.0
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0

    video = VideoConfig(bitrate_mbps=8.0, seed=seed)
    traces = rural_traces(duration, seed)
    print("Rural drive (%.0f s, seed %d): %s at %.1f Mbps mean, %s at %.1f Mbps mean"
          % (duration, seed, traces[0].name, traces[0].mean_capacity_mbps,
             traces[1].name, traces[1].mean_capacity_mbps))

    rows = []
    results = {}
    for label, runner in (
        ("LTE only", lambda: run_single_link_stream(traces[0], video=video, duration=duration, seed=seed)),
        ("LEO only", lambda: run_single_link_stream(traces[1], video=video, duration=duration, seed=seed)),
        ("fused (XNC)", lambda: run_stream("cellfusion", uplink_traces=traces, video=video,
                                           duration=duration, seed=seed)),
    ):
        r = runner()
        results[label] = r
        delays = np.array(r.packet_delays) if r.packet_delays else np.array([duration])
        rows.append([
            label,
            "%.1f%%" % (r.delivery_ratio * 100),
            "%.1f" % r.qoe.avg_fps,
            "%.2f%%" % (r.qoe.stall_ratio * 100),
            "%.0f" % (float(np.percentile(delays, 99)) * 1000),
        ])
    print()
    print(format_table(["uplink", "delivery", "FPS", "stall", "delay P99 ms"], rows,
                       title="8 Mbps video from a rural drive"))

    # --- server migration as the vehicle crosses regions --------------------
    controller = Controller()
    controller.register_pop(PopNode("rural-west", "W", (0.0, 0.0)))
    controller.register_pop(PopNode("rural-east", "E", (500.0, 0.0)))
    for pid in ("rural-west", "rural-east"):
        controller.heartbeat(pid, 0, now=0.0)
    token = controller.register_device("rural-veh")
    controller.assign("rural-veh", "rural-west")
    mgr = MigrationManager(controller, "rural-veh", token, hold=3.0)
    print("\nDriving west to east past the regional boundary...")
    for t in range(40):
        pos = (t * 12.5, 0.0)  # 500 km over the sampled horizon
        event = mgr.observe(pos, now=float(t))
        if event:
            print("  t=%.0fs: migrated %s -> %s (%.1f ms closer, %.0f ms switch gap)"
                  % (event.time, event.from_pop, event.to_pop,
                     event.improvement * 1000, event.gap * 1000))
    print("Final proxy: %s" % mgr.current_pop)


if __name__ == "__main__":
    main()
