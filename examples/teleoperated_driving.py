#!/usr/bin/env python3
"""Teleoperated driving (ToD): the paper's flagship workload (§2.1).

5GAA's ToD model needs ~30 Mbps of aggregated camera uplink at <100 ms
one-way delay so a remote operator can take over when the self-driving
stack gives up.  This example streams the camera bundle over a harsh
drive and checks the ToD latency budget packet by packet, comparing:

* CellFusion (XNC over 4 fused cellular links),
* a 5G-only connection (today's premium single-carrier connectivity).

It prints the fraction of video packets inside the 100 ms budget, the
delay tail, and the QoE triple — the operator's screen only works when
all three hold up.
"""

import sys

import numpy as np

from repro import run_stream, run_single_link_stream
from repro.analysis.report import format_table
from repro.analysis.stats import tail_percentiles
from repro.emulation.cellular import generate_fleet_traces
from repro.video.source import VideoConfig

TOD_LATENCY_BUDGET = 0.100  # 5GAA: <100 ms one-way
TOD_BITRATE = 30.0          # ~4x 8 Mbps cameras


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 15.0
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 2

    traces = generate_fleet_traces(duration=duration, seed=seed)
    video = VideoConfig(bitrate_mbps=TOD_BITRATE, fps=30.0, seed=seed)

    print("ToD session: %.0f Mbps camera bundle, %.0f s drive, seed %d" % (TOD_BITRATE, duration, seed))
    cellfusion = run_stream("cellfusion", uplink_traces=traces, video=video, duration=duration, seed=seed)
    single_5g = run_single_link_stream(traces[0], video=video, duration=duration, seed=seed)

    rows = []
    for label, result in (("CellFusion", cellfusion), ("5G-only", single_5g)):
        delays = np.array(result.packet_delays) if result.packet_delays else np.array([duration])
        in_budget = float((delays <= TOD_LATENCY_BUDGET).mean()) * result.delivery_ratio
        pct = tail_percentiles(delays)
        rows.append(
            [
                label,
                "%.1f%%" % (in_budget * 100),
                "%.1f" % (pct["p99"] * 1000),
                "%.2f" % result.qoe.avg_fps,
                "%.2f%%" % (result.qoe.stall_ratio * 100),
                "%.3f" % result.qoe.ssim,
            ]
        )
    print()
    print(
        format_table(
            ["link", "pkts in 100ms budget", "delay P99 ms", "FPS", "stall", "SSIM"],
            rows,
            title="Teleoperated-driving feasibility",
        )
    )

    cf_ok = cellfusion.qoe.stall_ratio < 0.05
    print(
        "\nVerdict: CellFusion %s the ToD envelope on this drive; "
        "the single 5G link %s."
        % (
            "meets" if cf_ok else "misses",
            "does not" if single_5g.qoe.stall_ratio > cellfusion.qoe.stall_ratio else "also holds",
        )
    )

    control_loop_demo(duration=min(duration, 10.0), seed=seed)


def control_loop_demo(duration: float, seed: int) -> None:
    """The other half of ToD: operator commands ride the tunnel *down*.

    Steering/throttle commands (50 Hz, tiny packets) share the same four
    cellular links with the camera uplink via the bidirectional tunnel
    (§3.2's reverse flow).
    """
    from repro.emulation.emulator import MultipathEmulator
    from repro.emulation.events import EventLoop, PeriodicTimer
    from repro.transport.reverse import BidirectionalTunnel

    loop = EventLoop()
    emulator = MultipathEmulator(loop, generate_fleet_traces(duration=duration, seed=seed), seed=seed)
    command_delays = []

    def on_command(_pid, payload, now):
        command_delays.append(now - float(payload[:15]))

    tunnel = BidirectionalTunnel(loop, emulator, on_uplink_packet=lambda *a: None,
                                 on_downlink_packet=on_command)
    video = VideoConfig(bitrate_mbps=TOD_BITRATE, fps=30.0, seed=seed)
    from repro.video.source import VideoSource
    camera = VideoSource(loop, lambda burst, f: [tunnel.send_up(p, f) for p in burst], video)
    camera.start(first_delay=0.01)
    sent = [0]

    def send_command():
        payload = ("%015.6f" % loop.now).encode() + b" steer=+0.02 throttle=0.31"
        tunnel.send_down(payload)
        sent[0] += 1

    commands = PeriodicTimer(loop, 0.02, send_command)  # 50 Hz control
    commands.start()
    loop.run_until(duration)
    camera.stop()
    commands.stop()
    loop.run_until(duration + 1.0)
    tunnel.close()

    if command_delays:
        command_delays.sort()
        p99 = command_delays[max(0, int(len(command_delays) * 0.99) - 1)]
        print("\nControl downlink (50 Hz commands sharing the links with %d Mbps video):" % TOD_BITRATE)
        print("  delivered %d/%d, P99 one-way delay %.0f ms"
              % (len(command_delays), sent[0], p99 * 1000))


if __name__ == "__main__":
    main()
