#!/usr/bin/env python3
"""Connected ambulance: remote diagnostics en route (§1).

A paramedic streams an HD cabin view (8 Mbps) plus a low-rate vitals
telemetry channel to a hospital while the ambulance drives through the
city.  The remote physician needs the video watchable (few stalls) and
the vitals channel near-lossless.

Both flows ride the same CellFusion tunnel: the tunnel is transparent
(§3.2), so the two UDP sessions just coexist — this example multiplexes
them through one XNC tunnel and reports per-flow outcomes.
"""

import sys

from repro.core.endpoint import XncConfig, XncTunnelClient, XncTunnelServer
from repro.emulation.cellular import generate_fleet_traces
from repro.emulation.emulator import MultipathEmulator
from repro.emulation.events import EventLoop, PeriodicTimer
from repro.experiments.runner import build_paths
from repro.quic.cc.bbr import BbrController
from repro.video.qoe import analyze_qoe
from repro.video.receiver import VideoReceiver
from repro.video.source import VideoConfig, VideoSource

VITALS_INTERVAL = 0.050  # 20 Hz patient telemetry
VITALS_SIZE = 200


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 15.0
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    loop = EventLoop()
    traces = generate_fleet_traces(duration=duration, seed=seed)
    emulator = MultipathEmulator(loop, traces, seed=seed)

    # demultiplex at the hospital end by payload prefix
    video_rx = VideoReceiver()
    vitals_delays = []

    def on_packet(packet_id, payload, now):
        if payload.startswith(b"VITALS"):
            sent = float(payload[6:21])
            vitals_delays.append(now - sent)
        else:
            video_rx.on_app_packet(packet_id, payload, now)

    server = XncTunnelServer(loop, emulator, on_packet)
    client = XncTunnelClient(loop, emulator, build_paths(emulator, BbrController), XncConfig())

    video_cfg = VideoConfig(bitrate_mbps=8.0, fps=30.0, seed=seed)
    camera = VideoSource(loop, client.send_app_burst, video_cfg)
    camera.start(first_delay=0.01)

    vitals_sent = [0]

    def send_vitals():
        payload = b"VITALS" + ("%015.6f" % loop.now).encode()
        payload += bytes(VITALS_SIZE - len(payload))
        client.send_app_packet(payload)
        vitals_sent[0] += 1

    vitals = PeriodicTimer(loop, VITALS_INTERVAL, send_vitals)
    vitals.start()

    loop.run_until(duration)
    camera.stop()
    vitals.stop()
    loop.run_until(duration + 1.5)

    qoe = analyze_qoe(video_rx.frame_records(camera.frames_emitted), video_cfg.fps, duration)
    print("Ambulance uplink over CellFusion (%.0f s drive, seed %d)" % (duration, seed))
    print("  Cabin video (8 Mbps): %.1f fps, %.2f%% stall, SSIM %.3f"
          % (qoe.avg_fps, qoe.stall_ratio * 100, qoe.ssim))
    if vitals_delays:
        vitals_delays.sort()
        p99 = vitals_delays[int(len(vitals_delays) * 0.99) - 1]
        print("  Vitals channel: %d/%d delivered, P99 delay %.0f ms"
              % (len(vitals_delays), vitals_sent[0], p99 * 1000))
    print("  Tunnel redundancy: %.2f%%" % (client.stats.redundancy_ratio * 100))

    ok = qoe.stall_ratio < 0.05 and len(vitals_delays) >= vitals_sent[0] * 0.98
    print("\nVerdict: remote diagnostics %s on this drive." % ("feasible" if ok else "degraded"))


if __name__ == "__main__":
    main()
