"""Proactive FEC vs reactive coded recovery — quantifying §4.1's argument.

The paper rejects feed-forward protection for vehicular links: bursty
loss is unpredictable, so a proactive scheme must run a high redundancy
rate *all the time* and a burst longer than a block still defeats it.
XNC instead repairs reactively and pays redundancy only on loss.

This benchmark sweeps the proactive scheme's redundancy rate on
outage-bearing traces and places XNC on the same axes.  Expected shape:
to approach XNC's residual loss, proactive FEC needs several times XNC's
redundancy — and even at high rates its burst-window losses persist.
"""

import numpy as np

from conftest import bench_duration, write_result
from repro.analysis.report import format_table
from repro.baselines.quic_fec import FecConfig
from repro.emulation.cellular import generate_fleet_traces
from repro.experiments.runner import make_transport, run_stream
from repro.video.source import VideoConfig

SEEDS = (0, 7, 8)  # traces with real outages


def _run_fec(rate, traces, duration, seed):
    """run_stream with a custom FEC redundancy rate."""
    from repro.baselines.quic_fec import FecTunnelClient
    from repro.core.endpoint import XncTunnelServer
    from repro.emulation.emulator import MultipathEmulator
    from repro.emulation.events import EventLoop
    from repro.experiments.runner import build_paths
    from repro.quic.cc.bbr import BbrController
    from repro.video.qoe import analyze_qoe
    from repro.video.receiver import VideoReceiver
    from repro.video.source import VideoSource

    loop = EventLoop()
    emulator = MultipathEmulator(loop, traces, seed=seed)
    receiver = VideoReceiver()
    server = XncTunnelServer(loop, emulator, receiver.on_app_packet)
    client = FecTunnelClient(
        loop, emulator, build_paths(emulator, BbrController), FecConfig(redundancy_rate=rate)
    )
    cfg = VideoConfig(bitrate_mbps=20.0, seed=seed + 1)
    source = VideoSource(loop, client.send_app_burst, cfg)
    source.start(first_delay=0.01)
    loop.run_until(duration)
    source.stop()
    loop.run_until(duration + 1.5)
    client.close()
    server.close()
    loss = 1.0 - receiver.packets_received / max(source.packets_emitted, 1)
    return loss, client.stats.redundancy_ratio


def test_proactive_vs_reactive(once):
    duration = bench_duration(10.0)

    def experiment():
        rows = {}
        for seed in SEEDS:
            traces = generate_fleet_traces(duration=duration, seed=seed)
            for rate in (0.1, 0.3, 0.6):
                loss, red = _run_fec(rate, traces, duration, seed)
                rows.setdefault("FEC %.0f%%" % (rate * 100), []).append((loss, red))
            xnc = run_stream(
                "cellfusion", uplink_traces=traces, duration=duration, seed=seed,
                video=VideoConfig(bitrate_mbps=20.0, seed=seed + 1),
            )
            rows.setdefault("XNC (reactive)", []).append(
                (1.0 - xnc.delivery_ratio, xnc.redundancy_ratio)
            )
        return rows

    rows = once(experiment)

    table_rows = []
    summary = {}
    for arm, samples in rows.items():
        losses = np.array([l for l, _r in samples])
        reds = np.array([r for _l, r in samples])
        summary[arm] = (float(losses.mean()), float(reds.mean()))
        table_rows.append([arm, "%.3f" % (losses.mean() * 100), "%.1f" % (reds.mean() * 100)])
    table = format_table(
        ["arm", "residual loss %", "redundancy %"],
        table_rows,
        title="Proactive FEC vs reactive XNC (§4.1's design argument)",
    )
    write_result("proactive_vs_reactive", table)

    xnc_loss, xnc_red = summary["XNC (reactive)"]
    # every FEC rate pays more redundancy than XNC
    for arm, (loss, red) in summary.items():
        if arm.startswith("FEC"):
            assert red > xnc_red, "%s should cost more redundancy than XNC" % arm
    # and the cheap FEC rate cannot match XNC's residual loss
    low_loss, _low_red = summary["FEC 10%"]
    assert xnc_loss <= low_loss + 1e-6
