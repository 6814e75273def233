"""XNC endpoints end to end: recovery, expiry, ablations, redundancy."""

import pytest

from repro.core.endpoint import XncConfig, XncTunnelClient, XncTunnelServer
from repro.core.loss_detection import QoeLossPolicy
from repro.core.ranges import RangePolicy
from repro.core.recovery import RecoveryPolicy
from repro.emulation.emulator import MultipathEmulator
from repro.emulation.events import EventLoop
from repro.emulation.trace import LinkTrace, LossProcess, opportunities_from_rate
from repro.multipath.path import PathManager, PathState
from repro.quic.cc.base import CongestionController

import numpy as np


def build_xnc(
    rate=20.0,
    duration=30.0,
    loss_probs=None,
    n_paths=2,
    seed=0,
    config=None,
    sanitize=None,
):
    loop = EventLoop()
    traces = []
    for i in range(n_paths):
        loss = LossProcess.constant(loss_probs[i]) if loss_probs else LossProcess.zero()
        traces.append(
            LinkTrace(
                "p%d" % i,
                opportunities_from_rate(rate, duration),
                duration,
                base_delay=0.01,
                loss=loss,
            )
        )
    emu = MultipathEmulator(loop, traces, seed=seed)
    paths = PathManager([PathState(i, cc=CongestionController()) for i in range(n_paths)])
    received = []
    server = XncTunnelServer(loop, emu, lambda pid, data, t: received.append((pid, data, t)),
                             sanitizer=sanitize)
    client = XncTunnelClient(loop, emu, paths, config or XncConfig(),
                             sanitizer=sanitize)
    return loop, emu, client, server, received


class TestCleanPath:
    def test_delivery_without_loss(self):
        loop, emu, client, server, received = build_xnc()
        for i in range(100):
            client.send_app_packet(("pkt%03d" % i).encode(), frame_id=i // 10)
        loop.run_until(2.0)
        assert len(received) == 100
        assert client.recoveries_executed == 0
        assert client.stats.recovery_bytes == 0

    def test_payload_integrity(self):
        loop, emu, client, server, received = build_xnc()
        payloads = [bytes([i]) * (i + 1) for i in range(50)]
        for p in payloads:
            client.send_app_packet(p)
        loop.run_until(2.0)
        got = {pid: data for pid, data, _t in received}
        assert got == {i: p for i, p in enumerate(payloads)}

    def test_zero_redundancy_on_clean_links(self):
        """§4.1 objective D: almost zero redundancy with no loss."""
        loop, emu, client, server, received = build_xnc()
        for i in range(200):
            client.send_app_packet(b"v" * 600)
        loop.run_until(3.0)
        assert client.stats.redundancy_ratio < 0.01


class TestBlockedPumpBuildsNothing:
    def test_one_encode_per_transmitted_packet_when_window_limited(self):
        """A pump that finds every window full (each ACK and tick until
        one reopens) must not build — for XNC: encode — the head-of-line
        frame it then cannot send."""
        loop, emu, client, server, received = build_xnc(rate=4.0)
        for p in client.paths:
            p.cc.cwnd = 3000  # two packets per path at a time
        encodes = []
        encode = client.encoder.encode

        def counting_encode(start_id, count, seed):
            encodes.append(start_id)
            return encode(start_id, count, seed)

        client.encoder.encode = counting_encode
        for _ in range(60):
            client.send_app_packet(b"w" * 1200)
        assert len(client._queue) > 50  # the windows are the limit
        loop.run_until(0.6)
        stats = client.stats
        assert stats.first_tx_packets == 60 and stats.acks_received > 20
        assert stats.duplicate_packets == 0
        assert len(encodes) == stats.first_tx_packets + stats.recovery_packets


class TestLossRecovery:
    def test_random_loss_recovered_by_coding(self):
        loop, emu, client, server, received = build_xnc(
            loss_probs=[0.15, 0.0], seed=3
        )
        for i in range(300):
            client.send_app_packet(("d%04d" % i).encode() * 50, frame_id=i // 10)
        loop.run_until(5.0)
        assert client.recoveries_executed > 0
        assert server.decoder.stats.coded_received > 0 or client.stats.recovery_packets > 0
        # nearly everything arrives despite 15% loss on path 0
        assert len(received) >= 295

    def test_one_path_dead_other_carries_recovery(self):
        """Core multipath claim: a coded packet from any path remedies loss.

        Path 0 is 100 % dead from t=0.  Early one-shot recoveries spread
        part of their coded packets onto it before its failure is detected,
        so a fraction of early ranges stays unrecovered (partial
        reliability, by design).  Once the path is flagged failed, all
        recovery flows over path 1 and delivery is complete.
        """
        loop, emu, client, server, received = build_xnc(
            loss_probs=[1.0, 0.0], seed=4
        )
        for i in range(100):
            client.send_app_packet(b"x%03d" % i)
        loop.run_until(5.0)
        # most packets recovered purely via the healthy path
        assert len(received) >= 60
        assert client.recoveries_executed > 0
        # later traffic (sent once the dead path is flagged) is clean
        later_received = []
        for i in range(100):
            client.send_app_packet(b"y%03d" % i)
        loop.run_until(10.0)
        later = [pid for pid, _d, _t in received if pid >= 100]
        assert len(later) >= 99

    def test_recovered_packets_match_originals(self):
        loop, emu, client, server, received = build_xnc(loss_probs=[0.3, 0.0], seed=5)
        payloads = {i: bytes([i % 256]) * 100 for i in range(150)}
        for i, p in payloads.items():
            client.send_app_packet(p, frame_id=i // 15)
        loop.run_until(5.0)
        got = {pid: data for pid, data, _t in received}
        for pid, data in got.items():
            assert data == payloads[pid]

    def test_recovery_counts_as_redundancy(self):
        loop, emu, client, server, received = build_xnc(loss_probs=[0.2, 0.0], seed=6)
        for i in range(200):
            client.send_app_packet(b"m" * 700)
        loop.run_until(5.0)
        assert client.stats.recovery_bytes > 0
        assert client.stats.redundancy_ratio > 0.0


class TestExpiry:
    def test_total_blackout_expires_packets(self):
        """Both paths dead: packets expire instead of retransmitting forever."""
        config = XncConfig(range_policy=RangePolicy(t_expire=0.3))
        loop, emu, client, server, received = build_xnc(
            loss_probs=[1.0, 1.0], config=config
        )
        for i in range(50):
            client.send_app_packet(b"gone")
        loop.run_until(5.0)
        assert received == []
        # the queue does not grow without bound
        assert len(client.retrans_queue) < 60

    def test_forgotten_after_one_shot(self):
        """§4.5.2: after recovery, XNC forgets the involved packets."""
        loop, emu, client, server, received = build_xnc(loss_probs=[1.0, 0.0], seed=7)
        for i in range(30):
            client.send_app_packet(b"once")
        loop.run_until(3.0)
        executed = client.recoveries_executed
        assert executed > 0
        # no packet is recovered twice: queue is empty afterwards
        assert len(client.retrans_queue) == 0


class TestAblations:
    def test_no_rlnc_mode_sends_plain_retransmissions(self):
        config = XncConfig(coding_enabled=False)
        loop, emu, client, server, received = build_xnc(
            loss_probs=[0.3, 0.0], seed=8, config=config
        )
        for i in range(150):
            client.send_app_packet(b"plain" * 40, frame_id=i // 10)
        loop.run_until(5.0)
        # recovery ran, but the decoder never saw a coded frame
        assert client.recoveries_executed > 0
        assert server.decoder.stats.coded_received == 0

    def test_pto_only_detects_slower(self):
        fast_cfg = XncConfig(loss_policy=QoeLossPolicy(app_threshold=0.08))
        slow_cfg = XncConfig(loss_policy=QoeLossPolicy(app_threshold=None))
        results = {}
        for name, cfg in (("qoe", fast_cfg), ("pto", slow_cfg)):
            loop, emu, client, server, received = build_xnc(
                loss_probs=[0.25, 0.0], seed=9, config=cfg
            )
            for i in range(150):
                client.send_app_packet(b"t" * 400, frame_id=i // 10)
            loop.run_until(2.0)
            results[name] = [t for _pid, _d, t in received]
        # same workload, same loss: QoE-aware recovers and delivers earlier
        # at the tail
        q99 = np.percentile(results["qoe"], 95)
        p99 = np.percentile(results["pto"], 95)
        assert len(results["qoe"]) >= len(results["pto"]) * 0.95

    def test_config_defaults(self):
        cfg = XncConfig()
        assert cfg.loss_policy.app_threshold == pytest.approx(0.120)
        assert cfg.range_policy.max_packets == 10
        assert cfg.recovery_policy.extra_packets == 3
        assert cfg.coding_enabled


class TestServerGc:
    def test_stale_open_ranges_collected(self):
        # sanitizer off: the orphan coded frame is injected directly into
        # the emulator with pn 999 the client never sent, so the server's
        # ACK legitimately trips the ack-unsent invariant
        loop, emu, client, server, received = build_xnc(sanitize=False)
        # inject an orphan coded frame (its range will never complete)
        from repro.core.frames import XncNcFrame
        from repro.core.rlnc import RlncEncoder
        from repro.quic.packet import TUNNEL_OVERHEAD, QuicPacket
        enc = RlncEncoder()
        for i in range(1000, 1004):
            enc.register(i, b"orphan")
        payload = enc.encode(1000, 4, 77)
        frame = XncNcFrame.coded(1000, 4, 77, payload)
        pkt = QuicPacket(path_id=0, packet_number=999, frames=[frame])
        emu.send_uplink(0, pkt, TUNNEL_OVERHEAD + frame.wire_size)
        loop.run_until(0.5)
        assert list(server.decoder._ranges) == [(1000, 4)]
        # let the GC horizon pass, then drive traffic so the periodic
        # collection actually runs
        loop.run_until(3.0)
        for i in range(1200):
            client.send_app_packet(b"fill")
        loop.run_until(8.0)
        assert not server.decoder._ranges
