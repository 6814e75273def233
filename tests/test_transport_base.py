"""Shared tunnel machinery: pump, ACK processing, cc loss, server ACKs."""

import pytest

from repro.baselines.reliable import UnorderedTunnelServer
from repro.core.frames import XncNcFrame
from repro.core.rlnc import frame_payload
from repro.emulation.emulator import MultipathEmulator
from repro.emulation.events import EventLoop
from repro.emulation.trace import LinkTrace, LossProcess, opportunities_from_rate
from repro.multipath.path import PathManager, PathState
from repro.multipath.scheduler.minrtt import MinRttScheduler
from repro.quic.cc.base import CongestionController
from repro.transport.base import AppPacket, TunnelClientBase, TunnelServerBase


class EchoClient(TunnelClientBase):
    """Minimal concrete client: frames payloads, records callbacks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.acked_ids = []
        self.cc_lost_infos = []

    def _build_frame(self, pkt: AppPacket):
        return XncNcFrame.original(pkt.packet_id, frame_payload(pkt.payload))

    def _on_app_acked(self, infos):
        for info in infos:
            self.acked_ids.extend(info.app_ids)

    def _on_cc_lost(self, info, now):
        self.cc_lost_infos.append(info)


def build_world(rate=20.0, duration=20.0, loss=None, n_paths=2, seed=0,
                sanitize=None):
    loop = EventLoop()
    traces = [
        LinkTrace(
            "p%d" % i,
            opportunities_from_rate(rate, duration),
            duration,
            base_delay=0.01,
            loss=loss or LossProcess.zero(),
        )
        for i in range(n_paths)
    ]
    emu = MultipathEmulator(loop, traces, seed=seed)
    paths = PathManager([PathState(i, cc=CongestionController()) for i in range(n_paths)])
    received = []
    server = UnorderedTunnelServer(loop, emu, lambda pid, data, t: received.append((pid, data, t)),
                                   sanitizer=sanitize)
    client = EchoClient(loop, emu, paths, MinRttScheduler(), sanitizer=sanitize)
    return loop, emu, client, server, received


class TestClientFlow:
    def test_end_to_end_delivery(self):
        loop, emu, client, server, received = build_world()
        client.send_app_packet(b"hello", frame_id=0)
        loop.run_until(1.0)
        assert [(pid, data) for pid, data, _t in received] == [(0, b"hello")]

    def test_app_ids_sequential(self):
        loop, emu, client, server, received = build_world()
        ids = [client.send_app_packet(b"x") for _ in range(5)]
        assert ids == [0, 1, 2, 3, 4]

    def test_acks_flow_back(self):
        loop, emu, client, server, received = build_world()
        client.send_app_packet(b"data")
        loop.run_until(1.0)
        assert client.acked_ids == [0]
        assert client.stats.acks_received >= 1

    def test_rtt_estimated_from_acks(self):
        loop, emu, client, server, received = build_world()
        for _ in range(20):
            client.send_app_packet(b"data")
        loop.run_until(2.0)
        path = client.paths.get(0)
        assert path.rtt.samples > 0
        # ~2x base_delay (10 ms each way) plus queueing/ack delay
        assert 0.015 < path.rtt.smoothed_rtt < 0.2

    def test_ingress_queue_cap(self):
        loop, emu, client, server, received = build_world(rate=0.1)
        client.ingress_limit = 10
        for _ in range(50):
            client.send_app_packet(b"y" * 800)
        assert client.stats.ingress_dropped > 0
        assert len(client._queue) <= 10

    def test_cc_loss_fires_on_black_hole(self):
        loop, emu, client, server, received = build_world(loss=LossProcess.constant(1.0))
        client.send_app_packet(b"doomed")
        loop.run_until(3.0)
        assert received == []
        assert client.cc_lost_infos, "loss should be declared after PTO"

    def test_window_blocks_pump(self):
        loop, emu, client, server, received = build_world()
        for p in client.paths:
            p.cc.cwnd = 1500  # one packet at a time, per path
        for _ in range(10):
            client.send_app_packet(b"z" * 1200)
        # immediately, at most 2 packets (one per path) are in flight
        assert client.stats.first_tx_packets <= 2
        loop.run_until(2.0)
        # window reopens on acks and everything eventually flows
        assert len(received) == 10

    def test_close_stops_activity(self):
        loop, emu, client, server, received = build_world()
        client.send_app_packet(b"a")
        loop.run_until(0.5)
        client.close()
        client.send_app_packet(b"b")
        loop.run_until(2.0)
        assert len(received) == 1

    def test_redundancy_zero_without_loss(self):
        loop, emu, client, server, received = build_world()
        for _ in range(50):
            client.send_app_packet(b"k" * 500)
        loop.run_until(2.0)
        assert client.stats.redundancy_ratio == 0.0


class TestServerBehaviour:
    def test_acks_every_other_packet(self):
        loop, emu, client, server, received = build_world()
        for _ in range(10):
            client.send_app_packet(b"q")
        loop.run_until(1.0)
        # at ack_every=2, ~5 acks for 10 packets on one path (+/- timer acks)
        assert 4 <= client.stats.acks_received <= 12

    def test_delayed_ack_timer(self):
        loop, emu, client, server, received = build_world()
        client.send_app_packet(b"solo")  # one packet: below ack_every
        loop.run_until(1.0)
        assert client.acked_ids == [0]  # max_ack_delay timer fired

    def test_duplicate_packet_counted(self):
        # sanitizer off: this test injects packets straight into the
        # emulator, so the server ACKs packet numbers the client never
        # sent — a deliberate out-of-band stimulus, not a protocol bug
        loop, emu, client, server, received = build_world(sanitize=False)
        # send the same QUIC packet twice by direct emulator injection
        from repro.quic.packet import TUNNEL_OVERHEAD, QuicPacket
        frame = XncNcFrame.original(0, frame_payload(b"dup"))
        pkt = QuicPacket(path_id=0, packet_number=0, frames=[frame])
        emu.send_uplink(0, pkt, TUNNEL_OVERHEAD + frame.wire_size)
        emu.send_uplink(0, pkt, TUNNEL_OVERHEAD + frame.wire_size)
        loop.run_until(1.0)
        assert server.duplicates == 1
        assert len(received) == 1  # app-level dedup too

    def test_server_close_stops_acks(self):
        loop, emu, client, server, received = build_world()
        server.close()
        client.send_app_packet(b"x")
        loop.run_until(1.0)
        assert client.stats.acks_received == 0


# -- burst == per-packet -------------------------------------------------------

BURST_TRANSPORTS = ["cellfusion", "ECF", "RE", "pluribus", "bonding"]

#: (sim time, packets, frame id): a warm-up frame that spreads over the
#: paths and gets them all ACKed, then — after every path sat idle for far
#: more than 3 PTO — a frame larger than the ingress limit whose first
#: packets wake the idle paths, and a third arriving while every window
#: is still full of the second.
BURST_SCRIPT = [(0.01, 40, 0), (1.5, 600, 1), (1.52, 90, 2)]


def _burst_rig(transport, as_bursts):
    """One world driven by BURST_SCRIPT, through ``send_app_burst`` or a
    loop of ``send_app_packet``; returns everything observable."""
    from repro.experiments.runner import make_transport

    loop = EventLoop()
    shape = [(40.0, 0.010), (30.0, 0.015), (12.0, 0.030), (8.0, 0.040)]
    traces = [LinkTrace("p%d" % i, opportunities_from_rate(rate, 20.0), 20.0,
                        base_delay=delay)
              for i, (rate, delay) in enumerate(shape)]
    emu = MultipathEmulator(loop, traces, seed=3)
    received = []
    client, server = make_transport(
        transport, loop, emu, lambda pid, data, t: received.append((pid, t)))
    wire = []
    send_uplink = emu.send_uplink

    def logging_send_uplink(path_id, pkt, size):
        heads = tuple((f.header.start_id, f.header.packet_count)
                      for f in pkt.frames if isinstance(f, XncNcFrame))
        wire.append((path_id, pkt.packet_number, heads, size, pkt.sent_time))
        return send_uplink(path_id, pkt, size)

    emu.send_uplink = logging_send_uplink
    admitted = []
    probes = {}

    def inject(count, frame_id):
        payloads = [bytes([frame_id]) * (1200 - (i % 7)) for i in range(count)]
        before = len(wire)
        if as_bursts:
            admitted.extend(client.send_app_burst(payloads, frame_id))
        else:
            admitted.extend(client.send_app_packet(p, frame_id) for p in payloads)
        probes[frame_id] = {
            "first_paths": [w[0] for w in wire[before:before + 8]],
            "sent_now": len(wire) - before,
            "backlog": len(client._queue),
            "usable": [p.is_usable(loop.now) for p in client.paths],
        }

    for when, count, frame_id in BURST_SCRIPT:
        loop.schedule(when, inject, count, frame_id)
    loop.run_until(4.0)
    client.close()
    server.close()
    scheduler_state = {k: v for k, v in vars(client.scheduler).items()}
    paths = [(p.path_id, p.packets_sent, p.packets_acked, p.packets_lost,
              p.cc.cwnd, p.cc.bytes_in_flight, p.rtt.smoothed_rtt, p.health,
              p.last_ack_time) for p in client.paths]
    return {
        "admitted": admitted,
        "stats": client.stats.as_dict(),
        "wire": wire,
        "received": received,
        "uplinks": {k: s.as_dict() for k, s in emu.uplink_stats().items()},
        "downlinks": {k: s.as_dict() for k, s in emu.downlink_stats().items()},
        "scheduler": scheduler_state,
        "paths": paths,
        "health_transitions": client.health.transitions,
        "probes": probes,
        "client": client,
    }


class TestBurstEqualsPerPacket:
    """One ``send_app_burst`` == the same packets through a loop of
    ``send_app_packet``, for every kind of send path — the hoisting of
    per-instant work out of the per-packet loop is exact."""

    @pytest.mark.parametrize("transport", BURST_TRANSPORTS)
    def test_twin_rigs_identical(self, transport):
        burst = _burst_rig(transport, as_bursts=True)
        single = _burst_rig(transport, as_bursts=False)
        for key in ("admitted", "stats", "wire", "received", "uplinks",
                    "downlinks", "scheduler", "paths", "health_transitions",
                    "probes"):
            assert burst[key] == single[key], key

    @pytest.mark.parametrize("transport", BURST_TRANSPORTS)
    def test_script_reaches_the_hazards(self, transport):
        rig = _burst_rig(transport, as_bursts=True)
        stats, probes = rig["stats"], rig["probes"]
        # (d) the big frame's first packets woke paths idle for > 3 PTO,
        # and being used is what made them look failed
        assert not all(probes[1]["usable"])
        assert rig["health_transitions"] > 0
        if transport == "bonding":
            # no window ever binds plain UDP; the flow was pinned to one
            # path and re-hashed the moment its own send "failed" it
            assert len(set(probes[1]["first_paths"])) == 2
            return
        # (a) the 600-packet frame overran the 512-packet ingress queue,
        # dropping exactly the tail the live queue length dictates
        assert stats["ingress_dropped"] > 0
        assert rig["admitted"].count(None) == stats["ingress_dropped"]
        assert probes[1]["backlog"] == 512
        # the third frame met a tunnel with every window still full
        assert probes[2]["sent_now"] == 0 and probes[2]["backlog"] > 0
        if transport == "pluribus":
            # (c) blocks closed — and their repairs went out — between
            # first transmissions of one frame
            assert rig["client"].blocks_closed > 0
            assert stats["recovery_packets"] > 0
        if transport == "ECF":
            # (b) a decision taken with the fast path blocked: it depends
            # on the backlog hint at that moment
            assert rig["client"].scheduler.queued_bytes_hint > 0

    def test_burst_of_one_is_send_app_packet(self):
        loop, emu, client, server, received = build_world()
        assert client.send_app_burst([b"a", b"b"], frame_id=7) == [0, 1]
        assert client.send_app_packet(b"c", frame_id=7) == 2
        loop.run_until(1.0)
        assert sorted(pid for pid, _d, _t in received) == [0, 1, 2]
