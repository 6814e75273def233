"""Tests for the unified telemetry layer (repro.obs).

Covers the four behaviours the layer promises: histogram quantile
accuracy against ``statistics.quantiles``, correctly ordered lifecycle
events for a scripted loss -> recovery -> decode episode, no-op behaviour
when disabled, and JSONL round-tripping of all record kinds.
"""

import json
import math
import random
import statistics

import numpy as np
import pytest

from repro.core.endpoint import XncConfig, XncTunnelClient, XncTunnelServer
from repro.core.frames import XncNcFrame
from repro.emulation.emulator import MultipathEmulator
from repro.emulation.events import EventLoop
from repro.emulation.link import LinkStats
from repro.emulation.trace import LinkTrace
from repro.multipath.path import PathManager, PathState
from repro.obs import (
    ACK,
    APP_IN,
    DECODED,
    NULL_TELEMETRY,
    QOE_LOSS,
    RANGE_FORMED,
    RECOVERY_TX,
    SCHEDULED,
    TX,
    Histogram,
    MetricsRegistry,
    NullTelemetry,
    PathSample,
    Telemetry,
    TraceBuffer,
    read_jsonl,
)
from repro.quic.cc.bbr import BbrController
from repro.transport.base import ClientStats


# -- histogram quantiles -------------------------------------------------------


def _check_quantiles(values, rel_tol=0.06):
    h = Histogram("x")
    for v in values:
        h.record(v)
    ref = statistics.quantiles(values, n=100)
    for q, idx in ((0.50, 49), (0.95, 94), (0.99, 98)):
        est = h.quantile(q)
        want = ref[idx]
        assert math.isclose(est, want, rel_tol=rel_tol), (
            "q=%.2f est=%.6f want=%.6f" % (q, est, want)
        )


def test_histogram_quantiles_lognormal():
    rng = random.Random(42)
    _check_quantiles([rng.lognormvariate(-3.0, 1.0) for _ in range(8000)])


def test_histogram_quantiles_uniform():
    rng = random.Random(7)
    _check_quantiles([rng.uniform(0.001, 2.0) for _ in range(8000)])


def test_histogram_exact_stats():
    h = Histogram("d")
    for v in (0.1, 0.2, 0.3, 0.4):
        h.record(v)
    assert h.count == 4
    assert math.isclose(h.total, 1.0)
    assert math.isclose(h.mean, 0.25)
    assert h.min == 0.1 and h.max == 0.4
    # quantiles are clamped to observed extremes
    assert 0.1 <= h.quantile(0.01) <= h.quantile(1.0) <= 0.4


def test_histogram_empty_and_validation():
    h = Histogram("e")
    assert h.quantile(0.5) == 0.0
    assert h.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    with pytest.raises(ValueError):
        h.quantile(0.0)
    with pytest.raises(ValueError):
        Histogram("bad", growth=1.0)


def test_metrics_registry_snapshot():
    reg = MetricsRegistry()
    reg.count("a", 3)
    reg.count("a")
    reg.observe("h", 0.25)
    snap = {m["name"]: m for m in reg.snapshot()}
    assert snap["a"]["value"] == 4
    assert snap["h"]["count"] == 1


# -- ring buffer ---------------------------------------------------------------


def test_trace_buffer_ring_and_eviction():
    buf = TraceBuffer(capacity=4)
    for i in range(10):
        buf.emit(float(i), TX, packet_id=i)
    assert len(buf) == 4
    assert buf.emitted == 10
    assert buf.evicted == 6
    assert [e.packet_id for e in buf.events()] == [6, 7, 8, 9]


def test_eviction_surfaces_in_export(tmp_path):
    # overflow must never read as a complete export: the record stream
    # pins a dropped-events counter and ends with a trace_drops footer
    tel = Telemetry(trace_capacity=4)
    for i in range(10):
        tel.event(float(i), TX, packet_id=i)
    out = tmp_path / "tel.jsonl"
    tel.export_jsonl(str(out))
    recs = [json.loads(l) for l in out.read_text().splitlines()]
    assert recs[0]["type"] == "meta"
    assert recs[0]["events_evicted"] == 6
    footer = recs[-1]
    assert footer["type"] == "trace_drops"
    assert footer["dropped_events"] == 6
    assert footer["events_emitted"] == 10
    metrics = {r["name"]: r for r in recs if r.get("type") == "metric"}
    assert metrics["telemetry.dropped_events"]["value"] == 6


def test_no_eviction_no_footer(tmp_path):
    tel = Telemetry(trace_capacity=16)
    tel.event(0.0, TX, packet_id=1)
    out = tmp_path / "tel.jsonl"
    tel.export_jsonl(str(out))
    recs = [json.loads(l) for l in out.read_text().splitlines()]
    assert recs[0]["events_evicted"] == 0
    assert all(r.get("type") != "trace_drops" for r in recs)
    names = [r.get("name") for r in recs if r.get("type") == "metric"]
    assert "telemetry.dropped_events" not in names


# -- scripted loss -> recovery -> decode episode -------------------------------


def _flat_trace(name, rate_pps=2000, duration=30.0, base_delay=0.02):
    step = 1.0 / rate_pps
    return LinkTrace(
        name=name,
        opportunities=np.arange(0.0, duration, step),
        duration=duration,
        base_delay=base_delay,
    )


def _build_xnc_pair(loop, telemetry, n_paths=2):
    traces = [_flat_trace("flat%d" % i) for i in range(n_paths)]
    emulator = MultipathEmulator(loop, traces, seed=3, telemetry=telemetry)
    paths = PathManager(
        [PathState(i, cc=BbrController(), initial_rtt=0.05) for i in range(n_paths)]
    )
    delivered = {}
    server = XncTunnelServer(
        loop, emulator,
        lambda pid, payload, now: delivered.setdefault(pid, now),
        telemetry=telemetry,
    )
    client = XncTunnelClient(
        loop, emulator, paths, XncConfig(seed=9), telemetry=telemetry
    )
    return emulator, client, server, delivered


def _run_drop_episode(drop_ids, n_single=20, tail_burst=1):
    """Stream packets and force-drop the first TX of each id in ``drop_ids``.

    ``n_single`` packets go out one per 10 ms (establishing RTT and a
    steady ACK clock), then ``tail_burst`` packets are sent simultaneously
    as the *final* transmissions.  Dropping tail packets keeps them beyond
    the reach of ACK-driven packet-threshold CC detection, so the QoE scan
    (120 ms < 1.5x PTO) is deterministically the first detector — the
    episode the paper's §4.4.1 describes.
    """
    loop = EventLoop()
    tel = Telemetry()
    tel.bind_clock(loop)
    emulator, client, server, delivered = _build_xnc_pair(loop, tel)

    real_send = emulator.send_uplink
    pending_drops = set(drop_ids)

    def send_uplink(path_id, payload, size):
        for frame in payload.frames:
            if not isinstance(frame, XncNcFrame):
                continue
            h = frame.header
            if h.packet_count == 1 and h.start_id in pending_drops:
                pending_drops.discard(h.start_id)
                return True  # swallow the first transmission only
        return real_send(path_id, payload, size)

    emulator.send_uplink = send_uplink

    for i in range(n_single):
        loop.schedule(0.01 * (i + 1), client.send_app_packet, b"pkt-%03d" % i)
    burst_t = 0.01 * (n_single + 1)
    for i in range(n_single, n_single + tail_burst):
        loop.schedule(burst_t, client.send_app_packet, b"pkt-%03d" % i)
    loop.run_until(2.0)
    client.close()
    server.close()
    return tel, delivered


def _kinds_of(tel, packet_id):
    """Kinds of the events stamped with one packet ID, in order."""
    return [e.kind for e in tel.trace.events() if e.packet_id == packet_id]


def test_lifecycle_chain_single_packet_loss():
    tel, delivered = _run_drop_episode({20}, n_single=20, tail_burst=1)
    assert 20 in delivered, "dropped packet must be recovered"
    kinds = _kinds_of(tel, 20)
    # the full chain, in order (ACK of the recovery copy may trail)
    for a, b in zip(
        (APP_IN, SCHEDULED, TX, QOE_LOSS, RANGE_FORMED, RECOVERY_TX, DECODED),
        (SCHEDULED, TX, QOE_LOSS, RANGE_FORMED, RECOVERY_TX, DECODED, None),
    ):
        assert a in kinds, "missing %s in %s" % (a, kinds)
        if b is not None:
            assert kinds.index(a) < kinds.index(b), kinds
    times = [e.t for e in tel.trace.events() if e.packet_id == 20]
    assert times == sorted(times), "events must be time-ordered"


def test_lifecycle_chain_coded_range():
    tel, delivered = _run_drop_episode({21, 22, 23}, n_single=21, tail_burst=3)
    for pid in (21, 22, 23):
        assert pid in delivered
    formed = tel.trace.events(RANGE_FORMED)
    assert any(e.attrs["count"] >= 2 for e in formed), \
        "contiguous drops must form a multi-packet range"
    multi = [e for e in formed if e.attrs["count"] >= 2][0]
    # n' > n: the one-shot recovery adds extra coded packets (§4.5.2)
    assert multi.attrs["n_prime"] > multi.attrs["count"]
    recoveries = [
        e for e in tel.trace.events(RECOVERY_TX)
        if e.packet_id == multi.packet_id
    ]
    assert len(recoveries) == multi.attrs["n_prime"]
    # coded recovery decodes the whole range after the range was formed
    for pid in (21, 22, 23):
        decoded = [e for e in tel.trace.events(DECODED) if e.packet_id == pid]
        assert decoded and decoded[0].t >= multi.t


def test_healthy_packet_chain_has_no_loss_events():
    tel, delivered = _run_drop_episode(set(), n_single=20, tail_burst=0)
    kinds = _kinds_of(tel, 3)
    assert kinds[:3] == [APP_IN, SCHEDULED, TX]
    assert DECODED in kinds and ACK in kinds
    assert QOE_LOSS not in kinds and RECOVERY_TX not in kinds


# -- disabled-mode no-op -------------------------------------------------------


def test_null_telemetry_is_noop():
    tel = NULL_TELEMETRY
    assert tel.enabled is False
    tel.event(0.0, TX, 1, 0, pn=3)
    tel.count("x")
    tel.observe("y", 1.0)
    tel.record_stats("s", ClientStats())
    assert tel.trace is None and tel.metrics is None
    assert tel.stats == {} and tel.timelines == {}
    assert tel.export_jsonl("/nonexistent/never-written.jsonl") == 0
    assert isinstance(tel.summary_table(), str)


def test_disabled_run_records_nothing():
    loop = EventLoop()
    emulator, client, server, delivered = _build_xnc_pair(loop, None)
    assert isinstance(client.telemetry, NullTelemetry)
    assert isinstance(server.telemetry, NullTelemetry)
    for i in range(10):
        loop.schedule(0.01 * (i + 1), client.send_app_packet, b"p%d" % i)
    loop.run_until(0.5)
    client.close()
    server.close()
    assert delivered  # traffic flowed with zero telemetry state
    assert NULL_TELEMETRY.stats == {} and NULL_TELEMETRY.timelines == {}


# -- JSONL round-trip -----------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    tel = Telemetry(sample_interval=0.1)
    tel.event(0.5, APP_IN, 1, size=100, frame=0)
    tel.event(0.6, TX, 1, 0, pn=0, size=128, count=1)
    tel.count("client.tx", 2)
    tel.observe("e2e.packet_delay", 0.025)
    tel.timelines[0] = [PathSample(
        t=0.1, path_id=0, cwnd=14000, bytes_in_flight=2800, srtt=0.05,
        latest_rtt=0.048, min_rtt=0.04, pacing_rate=None, packets_sent=10,
        packets_acked=8, packets_lost=0, loss_rate=0.0, uplink_queue_bytes=1500,
    )]
    tel.record_stats("client", ClientStats(app_packets_in=12))
    tel.record_stats("link", LinkStats(enqueued=5, delivered=5))

    path = str(tmp_path / "t.jsonl")
    written = list(tel.records())
    assert tel.export_jsonl(path) == len(written)
    loaded = read_jsonl(path)
    assert loaded == [
        __import__("json").loads(__import__("json").dumps(r, sort_keys=True))
        for r in written
    ]
    by_type = {}
    for rec in loaded:
        by_type.setdefault(rec["type"], []).append(rec)
    assert set(by_type) == {"meta", "event", "metric", "path_sample", "stats"}
    assert by_type["meta"][0]["events_emitted"] == 2
    assert by_type["path_sample"][0]["cwnd"] == 14000
    stats = {r["label"]: r["stats"] for r in by_type["stats"]}
    assert stats["client"]["app_packets_in"] == 12
    assert "redundancy_ratio" in stats["client"]
    assert stats["link"]["loss_rate"] == 0.0


# -- end-to-end export (acceptance criterion) ----------------------------------


def test_run_stream_export_has_all_three_kinds(tmp_path):
    from repro.experiments.runner import run_stream

    result = run_stream("cellfusion", duration=1.0, seed=1, telemetry=True)
    tel = result.telemetry
    path = str(tmp_path / "run.jsonl")
    tel.export_jsonl(path)
    records = read_jsonl(path)
    kinds = {r["type"] for r in records}
    assert {"meta", "event", "metric", "path_sample", "stats"} <= kinds
    assert any(r.get("kind") == DECODED for r in records)
    assert any(r.get("name") == "e2e.packet_delay" for r in records)
    assert len({r["path_id"] for r in records if r["type"] == "path_sample"}) >= 2


# -- stats dataclass serialisation ---------------------------------------------


def test_stats_as_dict_uniform():
    from repro.core.rlnc import DecodeStats

    import json

    for obj in (ClientStats(), LinkStats(), DecodeStats()):
        d = obj.as_dict()
        assert isinstance(d, dict) and d
        json.dumps(d)  # uniformly JSON-serialisable
    assert ClientStats(first_tx_bytes=100, retx_bytes=10).as_dict()[
        "redundancy_ratio"] == pytest.approx(0.1)
