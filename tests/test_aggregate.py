"""Mergeable aggregates (:mod:`repro.obs.aggregate`) and metric merges.

The fleet-rollup contract is one sentence: *merging shard aggregates in
any pairwise order equals aggregating everything in one pass*.  The
property tests here fold the same shards through different merge trees
and demand exact equality — histogram buckets included, because
:meth:`Histogram.merge` is exact on a shared geometric grid.

The span-side half — :func:`decompose_spans` — is unit-tested on a
hand-built recorder where every stage length is known by construction,
so the packetise/queue/recovery/flight split can be asserted to the
digit rather than eyeballed off a live run.
"""

import pytest

from repro.experiments.runner import run_stream
from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    RunAggregate,
    SpanRecorder,
    STAGES,
    decompose_spans,
    worst_frames,
)
from repro.obs.spans import (
    SPAN_FAULT,
    SPAN_FRAME,
    SPAN_PACKET,
    SPAN_TX,
)


def hist_state(h):
    """Exact observable state of a histogram: counts, extremes, buckets.

    ``total`` is excluded on purpose — it is a float sum, so different
    merge orders agree only up to rounding; it gets its own approx
    comparison where it matters.
    """
    return (h.count, h.min, h.max, dict(h._buckets))


def approx_eq(a, b, rel=1e-9):
    """Recursive equality with float tolerance (merge-order rounding)."""
    if isinstance(a, float) or isinstance(b, float):
        return a == pytest.approx(b, rel=rel, abs=1e-12)
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(approx_eq(a[k], b[k], rel) for k in a))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(approx_eq(x, y, rel) for x, y in zip(a, b)))
    return a == b


class TestInstrumentMerge:
    def test_counter_merge_sums(self):
        a, b = Counter("x"), Counter("x")
        a.inc(3)
        b.inc(4)
        assert a.merge(b).value == 7

    def test_histogram_merge_is_exact(self):
        values = [0.001 * (i + 1) for i in range(200)]
        whole = Histogram("d")
        whole.record_many(values)
        left, right = Histogram("d"), Histogram("d")
        left.record_many(values[:77])
        right.record_many(values[77:])
        left.merge(right)
        assert hist_state(left) == hist_state(whole)
        assert left.total == pytest.approx(whole.total)
        assert left.percentiles() == whole.percentiles()

    def test_histogram_grid_mismatch_raises(self):
        a = Histogram("d", growth=1.03)
        b = Histogram("d", growth=1.5)
        with pytest.raises(ValueError):
            a.merge(b)
        c = Histogram("d", growth=1.03, min_value=1e-6)
        with pytest.raises(ValueError):
            a.merge(c)

    def test_histogram_merge_associative_property(self):
        import random

        rng = random.Random(42)
        shards = []
        for _ in range(5):
            h = Histogram("d")
            h.record_many([rng.uniform(1e-4, 2.0) for _ in range(300)])
            shards.append(h)

        def fold(order):
            acc = Histogram("d")
            for i in order:
                fresh = Histogram("d")
                fresh.merge(shards[i])
                acc.merge(fresh)
            return acc

        base = hist_state(fold(range(5)))
        for order in ([4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
            assert hist_state(fold(order)) == base
        # pairwise tree: ((0+1)+(2+3))+4
        l = Histogram("d")
        l.merge(shards[0]).merge(shards[1])
        r = Histogram("d")
        r.merge(shards[2]).merge(shards[3])
        l.merge(r).merge(shards[4])
        assert hist_state(l) == base

    def test_registry_merge_creates_missing_instruments(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.count("only.b", 2)
        b.observe("delay", 0.5)
        a.merge(b)
        assert a.counter("only.b").value == 2
        assert a.histogram("delay").count == 1
        snap = a.snapshot()
        assert {d["name"] for d in snap} == {"only.b", "delay"}
        # names sort within each instrument kind
        for kind in ("counter", "histogram"):
            names = [d["name"] for d in snap if d["kind"] == kind]
            assert names == sorted(names)


def _synthetic_run():
    """A seeded short run shared by the aggregate tests."""
    return run_stream("cellfusion", duration=1.5, seed=5, telemetry=True)


class TestRunAggregate:
    def test_add_result_accumulates(self):
        res = _synthetic_run()
        agg = RunAggregate("shard-0")
        assert agg.add_result(res) is agg
        assert agg.runs == 1 and agg.labels == ["cellfusion", "shard-0"]
        assert agg.frames_sent == res.frames_sent
        assert agg.packets_sent == res.packets_sent
        assert agg.delivery_ratio == pytest.approx(res.delivery_ratio)
        assert sum(agg.frame_status.values()) == len(res.frame_statuses)
        # censoring charges each undelivered packet the 1 s penalty
        h = agg.metrics.histogram("delay.packet")
        assert h.count == res.packets_sent

    def test_merge_equals_single_pass(self):
        results = [run_stream("cellfusion", duration=1.0, seed=s,
                              telemetry=True) for s in (1, 2, 3)]
        whole = RunAggregate()
        for r in results:
            whole.add_result(r)
        shards = []
        for r in results:
            a = RunAggregate()
            a.add_result(r)
            shards.append(a)
        merged = RunAggregate()
        merged.merge(shards[1]).merge(shards[0]).merge(shards[2])
        assert approx_eq(merged.state_dict(), whole.state_dict())

    def test_merge_associativity(self):
        results = [run_stream("bonding", duration=1.0, seed=s,
                              telemetry=True) for s in (1, 2, 3, 4)]
        shards = []
        for r in results:
            a = RunAggregate()
            a.add_result(r)
            shards.append(a)

        def fresh(i):
            return RunAggregate().merge(shards[i])

        left = fresh(0).merge(fresh(1)).merge(fresh(2)).merge(fresh(3))
        rl = fresh(2).merge(fresh(3))
        right = fresh(0).merge(fresh(1).merge(rl))
        assert approx_eq(left.state_dict(), right.state_dict())

    def test_empty_aggregate_views(self):
        agg = RunAggregate()
        assert agg.delivery_ratio == 0.0
        d = agg.state_dict()
        assert d["runs"] == 0
        assert d["metrics"] == {"counters": [], "gauges": [], "histograms": []}


class TestDecomposeSpans:
    def _recorder(self):
        """frame with two packets; the slow one retransmitted once.

        Timeline (seconds):  frame 0.00 -> 0.50
          packet A  0.10 -> 0.20, tx 0.12 -> 0.18
          packet B  0.10 -> 0.50, tx1 0.15 -> 0.25 (lost),
                                  tx2 0.40 -> 0.48  (delivers)
        Split follows packet B: packetise 0.10, queue 0.05,
        recovery 0.25, flight 0.10 — summing to the 0.50 total.
        """
        sp = SpanRecorder()
        f = sp.open(SPAN_FRAME, 0.0, frame=7, keyframe=True)
        a = sp.open(SPAN_PACKET, 0.10, parent=f, packet=100)
        b = sp.open(SPAN_PACKET, 0.10, parent=f, packet=101)
        ta = sp.open(SPAN_TX, 0.12, path=0, cause=a)
        sp.close(ta, 0.18, outcome="ack")
        sp.close(a, 0.20)
        t1 = sp.open(SPAN_TX, 0.15, path=1, cause=b)
        sp.close(t1, 0.30, outcome="loss")
        t2 = sp.open(SPAN_TX, 0.40, path=0, cause=b)
        sp.close(t2, 0.48, outcome="ack")
        sp.close(b, 0.50)
        sp.close(f, 0.50)
        return sp

    def test_critical_path_split(self):
        entries = decompose_spans(self._recorder())
        assert len(entries) == 1
        e = entries[0]
        assert e["frame_id"] == 7 and e["complete"] and e["keyframe"]
        assert e["packets"] == 2 and e["retx"] == 1
        assert e["worst_packet"] == 101
        assert e["packetise"] == pytest.approx(0.10)
        assert e["queue"] == pytest.approx(0.05)
        assert e["recovery"] == pytest.approx(0.25)
        assert e["flight"] == pytest.approx(0.10)
        total = sum(e[s] for s in STAGES)
        assert total == pytest.approx(e["total"])

    def test_cut_frame_has_no_split(self):
        sp = SpanRecorder()
        f = sp.open(SPAN_FRAME, 0.0, frame=1)
        sp.open(SPAN_PACKET, 0.1, parent=f, packet=5)
        sp.finish(2.0)
        (entry,) = decompose_spans(sp)
        assert entry["complete"] is False
        assert "flight" not in entry

    def test_fault_overlap_counted(self):
        sp = self._recorder()
        fid = sp.open(SPAN_FAULT, 0.3, fault="blackout", path=1)
        sp.close(fid, 0.45)
        miss = sp.open(SPAN_FAULT, 5.0, fault="late")  # after the frame
        sp.close(miss, 6.0)
        (entry,) = decompose_spans(sp)
        assert entry["faults"] == 1

    def test_empty_recorder(self):
        assert decompose_spans(SpanRecorder()) == []

    def test_worst_frames_order_and_k(self):
        entries = [
            {"frame_id": i, "complete": True, "flight": 0.0, "total": t}
            for i, t in enumerate((0.2, 0.9, 0.5, 0.9))
        ]
        entries.append({"frame_id": 99, "complete": False, "total": 9.9})
        top = worst_frames(entries, k=3)
        assert [e["frame_id"] for e in top] == [1, 3, 2]
