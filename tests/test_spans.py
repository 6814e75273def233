"""Causal span tracing (:mod:`repro.obs.spans`).

Three layers of guarantees:

* **recorder unit tests** — lifecycle (open/close/annotate/instant/
  finish), first-close-wins, capacity drops with the honest footer,
  bindings, and the :data:`NULL_SPANS` no-op contract;
* **span-tree invariants on a real run** — after a seeded ``run_stream``
  with ``spans=True`` every span is closed, every containment child
  lies inside its parent's interval, and the exported span JSONL is
  byte-identical across reruns (the determinism acceptance gate);
* **Chrome trace-event schema** — the Perfetto export is validated
  against the trace-event contract (``X`` complete events with µs
  timestamps, ``M`` thread-name metadata, stable pid/tid lanes).
"""

import json
from collections import Counter

import pytest

from repro.experiments.runner import run_stream
from repro.obs import (
    NULL_SPANS,
    NullSpanRecorder,
    Span,
    SpanRecorder,
    Telemetry,
)
from repro.obs.spans import (
    SPAN_DECODE,
    SPAN_DROP,
    SPAN_ENCODE,
    SPAN_FAULT,
    SPAN_FRAME,
    SPAN_HEALTH,
    SPAN_NAMES,
    SPAN_PACKET,
    SPAN_RANGE,
    SPAN_TX,
)
from repro.video.source import VideoConfig


class TestSpanRecorder:
    def test_open_close_roundtrip(self):
        sp = SpanRecorder()
        sid = sp.open(SPAN_FRAME, 1.0, frame=7)
        assert sid == 1 and len(sp._open) == 1
        sp.close(sid, 1.5, outcome="complete")
        span = sp.get(sid)
        assert span.end is not None and span.duration == pytest.approx(0.5)
        assert span.attrs["frame"] == 7 and span.attrs["outcome"] == "complete"
        assert not sp._open

    def test_first_close_wins(self):
        sp = SpanRecorder()
        sid = sp.open(SPAN_PACKET, 0.0)
        sp.close(sid, 1.0, outcome="delivered")
        sp.close(sid, 9.0, outcome="expired")
        assert sp.get(sid).end == 1.0
        assert sp.get(sid).attrs["outcome"] == "delivered"

    def test_parent_and_children(self):
        sp = SpanRecorder()
        parent = sp.open(SPAN_FRAME, 0.0)
        kids = [sp.open(SPAN_PACKET, 0.0, parent=parent) for _ in range(3)]
        assert [s.span_id for s in sp.children(parent)] == kids
        assert sp.get(kids[0]).parent_id == parent

    def test_instant_is_zero_length(self):
        sp = SpanRecorder()
        sid = sp.instant(SPAN_DROP, 2.0, path=1)
        span = sp.get(sid)
        assert span.start == span.end == 2.0

    def test_annotate_merges(self):
        sp = SpanRecorder()
        sid = sp.open(SPAN_TX, 0.0, path=0)
        sp.annotate(sid, qoe_loss=True)
        sp.annotate(0)  # unknown id is a no-op
        assert sp.get(sid).attrs == {"path": 0, "qoe_loss": True}

    def test_finish_cuts_children_before_parents(self):
        sp = SpanRecorder()
        parent = sp.open(SPAN_FRAME, 0.0)
        child = sp.open(SPAN_PACKET, 0.2, parent=parent)
        assert sp.finish(3.0) == 2
        for sid in (parent, child):
            assert sp.get(sid).end == 3.0
            assert sp.get(sid).attrs["cut"] is True
        assert not sp._open and sp.finish(4.0) == 0

    def test_capacity_drops_are_counted_and_exported(self, tmp_path):
        sp = SpanRecorder(capacity=2)
        assert sp.open(SPAN_TX, 0.0) and sp.open(SPAN_TX, 0.1)
        assert sp.open(SPAN_TX, 0.2) == 0
        assert sp.dropped == 1 and sp.opened == 2
        out = tmp_path / "spans.jsonl"
        sp.export_jsonl(str(out))
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        assert recs[0]["type"] == "span_meta" and recs[0]["dropped"] == 1
        assert recs[-1] == {"type": "span_drops", "dropped_spans": 1}

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)

    def test_bindings(self):
        sp = SpanRecorder()
        sid = sp.open(SPAN_RANGE, 0.0)
        sp.bind("range", (10, 4), sid)
        sp.bind("range", (99, 1), 0)  # dropped span id never binds
        assert sp.lookup("range", (10, 4)) == sid
        assert sp.lookup("range", (99, 1)) == 0

    def test_spans_filter_and_counts(self):
        sp = SpanRecorder()
        sp.open(SPAN_FRAME, 0.0)
        sp.instant(SPAN_HEALTH, 0.1, path=2)
        assert [s.name for s in sp.spans(SPAN_HEALTH)] == [SPAN_HEALTH]
        assert Counter(s.name for s in sp.spans()) == {SPAN_FRAME: 1, SPAN_HEALTH: 1}

    def test_as_dict_shape(self):
        span = Span(5, 2, SPAN_ENCODE, 1.0, {"k": 3})
        span.end = 1.0
        d = span.as_dict()
        assert d == {"type": "span", "id": 5, "name": SPAN_ENCODE,
                     "t0": 1.0, "t1": 1.0, "parent": 2, "k": 3}

    def test_null_recorder_is_inert(self, tmp_path):
        null = NullSpanRecorder()
        assert not null.enabled and not NULL_SPANS.enabled
        assert null.open(SPAN_FRAME, 0.0) == 0
        assert null.instant(SPAN_DROP, 0.0) == 0
        null.close(1, 0.0)
        null.bind("frame", 1, 1)
        assert null.lookup("frame", 1) == 0
        assert null.finish(0.0) == 0 and len(null) == 0
        assert null.spans() == [] and null.children(1) == []
        assert null.get(1) is None
        assert null.export_jsonl(str(tmp_path / "x")) == 0
        assert null.export_chrome_trace(str(tmp_path / "y")) == 0
        assert null.to_chrome_trace()["traceEvents"] == []

    def test_telemetry_spans_default_off_and_idempotent_enable(self):
        tel = Telemetry()
        assert tel.spans is NULL_SPANS
        rec = tel.enable_spans()
        assert rec.enabled and tel.enable_spans() is rec


@pytest.fixture(scope="module")
def spans_run():
    """One short seeded 4-path cellfusion run with spans."""
    return run_stream("cellfusion", duration=2.0, seed=3,
                      video=VideoConfig(seed=4), spans=True)


class TestSpanTreeInvariants:
    def test_every_span_closed(self, spans_run):
        sp = spans_run.telemetry.spans
        assert not sp._open
        assert all(s.end is not None for s in sp.spans())
        assert sp.dropped == 0

    def test_expected_span_families_present(self, spans_run):
        counts = Counter(s.name for s in spans_run.telemetry.spans.spans())
        assert set(counts) <= set(SPAN_NAMES)
        assert counts[SPAN_FRAME] == spans_run.frames_sent
        assert counts[SPAN_PACKET] == spans_run.packets_sent
        assert counts[SPAN_TX] > 0

    def test_children_lie_inside_parents(self, spans_run):
        sp = spans_run.telemetry.spans
        for s in sp.spans():
            if not s.parent_id:
                continue
            parent = sp.get(s.parent_id)
            assert parent is not None, "orphan parent edge"
            assert s.start >= parent.start - 1e-9
            assert s.end <= parent.end + 1e-9

    def test_cause_edges_resolve(self, spans_run):
        sp = spans_run.telemetry.spans
        for s in sp.spans(SPAN_TX):
            cause = (s.attrs or {}).get("cause", 0)
            if cause:
                assert sp.get(cause).name == SPAN_PACKET

    def test_span_ids_sequential_from_one(self, spans_run):
        sp = spans_run.telemetry.spans
        ids = [s.span_id for s in sp.spans()]
        assert ids == list(range(1, len(ids) + 1))

    def test_byte_identical_span_jsonl_across_reruns(self, spans_run, tmp_path):
        res2 = run_stream("cellfusion", duration=2.0, seed=3,
                          video=VideoConfig(seed=4), spans=True)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        spans_run.telemetry.spans.export_jsonl(str(a))
        res2.telemetry.spans.export_jsonl(str(b))
        assert a.read_bytes() == b.read_bytes()
        assert a.stat().st_size > 0


class TestChromeTraceSchema:
    def test_schema(self, spans_run, tmp_path):
        sp = spans_run.telemetry.spans
        out = tmp_path / "trace.json"
        n = sp.export_chrome_trace(str(out))
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert len(events) == n
        ids = set()
        for ev in events:
            assert ev["ph"] in ("X", "M")
            assert ev["pid"] == 1 and isinstance(ev["tid"], int)
            if ev["ph"] == "M":
                assert ev["name"] == "thread_name"
                assert isinstance(ev["args"]["name"], str)
                continue
            assert ev["name"] in SPAN_NAMES
            assert ev["cat"] == ev["name"]
            assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
            assert isinstance(ev["dur"], (int, float)) and ev["dur"] >= 0
            ids.add(ev["args"]["id"])
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(sp.spans())
        # parent references must resolve inside the document
        for ev in complete:
            parent = ev["args"].get("parent")
            if parent:
                assert parent in ids

    def test_metadata_covers_every_lane(self, spans_run):
        doc = spans_run.telemetry.spans.to_chrome_trace()
        lanes = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        named = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert lanes <= named

    def test_fault_spans_reach_the_trace(self):
        sp = SpanRecorder()
        sid = sp.open(SPAN_FAULT, 1.0, fault="blackout", path=2)
        sp.close(sid, 2.0, lifted=True)
        sp.instant(SPAN_DECODE, 2.5, start_id=7, count=3)
        doc = sp.to_chrome_trace()
        by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert by_name[SPAN_FAULT]["dur"] == pytest.approx(1e6)
        assert by_name[SPAN_FAULT]["args"]["lifted"] is True
        assert by_name[SPAN_DECODE]["dur"] == 0
