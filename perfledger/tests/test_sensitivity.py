"""The ruler measures the program, and the workloads separate.

A 50 us busy-wait planted around ``RlncEncoder.encode`` must show up in
``stream_bursty`` as calls x 50 us of wall time per packet, the layer rows
must still sum to the new total, and ``stream_reliable`` — which shares
the transport but never calls the encoder — must not move.
"""

import time

import pytest

from perfledger.bench import measure
from perfledger.spec import END_TO_END
from perfledger.tracing import SpanLog
from perfledger.workloads import WORKLOADS

DELAY_S = 50e-6


@pytest.fixture
def planted_delay(monkeypatch):
    """Returns ``plant()``; after it, every ``RlncEncoder.encode`` call
    spins for DELAY_S first and leaves its start time in ``plant.stamps``."""
    from repro.core.rlnc import RlncEncoder

    original = RlncEncoder.encode
    stamps = []

    def slow_encode(self, *args, **kwargs):
        start = time.perf_counter()
        stamps.append(start)
        while time.perf_counter() - start < DELAY_S:
            pass
        return original(self, *args, **kwargs)

    def plant():
        monkeypatch.setattr(RlncEncoder, "encode", slow_encode)

    plant.stamps = stamps
    return plant


def _calls_inside(stamps, spans, name):
    (_sid, _name, start, end, _parent), = [r for r in spans.records if r[1] == name]
    return sum(1 for t in stamps if start <= t <= end)


def _rows_sum(record):
    return sum(row["self_us_per_pkt"] for row in record["layer_table"])


def test_planted_delay_moves_bursty_by_calls_times_delay(planted_delay):
    bursty = WORKLOADS["stream_bursty"]
    reps = 3
    before = measure(bursty, seed=4, seconds=0, smoke=True, reps=reps)
    planted_delay()
    spans = SpanLog()
    after = measure(bursty, seed=4, seconds=0, smoke=True, reps=reps, spans=spans)
    assert before["correct"] and after["correct"]
    assert before["digest"] == after["digest"]          # behaviour untouched

    # rep i ran the same input both times, so the wall it gained is the
    # delay times the encode calls it made
    calls = [_calls_inside(planted_delay.stamps, spans, "rep:%d" % i)
             for i in range(reps)]
    packets = after["attempted"]
    assert sum(calls) > packets                           # every packet + recoveries
    expected_s = sum(calls) * DELAY_S
    moved_s = sum(after["rep_wall_s"]) - sum(before["rep_wall_s"])
    assert moved_s == pytest.approx(expected_s, rel=0.25)
    per_pkt_us = 1e6 * expected_s / packets
    assert (after["wall_us_per_app_pkt"] - before["wall_us_per_app_pkt"]
            == pytest.approx(per_pkt_us, rel=0.25))

    # the traced rep counted exactly the calls that happened inside it
    assert (after["boundaries"]["coder.encode"]["calls"]
            == _calls_inside(planted_delay.stamps, spans, "traced_rep"))
    assert after["exact"] == before["exact"]              # counts do not see time

    for record in (before, after):
        assert _rows_sum(record) == pytest.approx(record["wall_us_per_app_pkt"], rel=0.01)


def test_planted_delay_leaves_reliable_alone(planted_delay):
    reliable = WORKLOADS["stream_reliable"]
    before = measure(reliable, seed=4, seconds=0, smoke=True, reps=6, traced=False)
    planted_delay()
    after = measure(reliable, seed=4, seconds=0, smoke=True, reps=6, traced=False)
    assert before["digest"] == after["digest"]
    assert planted_delay.stamps == []                     # never calls the encoder
    # the quietest rep is the least noise-sensitive estimate at smoke scale
    change = min(after["rep_wall_s"]) / min(before["rep_wall_s"]) - 1.0
    bound = {name: b for name, _u, _better, b in END_TO_END}["wall_s_per_sim_s"]
    assert abs(change) < bound
