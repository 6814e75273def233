"""Checked-in behaviour pin for the forwarding hot path.

Every other determinism test compares two runs of the *same* commit, so
a refactor that changes behaviour identically on both runs passes them
all.  This one compares against hashes captured on a known commit and
stored in ``tests/fixtures/golden_hotpath.json``: for eight short
sessions — the transports and schedulers whose send path differs —
``StreamRunResult.digest()`` (what ``perfledger`` digests) and the
sha256 of the telemetry JSONL and span JSONL export files.

The fixture moves only by running this module as a script::

    PYTHONPATH=src python tests/test_golden_hotpath.py

and only together with a CHANGES.md line saying why behaviour changed.
"""

import hashlib
import json
import os
import sys

import pytest

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "golden_hotpath.json")

#: The fixed drive and emulator seed of the perfledger stream workloads.
TRACE_SEED = 1
EMULATOR_SEED = 1

#: name -> (transport, sim seconds, under the perfledger burst plan?)
STREAMS = {
    "cellfusion_clean": ("cellfusion", 2.0, False),
    "cellfusion_bursty": ("cellfusion", 3.0, True),
    "mpquic_bursty": ("mpquic", 3.0, True),
    "ECF_clean": ("ECF", 2.0, False),
    "RE_clean": ("RE", 2.0, False),
    "pluribus_clean": ("pluribus", 2.0, False),
    "bonding_clean": ("bonding", 2.0, False),
}
FLEET = "fleet_tunnel_4x1.5"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _burst_plan(duration: float):
    """perfledger's plan: 250 ms of total loss every second from 0.5 s,
    rotating over paths 0-2."""
    from repro.faults.plan import FaultPlanBuilder

    builder = FaultPlanBuilder()
    start, i = 0.5, 0
    while start < duration:
        builder.burst_loss(start, 0.25, severity=1.0, path_id=i % 3)
        start += 1.0
        i += 1
    return builder.build()


def _run_stream(name: str, instrumented: bool = True):
    from repro.emulation.cellular import generate_fleet_traces
    from repro.experiments.runner import run_stream

    transport, duration, bursty = STREAMS[name]
    return run_stream(
        transport, generate_fleet_traces(duration=duration, seed=TRACE_SEED),
        duration=duration, seed=EMULATOR_SEED,
        faults=_burst_plan(duration) if bursty else None, fault_seed=1,
        telemetry=instrumented, spans=instrumented)


def _stream_hashes(name: str, tmp_dir: str) -> dict:
    result = _run_stream(name)
    tel_path = os.path.join(tmp_dir, name + ".telemetry.jsonl")
    span_path = os.path.join(tmp_dir, name + ".spans.jsonl")
    result.telemetry.export_jsonl(tel_path)
    result.telemetry.spans.export_jsonl(span_path)
    with open(tel_path, "rb") as fh:
        telemetry = fh.read()
    with open(span_path, "rb") as fh:
        spans = fh.read()
    assert telemetry and spans
    return {"result": result.digest(), "telemetry": _sha(telemetry),
            "spans": _sha(spans)}


def _fleet_hashes() -> dict:
    from repro.fleet import FleetConfig, run_fleet

    report = run_fleet(FleetConfig(vehicles=4, shards=1, duration=1.5,
                                   mode="tunnel", seed=1))
    return {"result": report.digest}


def _load_fixture() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_matches_golden(name, tmp_path):
    assert _stream_hashes(name, str(tmp_path)) == _load_fixture()[name]


def test_fleet_matches_golden():
    assert _fleet_hashes() == _load_fixture()[FLEET]


def test_uninstrumented_run_matches_golden_result():
    # telemetry and spans off must take the same path to the same result
    name = "cellfusion_clean"
    result = _run_stream(name, instrumented=False)
    assert result.digest() == _load_fixture()[name]["result"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: _stream_hashes(name, tmp) for name in sorted(STREAMS)}
    golden[FLEET] = _fleet_hashes()
    with open(FIXTURE, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.stdout.write("wrote %s (%d sessions)\n" % (FIXTURE, len(golden)))
