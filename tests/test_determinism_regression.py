"""Determinism regression: two runs with the same seed are byte-identical.

The perf ledger (``perfledger/``) and every figure in the paper
reproduction assume that ``run_stream(transport, seed=s)`` is a pure
function of its arguments.  Hot-path optimisations (heap compaction,
bisect-based trace lookups, batched telemetry, GF fast paths) must not
perturb event order, RNG consumption, or float arithmetic.  This test
takes *everything* observable from a run — ``StreamRunResult.digest()``
(stats, per-packet delays, QoE, frame statuses) and the full telemetry
JSONL export — and demands a byte-for-byte match across two fresh runs.
"""

import pytest

from repro.experiments.runner import run_stream

TRANSPORTS = ["cellfusion", "xnc", "mpquic", "minRTT"]


def _run_digest(transport: str, seed: int, tmp_path, tag: str):
    """(canonical result digest, telemetry JSONL bytes) of one run."""
    r = run_stream(transport, duration=2.0, seed=seed, telemetry=True)
    out = tmp_path / ("%s_%s_%d.jsonl" % (tag, transport, seed))
    r.telemetry.export_jsonl(str(out))
    return r.digest(), out.read_bytes()


class TestSeededRunsByteIdentical:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_two_runs_identical(self, transport, tmp_path):
        a = _run_digest(transport, 3, tmp_path, "a")
        b = _run_digest(transport, 3, tmp_path, "b")
        assert a == b, "seeded run of %s is not reproducible" % transport

    def test_different_seeds_differ(self, tmp_path):
        # guards against the digest accidentally ignoring the payload
        a = _run_digest("cellfusion", 3, tmp_path, "a")
        b = _run_digest("cellfusion", 4, tmp_path, "b")
        assert a != b

    def test_telemetry_export_identical_bytes(self, tmp_path):
        r1 = run_stream("cellfusion", duration=2.0, seed=5, telemetry=True)
        r2 = run_stream("cellfusion", duration=2.0, seed=5, telemetry=True)
        p1, p2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
        r1.telemetry.export_jsonl(str(p1))
        r2.telemetry.export_jsonl(str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.stat().st_size > 0


class TestFleetShardInvariance:
    """Fleet results are a pure function of (seed, config) — the shard
    count is an execution detail and must never reach the digest.

    This is the regression the fleet layer's whole design serves: specs
    are frozen by the parent's control plane, each vehicle is pure, and
    the parent folds per-vehicle aggregates in vid order (float addition
    is not associative, so any per-shard pre-merge would show up here as
    a digest mismatch).
    """

    def test_lite_fleet_digest_identical_across_shards(self):
        from repro.fleet import FleetConfig, run_fleet

        digests = {
            shards: run_fleet(FleetConfig(vehicles=12, shards=shards, seed=7,
                                          duration=1.0, mode="lite")).digest
            for shards in (1, 2, 4)
        }
        assert len(set(digests.values())) == 1, \
            "shard count leaked into results: %r" % digests

    def test_tunnel_fleet_digest_identical_across_shards(self):
        from repro.fleet import FleetConfig, run_fleet

        digests = {
            shards: run_fleet(FleetConfig(vehicles=4, shards=shards, seed=7,
                                          duration=1.0, mode="tunnel")).digest
            for shards in (1, 2, 4)
        }
        assert len(set(digests.values())) == 1, \
            "shard count leaked into results: %r" % digests

    def test_fleet_digest_reproducible_across_processes(self, tmp_path):
        # digest must not depend on hash seeds, dict order, or any other
        # per-process state: recompute in a fresh interpreter
        import subprocess
        import sys

        from repro.fleet import FleetConfig, run_fleet

        report = run_fleet(FleetConfig(vehicles=6, seed=3, duration=1.0,
                                       mode="lite"))
        script = (
            "from repro.fleet import FleetConfig, run_fleet;"
            "print(run_fleet(FleetConfig(vehicles=6, seed=3, duration=1.0,"
            "mode='lite')).digest)"
        )
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, check=True,
                             env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
                                  "PYTHONHASHSEED": "random"},
                             cwd=".")
        assert out.stdout.strip() == report.digest
