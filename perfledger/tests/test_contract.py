"""The driver's contract: BENCHMARK.json, the command line, the last line."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfledger import spec
from perfledger.workloads import WORKLOADS

from .conftest import REPO


def _benchmark():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_repeats_the_spec():
    doc = _benchmark()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfledger"]
    assert doc["run_seconds"] == spec.RUN_SECONDS
    assert doc["workloads"] == [{"name": w.name, "why": w.why}
                                for w in WORKLOADS.values()]
    assert doc["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in spec.END_TO_END]
    assert doc["per_layer"] == [{"name": n, "unit": u, "better": b}
                                for n, u, b in spec.PER_LAYER]


def test_benchmark_json_is_inside_the_contract_limits():
    doc = _benchmark()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert all(len(m["unit"]) <= 16 for m in doc["end_to_end"] + doc["per_layer"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
    assert 2 <= len(doc["workloads"]) <= 8 and len(doc["per_layer"]) <= 128
    assert len(json.dumps(doc)) < 64 * 1024


def _run(trace, cwd=REPO, extra=()):
    cmd = _benchmark()["command"] + ["--workload", "stream_clean", "--seed", "5",
                                    "--seconds", "1", "--trace", str(trace), *extra]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,table", [(0, spec.END_TO_END), (1, spec.PER_LAYER)])
def test_last_line_carries_exactly_the_named_metrics(trace, table):
    done = _run(trace, extra=("--smoke",))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert line["failed"] == 0
    assert list(line["metrics"]) == [row[0] for row in table]
    for row in table:
        metric = line["metrics"][row[0]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == row[1]
        assert isinstance(metric["value"], (int, float))
    if trace == 0:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(REPO, "perfledger"), tmp_path / "perfledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable] + _benchmark()["command"][1:] + [
        "--workload", "stream_clean", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
