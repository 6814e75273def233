"""``perfledger compare`` on doctored reports."""

import copy
import json

import pytest

from perfledger.compare import compare, compare_files
from perfledger.spec import END_TO_END


def _report(wall=None, cpu=None, sim=None, seed=0):
    wall = wall or [2.0, 2.02, 1.98, 2.01, 1.99, 2.0, 2.03, 1.97, 2.0, 2.01]
    cpu = cpu or [w * 0.99 for w in wall]
    e2e = {name: {"value": 1.0, "unit": unit, "n": 1}
           for name, unit, _b, _bound in END_TO_END}
    e2e["wall_s_per_sim_s"].update(value=sorted(wall)[len(wall) // 2] / 10, q1=0.199, q3=0.201)
    e2e["cpu_s_per_sim_s"].update(value=sorted(cpu)[len(cpu) // 2] / 10, q1=0.197, q3=0.199)
    e2e["sim_delay_p95_ms"]["value"] = sim or 134.40217391304
    record = {"seed": seed, "smoke": False, "attempted": 1000, "failed": 0,
              "rep_wall_s": wall, "rep_cpu_s": cpu, "end_to_end": e2e,
              "exact": {"counts.recovery_packets": 412, "calls.coder": 90210}}
    return {"schema": 1, "workloads": {"stream_bursty": record}}


def _verdicts(rows):
    return {r["metric"]: r["verdict"] for r in rows}


def test_identical_reports_are_all_ok(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_report()))
    b.write_text(json.dumps(_report()))
    assert compare_files(str(a), str(b)) == 0
    assert set(_verdicts(compare(_report(), _report())).values()) == {"ok"}


def test_ten_percent_slower_is_worse(tmp_path, capsys):
    base = _report()
    slow = _report(wall=[w * 1.10 for w in base["workloads"]["stream_bursty"]["rep_wall_s"]])
    verdicts = _verdicts(compare(base, slow))
    assert verdicts["wall_s_per_sim_s"] == "worse"
    assert verdicts["peak_rss_mb"] == "ok"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(slow))
    assert compare_files(str(a), str(b)) == 1
    assert "worse" in capsys.readouterr().out


def test_within_bound_is_ok():
    base = _report()
    slower = _report(wall=[w * 1.02 for w in base["workloads"]["stream_bursty"]["rep_wall_s"]])
    assert _verdicts(compare(base, slower))["wall_s_per_sim_s"] == "ok"


def test_noisy_reps_are_unresolved_not_ok(tmp_path):
    base = _report()
    walls = base["workloads"]["stream_bursty"]["rep_wall_s"]
    # same median, but every other rep swings +-12 %: the ratio IQR
    # exceeds the 5 % bound, so "no regression" cannot be shown
    noisy = _report(wall=[w * (1.12 if i % 2 else 0.88) for i, w in enumerate(walls)])
    rows = compare(base, noisy)
    assert _verdicts(rows)["wall_s_per_sim_s"] == "unresolved"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(noisy))
    assert compare_files(str(a), str(b)) == 0   # unresolved alone does not fail


def test_last_bit_drift_in_a_sim_metric_fails():
    base = _report()
    drifted = _report(sim=134.40217391305)
    verdicts = _verdicts(compare(base, drifted))
    assert verdicts["sim_delay_p95_ms"] == "drift"


def test_exact_count_and_failure_share_drift_are_rows():
    base = _report()
    other = copy.deepcopy(base)
    other["workloads"]["stream_bursty"]["exact"]["counts.recovery_packets"] = 413
    other["workloads"]["stream_bursty"]["failed"] = 1000
    verdicts = _verdicts(compare(base, other))
    assert verdicts["exact:counts.recovery_packets"] == "drift"
    assert verdicts["failed/attempted"] == "drift"


def test_different_seeds_cannot_be_compared():
    with pytest.raises(ValueError):
        compare(_report(seed=1), _report(seed=2))
