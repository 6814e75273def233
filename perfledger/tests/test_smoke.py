"""``--smoke`` over all four workloads: the whole procedure, end to end."""

import json
import subprocess
import sys
import time

from perfledger.layers import LAYERS
from perfledger.workloads import WORKLOAD_NAMES

from .conftest import REPO


def test_smoke_run_of_all_four_workloads(tmp_path):
    out = tmp_path / "smoke.json"
    spans = tmp_path / "spans.jsonl"
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "perfledger", "run", "--smoke", "--seed", "2",
         "--out", str(out), "--trace-out", str(spans)],
        cwd=REPO, capture_output=True, text=True, timeout=170)
    elapsed = time.monotonic() - t0
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert elapsed < 60, "smoke took %.1f s" % elapsed
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == set(WORKLOAD_NAMES)
    assert report["host"]["nproc"] >= 1 and report["host"]["python"]
    for name, record in report["workloads"].items():
        assert record["correct"], record["problems"]
        assert record["reps"] == 2 and record["failed"] == 0
        # the rows sum to the end-to-end number
        total = sum(row["self_us_per_pkt"] for row in record["layer_table"])
        assert abs(total / record["wall_us_per_app_pkt"] - 1.0) < 0.01
        shares = {row["layer"]: row["share"] for row in record["layer_table"]}
        assert shares["unattributed"] <= 0.02
        assert shares["other"] <= 0.01
        assert record["per_layer"]["trace.overhead_ratio"]["value"] > 1.0
        for key in ("loadavg_before", "loadavg_after", "rep_iqr_rel",
                    "wall_cpu_gap_rel", "reps"):
            assert key in record["noise"]
        for metric in record["end_to_end"].values():
            assert metric["value"] > 0

    w = report["workloads"]

    def share(workload, layer):
        return next(r["share"] for r in w[workload]["layer_table"] if r["layer"] == layer)

    # the workloads pull the layers apart
    assert share("stream_bursty", "coder") > 2 * share("stream_clean", "coder")
    assert share("stream_reliable", "baselines") > 0.03
    assert share("stream_clean", "baselines") == 0 == share("stream_bursty", "baselines")
    assert share("stream_reliable", "xnc") == 0
    for stream in ("stream_clean", "stream_bursty", "stream_reliable"):
        assert share(stream, "cloud") == 0 == share(stream, "fleet")
    assert share("fleet_tunnel", "cloud") > 0 and share("fleet_tunnel", "fleet") > 0
    assert set(LAYERS) < {r["layer"] for r in w["fleet_tunnel"]["layer_table"]}

    # the driver's spans are real records with parents
    for name in WORKLOAD_NAMES:
        records = [json.loads(line) for line in
                   (tmp_path / ("spans.jsonl." + name)).read_text().splitlines()]
        names = [r["name"] for r in records]
        for expected in ("setup", "import_probe", "make_inputs", "warmup",
                         "rep:0", "rep:1", "counts_rep", "traced_rep"):
            assert expected in names
        by_id = {r["id"]: r for r in records}
        root = records[0]
        assert root["parent"] is None and root["name"] == "workload:" + name
        for r in records[1:]:
            parent = by_id[r["parent"]]
            assert parent["start"] <= r["start"] <= r["end"] <= parent["end"]
        if name == "fleet_tunnel":
            assert names.count("vehicle") == 4 and "plan_fleet" in names
            assert names.count("merge") == 4
