"""``python -m perfledger compare PARENT.json CHANGE.json``.

One row per (workload, end-to-end metric) with both values, the delta, the
metric's bound and a verdict:

* ``ok``         — not worse than the parent by more than the bound;
* ``worse``      — worse by more than the bound and by more than the spread;
* ``unresolved`` — the rep-to-rep spread is wider than the bound, so the
  row cannot show "no regression";
* ``drift``      — a simulated or exact value differs at all (they are
  functions of the seed, so any difference is a behaviour change).

Both reports must come from the same ``--seed``: rep ``i`` then ran the
same input on both sides, and host-time metrics are compared rep by rep —
delta is the median of the per-rep ratios and the spread is their
inter-quartile range, which cancels the input-to-input variation inside a
run and leaves the machine's noise.
"""

from __future__ import annotations

import json
import statistics
from typing import List, Tuple

from .spec import END_TO_END

__all__ = ["compare", "compare_files", "format_rows"]

#: Host-time metrics with one sample per rep: name -> per-rep list key.
_PER_REP = {"wall_s_per_sim_s": "rep_wall_s", "cpu_s_per_sim_s": "rep_cpu_s"}


def _paired(parent: List[float], change: List[float]) -> Tuple[float, float]:
    """(median ratio - 1, IQR of the ratios) over the reps both sides ran."""
    ratios = [c / p for p, c in zip(parent, change)]
    delta = statistics.median(ratios) - 1.0
    if len(ratios) < 2:
        return delta, 0.0
    q = statistics.quantiles(ratios, n=4)
    return delta, q[2] - q[0]


def compare(parent: dict, change: dict) -> List[dict]:
    """Rows for every workload present in both reports."""
    rows = []
    for name in parent["workloads"]:
        if name not in change["workloads"]:
            continue
        a, b = parent["workloads"][name], change["workloads"][name]
        if a["seed"] != b["seed"] or a["smoke"] != b["smoke"]:
            raise ValueError("%s: reports come from different seeds or modes "
                             "(%s/%s vs %s/%s)" % (name, a["seed"], a["smoke"],
                                                   b["seed"], b["smoke"]))
        for metric, unit, better, bound in END_TO_END:
            va = a["end_to_end"][metric]["value"]
            vb = b["end_to_end"][metric]["value"]
            row = {"workload": name, "metric": metric, "unit": unit,
                   "parent": va, "change": vb, "bound": bound,
                   "parent_q": [a["end_to_end"][metric].get("q1"),
                                a["end_to_end"][metric].get("q3")],
                   "change_q": [b["end_to_end"][metric].get("q1"),
                                b["end_to_end"][metric].get("q3")]}
            if metric.startswith("sim_"):
                row["delta"] = vb / va - 1.0
                row["verdict"] = "ok" if va == vb else "drift"
            else:
                spread = 0.0   # single-sample metrics have none to show
                if metric in _PER_REP:
                    delta, spread = _paired(a[_PER_REP[metric]], b[_PER_REP[metric]])
                    row["spread"] = spread
                else:
                    delta = vb / va - 1.0
                worse_by = delta if better == "lower" else -delta
                row["delta"] = delta
                if worse_by > max(bound, spread):
                    row["verdict"] = "worse"
                elif spread > bound:
                    row["verdict"] = "unresolved"
                else:
                    row["verdict"] = "ok"
            rows.append(row)
        for key in sorted(set(a["exact"]) | set(b["exact"])):
            va, vb = a["exact"].get(key), b["exact"].get(key)
            if va != vb and not key.startswith("sim_"):
                rows.append({"workload": name, "metric": "exact:" + key,
                             "unit": "", "parent": va, "change": vb,
                             "bound": 0.0, "delta": None, "verdict": "drift"})
        if (a["failed"], a["attempted"]) != (b["failed"], b["attempted"]):
            rows.append({"workload": name, "metric": "failed/attempted",
                         "unit": "", "parent": "%d/%d" % (a["failed"], a["attempted"]),
                         "change": "%d/%d" % (b["failed"], b["attempted"]),
                         "bound": 0.0, "delta": None, "verdict": "drift"})
    return rows


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def format_rows(rows: List[dict]) -> str:
    lines = ["%-16s %-30s %12s %12s %9s %8s %7s  %s" % (
        "workload", "metric", "parent", "change", "delta", "spread", "bound",
        "verdict")]
    for r in rows:
        delta = "%+.2f %%" % (100 * r["delta"]) if r.get("delta") is not None else "-"
        spread = "%.2f %%" % (100 * r["spread"]) if "spread" in r else "-"
        lines.append("%-16s %-30s %12s %12s %9s %8s %6.1f%%  %s" % (
            r["workload"], r["metric"], _fmt(r["parent"]), _fmt(r["change"]),
            delta, spread, 100 * r["bound"], r["verdict"]))
        if r.get("parent_q", [None])[0] is not None:
            lines.append("%-16s %-30s %12s %12s" % (
                "", "  quartiles", "%s..%s" % tuple(_fmt(q) for q in r["parent_q"]),
                "%s..%s" % tuple(_fmt(q) for q in r["change_q"])))
    return "\n".join(lines)


def compare_files(parent_path: str, change_path: str) -> int:
    """Print the table; non-zero when any row is ``worse`` or ``drift``."""
    with open(parent_path) as fh:
        parent = json.load(fh)
    with open(change_path) as fh:
        change = json.load(fh)
    rows = compare(parent, change)
    print(format_rows(rows))
    bad = [r for r in rows if r["verdict"] in ("worse", "drift")]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print("%d rows: %d worse/drift, %d unresolved"
          % (len(rows), len(bad), len(unresolved)))
    return 1 if bad else 0
