#!/usr/bin/env python3
"""Record which ``src/repro`` functions the repo's runs execute.

Runs the roots in :data:`ROOTS` in this one process under a
``sys.settrace`` call hook -- every CLI subcommand at small scale, the
disabled-overhead gate, each perfledger workload's smoke run and the
figure benchmarks at 2 s x 1 seed; tests and examples are not roots --
and writes the sorted ``module:qualname`` of every executed function,
with the roots, to ``tests/fixtures/reach.json`` for
``tests/test_reachability.py``.  ``settrace``, because perfledger's
cProfile owns ``setprofile``; ``--benchmark-disable``, because
pytest-benchmark clears both hooks around timed calls; ``--shards 1``,
because pool workers are not traced.  Run: ``python tools/reach.py``
(~5 min on one core).
"""

import ast
import contextlib
import importlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
OUT = REPO / "tests" / "fixtures" / "reach.json"

#: Spelled out, not imported, so import-time calls happen under the hook;
#: ``tests/test_reachability.py`` checks them against the code.
TRANSPORTS = ("cellfusion", "xnc", "mpquic", "mptcp", "bonding", "minRTT",
              "RE", "XLINK", "ECF", "pluribus", "fec", "xnc-no-rlnc",
              "xnc-pto-only")
WORKLOADS = ("stream_clean", "stream_bursty", "stream_reliable", "fleet_tunnel")
FIGURES = ("fig3", "fig8", "fig9", "fig10a", "fig10b", "fig11", "fig12",
           "fig13a", "fig13b")
SHORT = ("--duration", "1")

#: tool -> the module whose ``main(argv)`` runs it
ENTRY = {"repro": "repro.cli", "check_overhead": "tools.check_overhead",
         "perfledger": "perfledger.__main__", "pytest": "pytest"}
#: ``(tool, argv)``; ``{tmp}`` is a scratch directory for the artifacts.
ROOTS = (
    [("repro", ["run", t, *SHORT]) for t in TRANSPORTS]
    + [("repro", argv) for argv in (
        ["run", "cellfusion", *SHORT, "--telemetry", "--sanitize", "--faults",
         "{tmp}/plan.json", "--telemetry-out", "{tmp}/tel.jsonl", "--spans-out",
         "{tmp}/spans.jsonl", "--chrome-trace", "{tmp}/chrome.json"],
        ["report", "cellfusion", *SHORT, "--out", "{tmp}/report.html"],
        ["compare", "cellfusion", "mpquic", "--runs", "1", *SHORT],
        *(["figure", f, *SHORT] for f in FIGURES),
        ["trace", "--duration", "5", "--out", "{tmp}/trace.json"],
        ["trace", "--duration", "5", "--out", "{tmp}/trace.mahi"],
        ["fleet", "--vehicles", "4", "--shards", "1", *SHORT,
         "--out", "{tmp}/fleet.json", "--html", "{tmp}/fleet.html"],
        ["fleet", "--mode", "lite", "--vehicles", "50", "--shards", "1",
         "--outage-pops", "2", "--html", ""],
        ["fleet", "--vehicles", "4", "--shards", "1", *SHORT,
         "--fault-rate", "0.5", "--html", ""],
        ["fleet", "--check-digest", "{tmp}/fleet.json", "--shards", "1"],
        ["chaos", "list"],
        ["chaos", "run", "tunnel_transit", "--smoke"],
        ["chaos", "run", "--plan", "{tmp}/plan.json", *SHORT],
        ["chaos", "zoo", "--smoke"],
        ["chaos", "campaign", "--examples", "2", *SHORT, "--derandomize",
         "--artifact", "{tmp}/shrunk.json"],
        ["chaos", "diff", "tunnel_transit", "--smoke", "--out", "{tmp}/diff.html"],
        ["lint"])] + [("check_overhead", ["--duration", "2", "--runs", "1"])]
    + [("perfledger", ["run", "--workload", w, "--smoke"]) for w in WORKLOADS]
    + [("pytest", ["benchmarks", "-q", "-p", "no:cacheprovider",
                   "--benchmark-disable"])]
)

#: The fault plan ``--faults``/``--plan`` replay (docs/robustness.md's example).
PLAN = {"version": 1, "events": [
    {"kind": "blackout", "start": 0.2, "duration": 0.3, "path_id": 0},
    {"kind": "rtt_spike", "start": 0.4, "duration": 0.3, "delay": 0.2},
    {"kind": "nat_rebind", "start": 0.6}]}


def functions(tree):
    """``(qualname, first line as in co_firstlineno, node)`` per def in a
    module or class body."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield prefix + node.name, first, node
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, prefix + node.name + ".")
            else:  # defs under if/try/with blocks
                for field in ("body", "orelse", "finalbody", "handlers"):
                    yield from walk(getattr(node, field, ()), prefix)
    yield from walk(tree.body, "")


def module_functions(path):
    """``{"module:qualname": (first_line, node)}`` of one source file."""
    rel = path.relative_to(SRC).with_suffix("")
    module = ".".join(rel.parts[:-1] if rel.name == "__init__" else rel.parts)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {"%s:%s" % (module, qual): (first, node)
            for qual, first, node in functions(tree)}


def run_roots(tmp):
    """Run every root under the call hook; return the executed code objects."""
    seen = set()

    def hook(frame, event, arg):
        seen.add(frame.f_code)

    (Path(tmp) / "plan.json").write_text(json.dumps(PLAN))
    for tool, argv in ROOTS:
        argv = [a.replace("{tmp}", tmp) for a in argv]
        sys.settrace(hook)
        try:  # imported under the hook: import-time calls count
            with contextlib.redirect_stdout(io.StringIO()):
                status = importlib.import_module(ENTRY[tool]).main(argv)
        finally:
            cleared = sys.gettrace() is not hook
            sys.settrace(None)
        print("%-14s %-56s exit %s" % (tool, " ".join(argv)[:56], status))
        if cleared:
            raise SystemExit("%s %s cleared the trace hook" % (tool, argv))
    return seen


def main():
    sys.path[:0] = [str(SRC), str(REPO)]
    os.environ.update(REPRO_BENCH_DURATION="2", REPRO_BENCH_SEEDS="1")
    os.chdir(REPO)
    # indexed before the run: the line numbers must be the ones it compiles
    by_line = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for qual, (first, node) in module_functions(path).items():
            by_line[(str(path), first, node.name)] = qual
    with tempfile.TemporaryDirectory() as tmp:
        codes = run_roots(tmp)
    keys = ((c.co_filename, c.co_firstlineno, c.co_name) for c in codes)
    executed = sorted({by_line[key] for key in keys if key in by_line})
    doc = {"roots": [[tool] + argv for tool, argv in ROOTS], "executed": executed}
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print("%d of %d functions executed" % (len(executed), len(by_line)))


if __name__ == "__main__":
    main()
