"""``python -m perfledger run|compare`` — see perfledger/README.md."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _find_simulator() -> None:
    """Put ``src/`` of this checkout on the path unless ``repro`` is
    already importable (``PYTHONPATH=src`` does the same)."""
    src = os.path.join(_ROOT, "src")
    if os.path.isdir(os.path.join(src, "repro")) and src not in sys.path:
        sys.path.insert(0, src)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        sys.exit("perfledger: cannot import the repro simulator (%s); run "
                 "from a checkout that has src/repro" % exc)


def _parser() -> argparse.ArgumentParser:
    from .spec import RUN_SECONDS
    from .workloads import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(prog="python -m perfledger")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure workloads")
    run.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                     help="repeatable; default: all four, one process each")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=RUN_SECONDS,
                     help="measured time per workload (rep floors still apply)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=None,
                     help="0: skip the traced rep, last line carries the "
                          "end-to-end metrics; 1: last line carries the "
                          "per-layer metrics; default: traced rep runs, last "
                          "line carries the end-to-end metrics")
    run.add_argument("--smoke", action="store_true",
                     help="1.5 sim-s sessions, 2 reps, guards relaxed")
    run.add_argument("--out", help="write the full JSON report here")
    run.add_argument("--trace-out", help="write the driver's spans here (JSONL)")
    cmp_ = sub.add_parser("compare", help="compare two --out reports")
    cmp_.add_argument("parent")
    cmp_.add_argument("change")
    return parser


def _run_one(args, name: str) -> int:
    from .bench import contract_line, format_report, measure, noise_header
    from .tracing import SpanLog
    from .workloads import WORKLOADS

    spans = SpanLog()
    record = measure(WORKLOADS[name], args.seed, args.seconds,
                     smoke=args.smoke, traced=args.trace != 0, spans=spans)
    print(format_report(record))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"schema": 1, "host": noise_header(),
                       "workloads": {name: record}}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.trace_out:
        spans.write_jsonl(args.trace_out)
    print(json.dumps(contract_line(record, args.trace or 0)))
    return 0 if record["correct"] else 1


def _run_many(args, names) -> int:
    """One child process per workload, so ``peak_rss_mb`` belongs to it."""
    merged = None
    status = 0
    for name in names:
        cmd = [sys.executable, "-m", "perfledger", "run", "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
        if args.trace is not None:
            cmd += ["--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        part = "%s.%s.part" % (os.path.abspath(args.out), name) if args.out else None
        if part:
            cmd += ["--out", part]
        if args.trace_out:
            cmd += ["--trace-out", "%s.%s" % (os.path.abspath(args.trace_out), name)]
        status = max(status, subprocess.run(cmd, cwd=_ROOT).returncode)
        if part and os.path.exists(part):
            with open(part) as fh:
                doc = json.load(fh)
            os.remove(part)
            if merged is None:
                merged = doc
            else:
                merged["workloads"].update(doc["workloads"])
    if merged is not None:
        with open(args.out, "w") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


def main(argv=None) -> int:
    _find_simulator()
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from .compare import compare_files

        return compare_files(args.parent, args.change)
    from .workloads import WORKLOAD_NAMES

    names = args.workload or list(WORKLOAD_NAMES)
    if len(names) == 1:
        return _run_one(args, names[0])
    return _run_many(args, names)


if __name__ == "__main__":
    sys.exit(main())
