"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — stream one session through a chosen transport and print the
  QoE summary (the quickstart, parameterised);
* ``report`` — stream one session with span tracing armed and write the
  self-contained HTML report (delay CDFs, per-path timelines with fault
  overlays, frame delay decomposition, span waterfalls);
* ``compare`` — run several transports over the same traces and print
  the comparison table (the Fig. 9/11 harness, parameterised);
* ``figure`` — regenerate one paper figure's rows (fig3, fig8, fig9,
  fig10a, fig10b, fig11, fig12, fig13a, fig13b);
* ``fleet`` — run a sharded N-vehicle fleet simulation through the
  shared control plane (controller placement, SNAT pressure,
  autoscaling) and write the merged fleet report — JSON with a
  canonical content digest plus a self-contained HTML page;
  ``--check-digest`` re-runs a saved report's config and verifies the
  stored digest still reproduces (see docs/fleet.md);
* ``chaos`` — the robustness gate: ``chaos list`` prints the scenario
  catalog, ``chaos zoo`` runs every checked-in scenario and asserts its
  invariant oracles (``--rerun`` demands byte-identical digests),
  ``chaos run`` executes one scenario or replays a shrunk-plan JSON
  artifact, ``chaos campaign`` searches random fault plans with
  Hypothesis and shrinks any failure to a minimal replayable plan, and
  ``chaos diff`` drives one scenario across all nine transports and
  writes the HTML verdict matrix (see docs/robustness.md);
* ``trace`` — synthesise a cellular drive trace and export it;
* ``lint`` — run the repo's static protocol/determinism linter
  (``tools/lint``) over the source tree.

``run --sanitize`` arms the runtime protocol sanitizer for the session —
every transmit, ACK, range build, recovery plan and decode completion is
checked against the paper's invariants, and the first breach raises
(see docs/static-analysis.md).  ``REPRO_SANITIZE=1`` does the same for
any entry point without touching flags.

``run --faults PLAN.json`` arms deterministic fault injection for the
session — blackouts, brownouts, RTT spikes, bandwidth cliffs, NAT
rebinds and more, on a declarative schedule replayed exactly by
``--fault-seed`` (see docs/robustness.md).

``run --telemetry`` turns on the observability layer for the session and
prints the run summary (event counts, histogram tails, per-path
timelines); ``--telemetry-out FILE`` additionally exports everything as
JSONL (see docs/telemetry.md).  ``--log-level`` configures the ``repro.*``
logging namespace once for the whole process.

``run --spans-out FILE`` arms causal span tracing and exports the span
tree as JSONL; ``--chrome-trace FILE`` exports the same tree as Chrome
trace-event JSON loadable in Perfetto / ``chrome://tracing``.  For where
the wall time of a run goes, layer by layer, use ``python -m perfledger
run --workload ...`` (see perfledger/README.md).
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional

from .analysis.report import format_qoe_rows, format_table
from .analysis.stats import tail_percentiles
from .emulation.cellular import generate_cellular_trace, generate_fleet_traces
from .emulation.trace import save_json, save_mahimahi
from .experiments import figures
from .experiments.runner import TRANSPORT_NAMES, run_stream
from .video.source import VideoConfig

__all__ = [
    "build_parser",
    "main",
]

logger = logging.getLogger(__name__)


def configure_logging(level: str = "warning") -> None:
    """Configure the ``repro.*`` logger namespace once (idempotent)."""
    root = logging.getLogger("repro")
    if not root.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s: %(message)s")
        )
        root.addHandler(handler)
        root.propagate = False
    root.setLevel(getattr(logging, level.upper()))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--duration", type=float, default=10.0, help="seconds of streaming")
    p.add_argument("--seed", type=int, default=0, help="trace seed (road segment)")
    p.add_argument("--bitrate", type=float, default=30.0, help="video bitrate in Mbps")


def _load_plan(path: Optional[str]):
    if not path:
        return None
    from .faults import FaultPlan

    return FaultPlan.load(path)


def _cmd_run(args: argparse.Namespace) -> int:
    spans = bool(args.spans_out or args.chrome_trace)
    telemetry = bool(args.telemetry or args.telemetry_out or spans)
    plan = _load_plan(args.faults)
    result = run_stream(
        args.transport,
        duration=args.duration,
        seed=args.seed,
        video=VideoConfig(bitrate_mbps=args.bitrate, seed=args.seed + 1),
        telemetry=telemetry,
        sanitize=True if args.sanitize else None,
        faults=plan,
        fault_seed=args.fault_seed,
        spans=spans,
    )
    print(format_qoe_rows({args.transport: result}))
    if result.packet_delays:
        pct = tail_percentiles(result.packet_delays)
        print("packet delay: " + "  ".join("%s=%.1fms" % (k, v * 1000) for k, v in pct.items()))
    print("delivery %.2f%%  redundancy %.2f%%"
          % (result.delivery_ratio * 100, result.redundancy_ratio * 100))
    if result.fault_summary is not None:
        fs = result.fault_summary
        print("faults: %d applied, %d lifted, %d NAT flush(es), "
              "%d health transition(s), final health [%s]"
              % (fs["applied"], fs["lifted"], fs["nat_flushes"],
                 fs["health_transitions"], ", ".join(fs["final_health"])))
    if result.terminal_error:
        print("TERMINAL: %s" % result.terminal_error)
    if telemetry:
        print()
        print(result.telemetry.summary_table())
        if args.telemetry_out:
            n = result.telemetry.export_jsonl(args.telemetry_out)
            print("wrote %d telemetry records to %s" % (n, args.telemetry_out))
        if args.spans_out:
            n = result.telemetry.spans.export_jsonl(args.spans_out)
            print("wrote %d span records to %s" % (n, args.spans_out))
        if args.chrome_trace:
            n = result.telemetry.spans.export_chrome_trace(args.chrome_trace)
            print("wrote %d trace events to %s (load in Perfetto)"
                  % (n, args.chrome_trace))
    if args.sanitize:
        from .sanitizer import registered_globals, totals

        t = totals()
        print("sanitizer: %d checks, %d violations" % (t["checks"], t["violations"]))
        print("state guard: %d registered global(s) verified, no leaks"
              % len(registered_globals()))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import write_html_report

    result = run_stream(
        args.transport,
        duration=args.duration,
        seed=args.seed,
        video=VideoConfig(bitrate_mbps=args.bitrate, seed=args.seed + 1),
        telemetry=True,
        spans=True,
        faults=_load_plan(args.faults),
        fault_seed=args.fault_seed,
    )
    title = "CellFusion run report — %s, seed %d, %.0fs" % (
        args.transport, args.seed, args.duration)
    n = write_html_report(args.out, result, title=title)
    print("wrote %s (%d bytes)" % (args.out, n))
    if args.spans_out:
        count = result.telemetry.spans.export_jsonl(args.spans_out)
        print("wrote %d span records to %s" % (count, args.spans_out))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .fleet import FleetConfig, FleetReport, run_fleet

    if args.check_digest:
        saved = FleetReport.load(args.check_digest)
        config = FleetConfig.from_dict(saved.config)
        if args.shards is not None:
            config = FleetConfig.from_dict(
                dict(saved.config, shards=args.shards))
        print("re-running %d vehicles (seed %d, %d shard(s)) against %s"
              % (config.vehicles, config.seed, config.shards,
                 args.check_digest))
        fresh = run_fleet(config)
        if fresh.digest != saved.digest:
            print("DIGEST MISMATCH: saved %s..., fresh %s..."
                  % (saved.digest[:16], fresh.digest[:16]), file=sys.stderr)
            return 1
        print("digest reproduced: %s" % fresh.digest)
        return 0

    config = FleetConfig(
        vehicles=args.vehicles,
        shards=args.shards if args.shards is not None else 1,
        seed=args.seed,
        duration=args.duration,
        transport=args.transport,
        bitrate_mbps=args.bitrate,
        mode=args.mode,
        join_window=args.join_window,
        session_time=args.session_time,
        outage_pops=args.outage_pops,
        fault_rate=args.fault_rate,
        fault_seed=args.fault_seed,
        sanitize=bool(args.sanitize),
    )
    report = run_fleet(config)
    print(report.summary_table())
    if args.out:
        report.save(args.out)
        print("wrote %s" % args.out)
    if args.html:
        from .analysis.report import write_fleet_html_report

        title = "CellFusion fleet report — %d vehicles, seed %d" % (
            config.vehicles, config.seed)
        n = write_fleet_html_report(args.html, report, title=title)
        print("wrote %s (%d bytes)" % (args.html, n))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .scenarios import (
        SCENARIOS,
        catalog_rows,
        get_scenario,
        run_scenario,
        scenario_names,
    )

    if args.chaos_command == "list":
        print(format_table(
            ["scenario", "faults", "invariants", "expected QoE shape"],
            catalog_rows()))
        return 0

    if args.chaos_command == "run":
        if args.plan:
            from .scenarios import replay_artifact

            report, verdicts = replay_artifact(
                args.plan, seed=args.seed, duration=args.duration,
                transport=args.transport, sanitize=bool(args.sanitize))
            print("replayed %s: delivery %.2f%%, digest %s"
                  % (args.plan, report.delivery_ratio * 100, report.digest[:16]))
        else:
            if not args.scenario:
                print("chaos run needs a SCENARIO name or --plan FILE",
                      file=sys.stderr)
                return 2
            res = run_scenario(args.scenario, seed=args.seed or 1,
                               duration=args.duration,
                               transport=args.transport,
                               sanitize=bool(args.sanitize), smoke=args.smoke)
            verdicts = res.verdicts
            print("%s: delivery %.2f%%, digest %s"
                  % (res.scenario, res.report.delivery_ratio * 100,
                     res.digest[:16]))
            if res.extras:
                print("extras: %s" % res.extras)
        bad = [v for v in verdicts if not v.ok]
        for v in verdicts:
            print("  %-18s %s  %s" % (v.oracle, "ok " if v.ok else "FAIL",
                                      "" if v.ok else v.detail))
        return 1 if bad else 0

    if args.chaos_command == "zoo":
        names = args.scenario or list(scenario_names())
        failures = 0
        for name in names:
            res = run_scenario(name, seed=args.seed or 1, smoke=args.smoke,
                               sanitize=bool(args.sanitize))
            drift = ""
            if args.rerun:
                again = run_scenario(name, seed=args.seed or 1,
                                     smoke=args.smoke,
                                     sanitize=bool(args.sanitize))
                if again.digest != res.digest:
                    drift = "  DIGEST DRIFT"
                    failures += 1
            ok = res.passed
            if not ok:
                failures += 1
            print("%-22s %s  delivery %6.2f%%  %s%s"
                  % (name, "PASS" if ok else "FAIL",
                     res.report.delivery_ratio * 100, res.digest[:16], drift))
            for v in res.failures():
                print("    %s: %s" % (v.oracle, v.detail))
        print("%d/%d scenarios passed" % (len(names) - failures, len(names)))
        return 1 if failures else 0

    if args.chaos_command == "campaign":
        from .scenarios import run_campaign

        out = run_campaign(
            seed=args.seed or 1,
            duration=args.duration or 4.0,
            transport=args.transport or "cellfusion",
            max_examples=args.examples,
            max_events=args.max_events,
            derandomize=args.derandomize,
            kinds=args.kind or None,
            artifact_path=args.artifact,
            sanitize=bool(args.sanitize),
        )
        print("campaign: %d executions, %s"
              % (out.executions, "FAILED" if out.failed else "all oracles held"))
        if out.failed and out.minimal_plan is not None:
            print("minimal failing plan (%d event(s)):" % len(out.minimal_plan))
            for e in out.minimal_plan:
                print("  %s" % e.as_dict())
            for v in out.minimal_verdicts:
                if not v.ok:
                    print("  violated %s: %s" % (v.oracle, v.detail))
            if out.artifact_path:
                print("replay artifact: %s (repro chaos run --plan %s)"
                      % (out.artifact_path, out.artifact_path))
        return 1 if out.failed else 0

    if args.chaos_command == "diff":
        from .analysis.report import write_diff_html_report
        from .scenarios import DIFF_TRANSPORTS, run_diff

        transports = args.transports or list(DIFF_TRANSPORTS)
        matrix = run_diff(args.scenario, seed=args.seed or 1,
                          duration=args.duration, transports=transports,
                          sanitize=bool(args.sanitize), smoke=args.smoke)
        from .scenarios import ORACLE_NAMES

        grid = matrix.verdict_grid()
        rows = []
        for r in matrix.results:
            marks = ["+" if grid[r.transport][o].ok else "x"
                     for o in ORACLE_NAMES]
            rows.append([r.transport, "%.2f%%" % (r.report.delivery_ratio * 100)]
                        + marks)
        print(format_table(["transport", "delivery"] + list(ORACLE_NAMES), rows,
                           title="scenario %s, seed %d" % (matrix.scenario,
                                                           matrix.seed)))
        if args.out:
            n = write_diff_html_report(args.out, matrix)
            print("wrote %s (%d bytes)" % (args.out, n))
        return 0

    print("unknown chaos command", file=sys.stderr)
    return 2


def _cmd_compare(args: argparse.Namespace) -> int:
    seeds = tuple(range(args.runs))
    res = figures.compare_transports(
        args.transports, duration=args.duration, seeds=seeds, bitrate_mbps=args.bitrate
    )
    rows = [
        [
            t,
            "%.2f" % res.fps[t].mean,
            "%.2f ± %.2f" % (res.stall[t].mean * 100, res.stall[t].std * 100),
            "%.3f" % res.ssim[t].mean,
            "%.2f" % (res.redundancy[t].mean * 100),
        ]
        for t in res.transports
    ]
    print(format_table(["transport", "avg FPS", "stall %", "SSIM", "redundancy %"], rows))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    name = args.name.lower()
    if name == "fig3":
        out = figures.fig3_single_link(duration=args.duration, seed=args.seed)
        for label, cell in out.items():
            print("%s: loss %.1f%%  P99 delay %.0f ms  FPS %.1f  stall %.1f%%  SSIM %.2f"
                  % (label, cell.loss_rate * 100, cell.delay_p99 * 1000,
                     cell.qoe.avg_fps, cell.qoe.stall_ratio * 100, cell.qoe.ssim))
    elif name == "fig8":
        out = figures.fig8_frame_timeline(duration=args.duration, seed=args.seed)
        for label, tl in out.items():
            print("%s: %d frames, %d blocky, %d lost, stall %.2f%%"
                  % (label, len(tl.statuses), tl.blocky_frames, tl.lost_frames, tl.stall_ratio * 100))
    elif name in ("fig9", "fig11", "fig12"):
        fn = {"fig9": figures.fig9_road_test, "fig11": figures.fig11_schedulers,
              "fig12": figures.fig12_pluribus}[name]
        res = fn(duration=args.duration, seeds=tuple(range(3)))
        for t in res.transports:
            print("%-12s fps %.2f  stall %.2f%%  ssim %.3f  redundancy %.2f%%"
                  % (t, res.fps[t].mean, res.stall[t].mean * 100, res.ssim[t].mean,
                     res.redundancy[t].mean * 100))
    elif name == "fig10a":
        from .analysis.plots import ascii_cdf

        res = figures.fig10a_delay_cdf(duration=args.duration, seeds=tuple(range(3)))
        for arm, pct in res.percentiles.items():
            print("%-12s " % arm + "  ".join("%s=%.1fms" % (k, v * 1000) for k, v in pct.items()))
        print()
        print(ascii_cdf(res.delays, x_label="packet delay (s)", log_x=True))
    elif name == "fig10b":
        for day, r in figures.fig10b_redundancy(days=7, duration=args.duration):
            print("day %d: %.2f%%" % (day, r * 100))
    elif name == "fig13a":
        res = figures.fig13a_qrlnc_ablation(duration=args.duration, seeds=tuple(range(3)))
        for arm, s in res.summary.items():
            print("%-12s mean %.3f%%  P99 %.3f%%" % (arm, s["mean"] * 100, s["p99"] * 100))
    elif name == "fig13b":
        res = figures.fig13b_loss_detection_ablation(duration=args.duration, seeds=tuple(range(3)))
        for arm in ("qoe-aware", "pto-only"):
            print("%-10s " % arm + "  ".join("%s=%.1fms" % (k, v * 1000) for k, v in res[arm].items()))
    else:
        print("unknown figure %r" % args.name, file=sys.stderr)
        return 2
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    cell = generate_cellular_trace(args.tech, carrier=args.carrier,
                                   duration=args.duration, seed=args.seed)
    link = cell.to_link_trace()
    print("%s: mean capacity %.1f Mbps, mean loss %.1f%%, outage %.1f%% of time"
          % (link.name, link.mean_capacity_mbps, cell.loss_prob.mean() * 100,
             cell.outage_mask.mean() * 100))
    if args.out:
        if args.out.endswith(".json"):
            save_json(link, args.out)
        else:
            save_mahimahi(link, args.out)
        print("wrote %s" % args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--log-level", default="warning",
        choices=["debug", "info", "warning", "error"],
        help="logging level for the repro.* namespace",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="stream one session")
    p_run.add_argument("transport", choices=TRANSPORT_NAMES)
    _add_common(p_run)
    p_run.add_argument("--telemetry", action="store_true",
                       help="record and print packet-lifecycle telemetry")
    p_run.add_argument("--telemetry-out", metavar="FILE",
                       help="export telemetry as JSONL (implies --telemetry)")
    p_run.add_argument("--faults", metavar="PLAN.json",
                       help="arm a fault-injection plan for the session "
                            "(see docs/robustness.md for the schema)")
    p_run.add_argument("--fault-seed", type=int, default=0,
                       help="seed for fault randomness (independent of --seed)")
    p_run.add_argument("--sanitize", action="store_true",
                       help="arm the runtime protocol sanitizer (fail fast "
                            "on any invariant breach)")
    p_run.add_argument("--spans-out", metavar="FILE",
                       help="arm causal span tracing and export the span "
                            "tree as JSONL (implies --telemetry)")
    p_run.add_argument("--chrome-trace", metavar="FILE",
                       help="arm span tracing and export Chrome trace-event "
                            "JSON (load in Perfetto / chrome://tracing)")
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("report", help="run one session and write the "
                                          "self-contained HTML report")
    p_rep.add_argument("transport", choices=TRANSPORT_NAMES)
    _add_common(p_rep)
    p_rep.add_argument("--out", default="report.html", metavar="FILE",
                       help="output HTML path (default report.html)")
    p_rep.add_argument("--faults", metavar="PLAN.json",
                       help="arm a fault-injection plan (windows are shaded "
                            "on the report's timelines)")
    p_rep.add_argument("--fault-seed", type=int, default=0,
                       help="seed for fault randomness (independent of --seed)")
    p_rep.add_argument("--spans-out", metavar="FILE",
                       help="additionally export the span tree as JSONL")
    p_rep.set_defaults(func=_cmd_report)

    p_cmp = sub.add_parser("compare", help="compare transports on the same traces")
    p_cmp.add_argument("transports", nargs="+", choices=TRANSPORT_NAMES)
    p_cmp.add_argument("--runs", type=int, default=3, help="number of trace seeds")
    _add_common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_fig = sub.add_parser("figure", help="regenerate one paper figure")
    p_fig.add_argument("name", help="fig3|fig8|fig9|fig10a|fig10b|fig11|fig12|fig13a|fig13b")
    _add_common(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_tr = sub.add_parser("trace", help="synthesise and export a drive trace")
    p_tr.add_argument("--tech", default="5G", choices=["5G", "LTE", "LEO-SAT"])
    p_tr.add_argument("--carrier", type=int, default=0)
    p_tr.add_argument("--duration", type=float, default=60.0)
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument("--out", help="output path (.json keeps loss/delay; else mahimahi)")
    p_tr.set_defaults(func=_cmd_trace)

    p_fleet = sub.add_parser(
        "fleet", help="run a sharded N-vehicle fleet simulation")
    p_fleet.add_argument("--vehicles", type=int, default=100,
                         help="fleet size (default 100, the paper's)")
    p_fleet.add_argument("--shards", type=int, default=None,
                         help="worker processes (never affects results)")
    p_fleet.add_argument("--seed", type=int, default=0, help="fleet seed")
    p_fleet.add_argument("--duration", type=float, default=2.0,
                         help="simulated streaming seconds per vehicle")
    p_fleet.add_argument("--transport", default="cellfusion",
                         choices=TRANSPORT_NAMES)
    p_fleet.add_argument("--bitrate", type=float, default=30.0,
                         help="video bitrate in Mbps")
    from .fleet.config import VEHICLE_MODES

    p_fleet.add_argument("--mode", default="tunnel",
                         choices=list(VEHICLE_MODES),
                         help="per-vehicle fidelity: full tunnel sim or "
                              "closed-form lite draw (1k-10k scale)")
    p_fleet.add_argument("--join-window", type=float, default=600.0,
                         help="control-clock seconds joins are staggered over")
    p_fleet.add_argument("--session-time", type=float, default=300.0,
                         help="control-clock seconds each vehicle stays")
    p_fleet.add_argument("--outage-pops", type=int, default=0,
                         help="PoPs that crash mid-run (0 = none)")
    p_fleet.add_argument("--fault-rate", type=float, default=0.0,
                         help="fraction of vehicles streaming under a "
                              "seeded random fault plan")
    p_fleet.add_argument("--fault-seed", type=int, default=0)
    p_fleet.add_argument("--sanitize", action="store_true",
                         help="arm the runtime protocol sanitizer inside "
                              "every vehicle run")
    p_fleet.add_argument("--out", metavar="FILE",
                         help="write the full fleet report as JSON")
    p_fleet.add_argument("--html", metavar="FILE", default="fleet-report.html",
                         help="write the fleet HTML report "
                              "(default fleet-report.html; '' disables)")
    p_fleet.add_argument("--check-digest", metavar="REPORT.json",
                         help="re-run the saved report's config and verify "
                              "the stored digest reproduces (ignores all "
                              "other flags except --shards)")
    p_fleet.set_defaults(func=_cmd_fleet)

    p_chaos = sub.add_parser(
        "chaos", help="scenario zoo, chaos campaigns, differential verdicts")
    chaos_sub = p_chaos.add_subparsers(dest="chaos_command", required=True)

    def _chaos_common(p, duration_default=None):
        p.add_argument("--seed", type=int, default=1, help="soak seed")
        p.add_argument("--duration", type=float, default=duration_default,
                       help="override the scenario's run length")
        p.add_argument("--sanitize", action="store_true",
                       help="arm the runtime protocol sanitizer")
        p.add_argument("--smoke", action="store_true",
                       help="use the scenario's short smoke duration")

    c_list = chaos_sub.add_parser("list", help="print the scenario catalog")
    c_list.set_defaults(func=_cmd_chaos)

    c_run = chaos_sub.add_parser(
        "run", help="run one zoo scenario, or replay a shrunk-plan artifact")
    c_run.add_argument("scenario", nargs="?", help="zoo scenario name")
    c_run.add_argument("--plan", metavar="FILE",
                       help="replay a (shrunk) plan JSON artifact instead")
    c_run.add_argument("--transport", default=None, choices=TRANSPORT_NAMES)
    _chaos_common(c_run)
    c_run.set_defaults(func=_cmd_chaos)

    c_zoo = chaos_sub.add_parser(
        "zoo", help="run every zoo scenario and assert its oracles")
    c_zoo.add_argument("--scenario", action="append",
                       help="restrict to named scenario(s); repeatable")
    c_zoo.add_argument("--rerun", action="store_true",
                       help="run each scenario twice and demand "
                            "byte-identical digests")
    _chaos_common(c_zoo)
    c_zoo.set_defaults(func=_cmd_chaos)

    c_camp = chaos_sub.add_parser(
        "campaign", help="hypothesis-driven random-plan campaign with "
                         "failure shrinking")
    c_camp.add_argument("--examples", type=int, default=25,
                        help="generated plans per campaign")
    c_camp.add_argument("--max-events", type=int, default=6,
                        help="events per generated plan")
    c_camp.add_argument("--derandomize", action="store_true",
                        help="derive generation from the property itself "
                             "(deterministic CI mode)")
    c_camp.add_argument("--kind", action="append",
                        help="restrict generated fault kinds; repeatable")
    c_camp.add_argument("--artifact", metavar="FILE",
                        default="chaos-shrunk.json",
                        help="where to write the minimal failing plan "
                             "(default chaos-shrunk.json)")
    c_camp.add_argument("--transport", default=None, choices=TRANSPORT_NAMES)
    _chaos_common(c_camp, duration_default=4.0)
    c_camp.set_defaults(func=_cmd_chaos)

    c_diff = chaos_sub.add_parser(
        "diff", help="same scenario and seed across every transport; "
                     "HTML verdict matrix")
    c_diff.add_argument("scenario", help="zoo scenario name")
    c_diff.add_argument("--transports", nargs="+", default=None,
                        choices=TRANSPORT_NAMES,
                        help="override the 9-transport comparison set")
    c_diff.add_argument("--out", metavar="FILE", default="chaos-diff.html",
                        help="HTML verdict matrix path ('' disables)")
    _chaos_common(c_diff)
    c_diff.set_defaults(func=_cmd_chaos)

    # listed for --help only: main() forwards "lint" before argparse runs
    p_lint = sub.add_parser("lint", help="run the repo protocol/determinism linter")
    p_lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                        help="arguments forwarded to tools.lint (e.g. "
                             "--format json, --rule no-wall-clock, paths)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        # forward everything after "lint" verbatim — argparse REMAINDER
        # refuses to capture leading option strings like --format
        configure_logging("warning")
        import tools.lint as lint

        return lint.main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    return args.func(args)
