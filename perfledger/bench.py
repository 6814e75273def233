"""The measuring procedure for one workload.

Per workload, in one process and one thread (closed loop on the host: the
next rep starts when the previous returns; the simulated video source is
open-loop at 30 fps and packet delay is timed from capture):

1. ``setup_s`` probes — fresh-interpreter imports and ``make_inputs``;
2. one untimed warm-up rep on the 1.5 sim-s variant;
3. timed reps back to back, all instrumentation off, rep ``i`` on input
   ``sub_seed(seed, i)``, until ``seconds`` of measured time and the
   workload's rep floor;
4. one untimed counts rep on rep 0's input with telemetry on, which must
   reproduce rep 0's digest and packet totals and pass the mechanism guard;
5. one traced rep on rep 0's input under ``cProfile`` for the layer table.

End-to-end timings come from step 3 only.
"""

from __future__ import annotations

import contextlib
import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from .layers import LAYERS, OTHER
from .spec import END_TO_END, PER_LAYER
from .tracing import UNATTRIBUTED, SpanLog, TraceTable, attribute, profile_call
from .workloads import (STALL_THRESHOLD_S, GuardFailure, RepOutcome, Workload,
                        merge_outcomes, sub_seed)

__all__ = ["measure", "contract_line", "noise_header", "format_report"]

IMPORT_PROBES = 3
INPUT_PROBES = 3
SMOKE_REPS = 2
#: Wall-minus-CPU share of a rep above which the host was visibly busy
#: with something else.
NOISY_GAP = 0.03

_IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                 "import repro.experiments.runner, repro.fleet; "
                 "print(time.perf_counter() - t)")


def _cpu_s() -> float:
    """User+system CPU seconds of this process and its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _import_probe_s() -> float:
    """Seconds a fresh interpreter needs to import the simulator."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout.strip())


def _percentile(ordered: List[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _summary(values: List[float], unit: str) -> dict:
    """Median + quartiles + sample count.  With 10-20 reps no tail
    percentile has ten samples beyond it, so none is reported."""
    out = {"value": statistics.median(values), "unit": unit, "n": len(values)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    return out


def _sim_metrics(outcome: RepOutcome) -> Dict[str, float]:
    delays = sorted(outcome.delays)
    c = outcome.counts
    return {
        "sim_delay_p50_ms": _percentile(delays, 0.50) * 1e3,
        "sim_delay_p95_ms": _percentile(delays, 0.95) * 1e3,
        "sim_wire_bytes_per_app_byte": c["wire_bytes"] / c["app_bytes_in"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer(workload: Workload, outcome: RepOutcome, table: TraceTable,
               overhead: float, wall_us_per_pkt: float, cpu_per_rep: float,
               gen_ms: float, spans: SpanLog) -> Dict[str, float]:
    """Every per-layer metric, from the counts rep's ``outcome`` and the
    traced rep's ``table`` (both ran rep 0's input)."""
    c = outcome.counts
    pkts = outcome.app_packets
    late = sum(1 for d in outcome.delays if d > STALL_THRESHOLD_S)

    def calls(name):
        return table.boundaries[name][0]

    def incl_us(name):
        """Inclusive microseconds per call, scaled back to untraced time."""
        n, seconds = table.boundaries[name]
        return _ratio(seconds * 1e6, n * overhead)

    def incl_total_s(name):
        return table.boundaries[name][1] / overhead

    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[layer + ".self_us_per_pkt"] = table.share(layer) * wall_us_per_pkt
        m[layer + ".calls_per_pkt"] = table.calls[layer] / pkts
    sends = calls("link.send_uplink") + calls("link.send_downlink")
    dropped_queue = c["link_up_dropped_queue"] + c["link_down_dropped_queue"]
    dropped_loss = c["link_up_dropped_loss"] + c["link_down_dropped_loss"]
    coded = c["decode_coded_received"]
    sessions = c.get("vehicles", 1)
    is_fleet = workload.kind == "fleet"
    m.update({
        "video.fps": c["fps_x_s"] / outcome.sim_seconds,
        "video.stall_pct": 100.0 * c["stall_s"] / outcome.sim_seconds,
        "video.ssim": c["ssim_x_frames"] / c["frames_sent"],
        "video.frames_ok_share": c["frames_ok"] / c["frames_sent"],
        "video.late_pkt_share": late / pkts,
        "transport.wire_pkts_per_app_pkt": c["wire_packets"] / pkts,
        "transport.pump_calls_per_pkt": calls("transport.pump") / pkts,
        "transport.acks_per_app_pkt": c["acks_received"] / pkts,
        "transport.expired_pkt_share": c["expired_packets"] / pkts,
        "transport.redundancy_pct": 100.0 * c["extra_bytes"] / c["first_tx_bytes"],
        "multipath.select_calls_per_pkt": calls("multipath.select") / pkts,
        "multipath.health_transitions": c["health_transitions"],
        "quic.cc_on_ack_us": incl_us("quic.cc_on_ack"),
        "xnc.lost_marked_share": c["qoe_lost_marked"] / pkts,
        "xnc.ranges_per_1k_pkts": 1000.0 * c["ranges_executed"] / pkts,
        "xnc.recovery_pkts_per_lost_pkt": _ratio(c["recovery_packets"],
                                                 c["qoe_lost_marked"]),
        "xnc.tick_us": incl_us("xnc.tick"),
        "coder.encode_us_per_call": incl_us("coder.encode"),
        "coder.decode_push_us_per_call": incl_us("coder.decode_push"),
        "coder.gf_calls_per_pkt": calls("coder.gf") / pkts,
        "coder.recovered_pkts_per_coded_pkt": _ratio(c["decode_packets_recovered"], coded),
        "coder.useless_coded_share": _ratio(c["decode_dependent_discarded"], coded),
        "link.sends_per_app_pkt": sends / pkts,
        "link.queue_drop_share": _ratio(dropped_queue, sends),
        "link.loss_drop_share": _ratio(dropped_loss, sends),
        "link.deliver_us_per_call": incl_us("link.deliver"),
        "events.dispatched_per_pkt": table.dispatched / pkts,
        "events.scheduled_per_pkt": calls("events.schedule") / pkts,
        "events.self_us_per_event": _ratio(
            m["events.self_us_per_pkt"] * pkts, table.dispatched),
        "cellular.gen_ms_per_path_sim_s": gen_ms,
        "baselines.retx_pkts_per_app_pkt": c["retx_packets"] / pkts,
        "faults.applied": c["faults_applied"],
        "faults.hook_calls_per_pkt": calls("faults.hook") / pkts,
        "cloud.plan_ms_per_vehicle": 1e3 * c.get("plan_s", 0.0) / sessions,
        "cloud.snat_denied_share": _ratio(c.get("snat_denials", 0),
                                          calls("cloud.snat_translate")),
        "cloud.failovers": c.get("failovers", 0),
        "fleet.simulate_ms_per_vehicle": incl_us("fleet.simulate_vehicle") / 1e3,
        "fleet.merge_ms_per_vehicle": incl_us("obs.merge") / 1e3,
        "fleet.vehicles_per_core_s": _ratio(sessions, cpu_per_rep) if is_fleet else 0.0,
        "obs.aggregate_us_per_pkt": 1e6 * (incl_total_s("obs.add_result")
                                           + incl_total_s("obs.merge")) / pkts,
        "experiments.qoe_analysis_ms_per_rep": 1e3 * incl_total_s("experiments.analyze_qoe"),
        "experiments.build_ms_per_rep": 1e3 * (
            incl_total_s("experiments.run_stream")
            - incl_total_s("events.run_until")
            - incl_total_s("experiments.analyze_qoe")),
        "trace.overhead_ratio": overhead,
        "trace.unattributed_share": table.share(UNATTRIBUTED),
        "trace.spans_dropped": spans.dropped,
    })
    return m


def measure(workload: Workload, seed: int, seconds: float, *,
            smoke: bool = False, traced: bool = True,
            reps: Optional[int] = None,
            spans: Optional[SpanLog] = None) -> dict:
    """Run the whole procedure for one workload; returns its result record.

    ``reps`` fixes the number of timed reps (tests); otherwise reps run
    until ``seconds`` of measured time and the workload's floor (two in
    ``smoke`` mode, which also shortens every session to 1.5 sim-s and
    relaxes the guards).
    """
    spans = spans if spans is not None else SpanLog()
    problems: List[str] = []
    load_before = os.getloadavg()
    with spans.span("workload:" + workload.name):
        # 1. set-up
        import_s, input_s, gen_s = [], [], []
        with spans.span("setup"):
            for _ in range(1 if smoke else IMPORT_PROBES):
                with spans.span("import_probe"):
                    import_s.append(_import_probe_s())
            for _ in range(1 if smoke else INPUT_PROBES):
                with spans.span("make_inputs"):
                    t0 = time.perf_counter()
                    inputs = workload.make_inputs(smoke)
                    input_s.append(time.perf_counter() - t0)
                gen_s.append(inputs["cellular_gen_s"])
        setup_s = statistics.median(import_s) + statistics.median(input_s)
        gen_ms = 1e3 * statistics.median(gen_s) / inputs["cellular_path_sim_s"]

        # 2. warm-up
        with spans.span("warmup"):
            warm = inputs if smoke else workload.make_inputs(smoke=True)
            workload.outcome(workload.run_rep(warm, sub_seed(seed, 0)))

        # 3. timed reps
        floor = reps if reps is not None else (SMOKE_REPS if smoke else workload.min_reps)
        open_ended = reps is None and not smoke
        walls: List[float] = []
        cpus: List[float] = []
        outcomes: List[RepOutcome] = []
        while len(walls) < floor or (open_ended and sum(walls) < seconds):
            i = len(walls)
            gc.collect()
            with spans.span("rep:%d" % i):
                cpu0 = _cpu_s()
                t0 = time.perf_counter()
                result = workload.run_rep(inputs, sub_seed(seed, i))
                walls.append(time.perf_counter() - t0)
                cpus.append(_cpu_s() - cpu0)
            outcome = workload.outcome(result)
            del result
            if i >= floor:
                outcome.delays = []   # only the floor reps are pooled
            outcomes.append(outcome)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # 4. counts rep
        first = outcomes[0]
        with spans.span("counts_rep"):
            counted, pooled = workload.run_counts_rep(
                inputs, [sub_seed(seed, i) for i in range(floor)])
        if workload.kind == "stream" and counted.digest != first.digest:
            problems.append("counts rep broke rep 0's digest")
        if counted.totals != first.totals:
            problems.append("counts rep packet totals %r != timed %r"
                            % (counted.totals, first.totals))
        # guards read the byte and packet counters pooled over the floor
        # reps (one 10-s session is too small a sample to hold a threshold
        # on every seed) and the telemetry-only counters of the counts rep
        if pooled is None:
            pooled = merge_outcomes(outcomes[:floor], first.digest)
        try:
            workload.check({**counted.counts, **pooled.counts}, smoke)
        except GuardFailure as exc:
            problems.append(str(exc))

        # 5. traced rep
        table = None
        if traced:
            phases = (_fleet_spans(spans) if workload.kind == "fleet"
                      else contextlib.nullcontext())
            with spans.span("traced_rep"), phases:
                result, traced_wall, stats = profile_call(
                    lambda: workload.run_rep(inputs, sub_seed(seed, 0)))
            again = workload.outcome(result)
            del result
            if again.digest != first.digest:
                problems.append("traced rep broke rep 0's digest")
            table = attribute(stats)
    load_after = os.getloadavg()

    # -- metrics ------------------------------------------------------------
    sim_s = [o.sim_seconds for o in outcomes]
    wall_rel = [w / s for w, s in zip(walls, sim_s)]
    cpu_rel = [c / s for c, s in zip(cpus, sim_s)]
    sim = _sim_metrics(pooled)
    end_to_end = {
        "wall_s_per_sim_s": _summary(wall_rel, "s/s"),
        "cpu_s_per_sim_s": _summary(cpu_rel, "s/s"),
        "setup_s": {"value": setup_s, "unit": "s", "n": len(import_s),
                    "import_s": import_s, "make_inputs_s": input_s},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "n": 1},
    }
    for name, unit, _better, _bound in END_TO_END:
        if name in sim:
            end_to_end[name] = {"value": sim[name], "unit": unit, "n": 1}

    attempted = sum(o.app_packets for o in outcomes)
    wall_median = statistics.median(walls)
    pkts_per_rep = statistics.fmean(o.app_packets for o in outcomes)
    wall_us_per_pkt = 1e6 * wall_median / pkts_per_rep
    gap = statistics.median((w - c) / w for w, c in zip(walls, cpus))
    wall = end_to_end["wall_s_per_sim_s"]
    rep_iqr_rel = (wall["q3"] - wall["q1"]) / wall["value"] if "q1" in wall else 0.0
    record = {
        "workload": workload.name,
        "seed": seed,
        "smoke": smoke,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "reps": len(walls),
        "rep_wall_s": walls,
        "rep_cpu_s": cpus,
        "wall_us_per_app_pkt": wall_us_per_pkt,
        "end_to_end": end_to_end,
        "digest": first.digest,
        "exact": dict(sim, **{"counts." + k: v for k, v in sorted(counted.counts.items())
                              if k != "plan_s"}),
        "noise": {
            "loadavg_before": list(load_before),
            "loadavg_after": list(load_after),
            "reps": len(walls),
            "rep_iqr_rel": rep_iqr_rel,
            "wall_cpu_gap_rel": gap,
        },
        "noisy": gap > NOISY_GAP,
    }
    if table is not None:
        overhead = traced_wall / walls[0]
        per_layer = _per_layer(workload, counted, table, overhead,
                               wall_us_per_pkt, statistics.median(cpus),
                               gen_ms, spans)
        record["per_layer"] = {name: {"value": per_layer[name], "unit": unit}
                               for name, unit, _better in PER_LAYER}
        record["layer_table"] = [
            {"layer": layer, "share": table.share(layer),
             "self_us_per_pkt": table.share(layer) * wall_us_per_pkt,
             "calls_per_pkt": table.calls.get(layer, 0) / again.app_packets}
            for layer in LAYERS + (OTHER, UNATTRIBUTED)]
        record["boundaries"] = {
            name: {"calls": n, "inclusive_us_per_call": _ratio(s * 1e6, n * overhead)}
            for name, (n, s) in table.boundaries.items()}
        record["exact"].update({"calls." + layer: table.calls[layer]
                                for layer in LAYERS + (OTHER,)})
        record["exact"]["events.dispatched"] = table.dispatched
    return record


@contextlib.contextmanager
def _fleet_spans(spans: SpanLog):
    """While active, ``run_fleet``'s phases — plan, each vehicle, each merge
    — record driver spans.  Only the traced rep uses it; timed reps run the
    unmodified functions."""
    from unittest import mock

    from repro.fleet import runner
    from repro.obs.aggregate import RunAggregate

    def spanned(label, fn):
        def wrapper(*args, **kwargs):
            with spans.span(label):
                return fn(*args, **kwargs)
        return wrapper

    with mock.patch.object(runner, "plan_fleet", spanned("plan_fleet", runner.plan_fleet)), \
            mock.patch.object(runner, "simulate_vehicle",
                              spanned("vehicle", runner.simulate_vehicle)), \
            mock.patch.object(RunAggregate, "merge", spanned("merge", RunAggregate.merge)):
        yield


def contract_line(record: dict, trace: int) -> dict:
    """The one-line result the driver reads."""
    source = record["per_layer"] if trace else record["end_to_end"]
    names = [row[0] for row in (PER_LAYER if trace else END_TO_END)]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": source[n]["value"], "unit": source[n]["unit"]}
                    for n in names},
    }


def _commit() -> str:
    """HEAD of the checkout the benchmark runs in, read without git."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def noise_header() -> dict:
    return {"commit": _commit(), "python": platform.python_version(),
            "nproc": os.cpu_count()}


def format_report(record: dict) -> str:
    """Every metric by name with its unit, then the layer table."""
    lines = ["== %s  seed %d  %d reps%s" % (
        record["workload"], record["seed"], record["reps"],
        "  [NOISY: wall-CPU gap %.1f %%]" % (100 * record["noise"]["wall_cpu_gap_rel"])
        if record["noisy"] else "")]
    for name, _unit, better, bound in END_TO_END:
        m = record["end_to_end"][name]
        spread = ("  q1 %.6g  q3 %.6g" % (m["q1"], m["q3"])) if "q1" in m else ""
        lines.append("  %-30s %14.6g %-5s n=%-3d%s  (%s is better, bound %g %%)"
                     % (name, m["value"], m["unit"], m["n"], spread, better,
                        100 * bound))
    noise = record["noise"]
    lines.append("  rep IQR / median %.2f %% (inputs differ per rep)   "
                 "wall-CPU gap %.2f %%   loadavg %.2f -> %.2f"
                 % (100 * noise["rep_iqr_rel"], 100 * noise["wall_cpu_gap_rel"],
                    noise["loadavg_before"][0], noise["loadavg_after"][0]))
    if "layer_table" in record:
        lines.append("  layer            share   self us/pkt   calls/pkt")
        for row in record["layer_table"]:
            lines.append("  %-14s %6.2f %%  %12.3f  %10.3f" % (
                row["layer"], 100 * row["share"], row["self_us_per_pkt"],
                row["calls_per_pkt"]))
        lines.append("  %-14s %6.2f %%  %12.3f   (untraced wall us per app packet)" % (
            "total", 100 * sum(r["share"] for r in record["layer_table"]),
            record["wall_us_per_app_pkt"]))
        for name, _unit, _better in PER_LAYER:
            m = record["per_layer"][name]
            lines.append("  %-38s %14.6g %s" % (name, m["value"], m["unit"]))
    for problem in record["problems"]:
        lines.append("  FAILED: " + problem)
    return "\n".join(lines)
