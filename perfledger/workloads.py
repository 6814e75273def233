"""The four workloads, their inputs, and the guards that prove each one
engaged the mechanism it was chosen to measure.

A workload is a fixed drive (the cellular channel) filmed ``reps`` times:
rep ``i`` of ``--seed s`` runs the input ``sub_seed(s, i)``.  The channel
is not redrawn per seed — that moves host time by +-20 % and tails 3x,
which no bound survives — so the seed draws the footage (frame sizes) and
the fault randomness on the same road.  For the fleet the seed draws the
chaos plans of the faulted vehicles over a fixed set of twelve channels.

Everything here calls ``repro`` through its public functions only.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

__all__ = ["WORKLOADS", "WORKLOAD_NAMES", "Workload", "RepOutcome",
           "GuardFailure", "merge_outcomes", "sub_seed", "STALL_THRESHOLD_S",
           "CENSOR_S"]

#: The drive every stream workload replays (2x5G + 2xLTE).
TRACE_SEED = 1
#: Emulator seed of the stream workloads: per-packet loss draws and the
#: downlink channel, both part of the fixed drive.
EMULATOR_SEED = 1
#: Fleet seed: placements, per-vehicle channels, which vehicles are faulted.
FLEET_SEED = 1

#: An app packet later than this after capture missed its frame (the
#: paper's stall threshold); lost packets are censored at CENSOR_S.
STALL_THRESHOLD_S = 0.200
CENSOR_S = 1.0

STREAM_SIM_S = 10.0
SMOKE_SIM_S = 1.5
FLEET_VEHICLES = 12
SMOKE_FLEET_VEHICLES = 4
FLEET_SIM_S = 2.0


class GuardFailure(AssertionError):
    """The workload ran but did not engage what it is there to measure."""


def sub_seed(seed: int, rep: int) -> int:
    """Input seed of rep ``rep`` under ``--seed seed`` (stable across runs)."""
    return random.Random("perfledger/%d/%d" % (seed, rep)).getrandbits(31)


@dataclass
class RepOutcome:
    """What one rep produced, reduced to what the ledger reads."""

    digest: str
    sim_seconds: float
    app_packets: int
    #: ``[session, packets sent, packets received]`` per session; the counts
    #: rep must reproduce the timed rep's rows.
    totals: List[List[int]] = field(default_factory=list)
    #: Censored one-way delays in seconds, one per app packet (streams and
    #: fleet replays; empty for a bare ``run_fleet`` rep, which returns no
    #: per-packet data).
    delays: List[float] = field(default_factory=list)
    #: Exact counts; keys depend on the workload kind.
    counts: Dict[str, float] = field(default_factory=dict)


def _digest(doc) -> str:
    """sha256 of ``doc`` with every float rendered bit-exactly."""
    from repro.fleet import hex_floats

    text = json.dumps(hex_floats(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stream_counts(result) -> Dict[str, float]:
    """Exact counts of one stream session, telemetry included when on."""
    stats = result.client_stats.as_dict()
    counts = {k: v for k, v in stats.items() if k != "redundancy_ratio"}
    counts["wire_packets"] = sum(stats[k] for k in (
        "first_tx_packets", "retx_packets", "recovery_packets",
        "duplicate_packets", "probe_packets"))
    counts["wire_bytes"] = sum(stats[k] for k in (
        "first_tx_bytes", "retx_bytes", "recovery_bytes", "duplicate_bytes",
        "probe_bytes"))
    counts["extra_bytes"] = sum(stats[k] for k in (
        "retx_bytes", "recovery_bytes", "duplicate_bytes"))
    counts["packets_sent"] = result.packets_sent
    counts["packets_received"] = result.packets_received
    counts["frames_sent"] = result.frames_sent
    counts["frames_ok"] = sum(1 for s in result.frame_statuses if s == "normal")
    counts["fps_x_s"] = result.qoe.avg_fps * result.duration
    counts["stall_s"] = result.qoe.stall_ratio * result.duration
    counts["ssim_x_frames"] = result.qoe.ssim * result.frames_sent
    counts["terminal_errors"] = 1 if result.terminal_error else 0
    counts["faults_applied"] = (result.fault_summary or {}).get("applied", 0)
    tel = result.telemetry
    if tel is not None:
        snapshot = {m["name"]: m for m in tel.metrics.snapshot()}
        counts["qoe_lost_marked"] = snapshot.get("xnc.qoe_loss", {}).get("value", 0)
        counts["ranges_executed"] = snapshot.get("xnc.range_size", {}).get("count", 0)
        decode = tel.stats.get("decode", {})
        for key in ("coded_received", "packets_recovered", "ranges_completed",
                    "dependent_discarded", "duplicates"):
            counts["decode_" + key] = decode.get(key, 0)
        for direction in ("up", "down"):
            for key in ("enqueued", "delivered", "dropped_queue", "dropped_loss"):
                counts["link_%s_%s" % (direction, key)] = sum(
                    s[key] for label, s in tel.stats.items()
                    if label.startswith("link.%s." % direction))
        counts["health_transitions"] = sum(
            m.get("value", 0) for name, m in snapshot.items()
            if name.startswith("path.health."))
    return counts


def _stream_outcome(result) -> RepOutcome:
    doc = {
        "delays": result.packet_delays,
        "qoe": [result.qoe.avg_fps, result.qoe.stall_ratio, result.qoe.ssim],
        "packets": [result.packets_sent, result.packets_received],
        "stats": result.client_stats.as_dict(),
        "frames": result.frame_statuses,
        "terminal_error": result.terminal_error,
    }
    return RepOutcome(
        digest=_digest(doc),
        sim_seconds=result.duration,
        app_packets=result.packets_sent,
        totals=[[0, result.packets_sent, result.packets_received]],
        delays=result.censored_packet_delays(CENSOR_S),
        counts=_stream_counts(result),
    )


def merge_outcomes(outcomes: List[RepOutcome], digest: str) -> RepOutcome:
    merged = RepOutcome(digest=digest, sim_seconds=0.0, app_packets=0)
    for o in outcomes:
        merged.sim_seconds += o.sim_seconds
        merged.app_packets += o.app_packets
        merged.delays.extend(o.delays)
        for key, value in o.counts.items():
            merged.counts[key] = merged.counts.get(key, 0) + value
    return merged


@dataclass(frozen=True)
class Workload:
    """One named workload: how to build its inputs, run a rep, check it."""

    name: str
    why: str
    kind: str                       # "stream" | "fleet"
    min_reps: int
    #: ``guard(counts, smoke)`` raises GuardFailure when the mechanism the
    #: workload is there to measure did not engage.
    guard: Callable[[Dict[str, float], bool], None]
    transport: str = "cellfusion"
    bursty: bool = False

    # -- inputs -----------------------------------------------------------

    def sim_seconds(self, smoke: bool) -> float:
        if smoke:
            return SMOKE_SIM_S
        return FLEET_SIM_S if self.kind == "fleet" else STREAM_SIM_S

    def make_inputs(self, smoke: bool = False) -> dict:
        """Seed-independent inputs: the channel, the fault plan, timings.

        Returns the seconds spent synthesising cellular traces under
        ``cellular_gen_s`` (for ``cellular.gen_ms_per_path_sim_s``).
        """
        from repro.emulation.cellular import generate_fleet_traces

        duration = self.sim_seconds(smoke)
        t0 = time.perf_counter()
        traces = generate_fleet_traces(duration=duration, seed=TRACE_SEED)
        gen_s = time.perf_counter() - t0
        inputs = {"duration": duration, "cellular_gen_s": gen_s,
                  "cellular_path_sim_s": len(traces) * duration,
                  "vehicles": SMOKE_FLEET_VEHICLES if smoke else FLEET_VEHICLES}
        if self.kind == "stream":
            inputs["traces"] = traces
            inputs["faults"] = self._burst_plan(duration) if self.bursty else None
        return inputs

    @staticmethod
    def _burst_plan(duration: float):
        """250 ms of total loss every second from t = 0.5 s, rotating over
        paths 0-2 (path 3 spared): bursts make n -> r = 10 ranges."""
        from repro.faults.plan import FaultPlanBuilder

        builder = FaultPlanBuilder()
        start, i = 0.5, 0
        while start < duration:
            builder.burst_loss(start, 0.25, severity=1.0, path_id=i % 3)
            start += 1.0
            i += 1
        return builder.build()

    def fleet_config(self, inputs: dict, seed: int):
        from repro.fleet import FleetConfig

        return FleetConfig(vehicles=inputs["vehicles"], shards=1,
                           duration=inputs["duration"], mode="tunnel",
                           fault_rate=0.25, outage_pops=2, seed=FLEET_SEED,
                           fault_seed=seed)

    # -- one rep ----------------------------------------------------------

    def run_rep(self, inputs: dict, seed: int):
        """One rep, all instrumentation off: the timed region.  Returns the
        simulator's own result object; :meth:`outcome` reduces it outside
        the timed region."""
        if self.kind == "fleet":
            from repro.fleet import run_fleet

            return run_fleet(self.fleet_config(inputs, seed))
        return self._run_stream(inputs, seed, telemetry=False)

    def outcome(self, result) -> RepOutcome:
        if self.kind == "fleet":
            return self._fleet_outcome(result)
        return _stream_outcome(result)

    def _run_stream(self, inputs: dict, seed: int, telemetry: bool):
        from repro.experiments.runner import run_stream
        from repro.video.source import VideoConfig

        return run_stream(self.transport, inputs["traces"],
                          video=VideoConfig(seed=seed),
                          duration=inputs["duration"], seed=EMULATOR_SEED,
                          faults=inputs["faults"], fault_seed=seed,
                          telemetry=telemetry)

    @staticmethod
    def _fleet_outcome(report) -> RepOutcome:
        rows = report.vehicles
        counts = {
            "vehicles": len(rows),
            "faulted": sum(1 for r in rows if r["faulted"]),
            "faults_applied": sum(r["faults_applied"] for r in rows),
            "terminal_errors": sum(1 for r in rows if r["terminal_error"]),
            "packets_sent": sum(r["packets_sent"] for r in rows),
            "packets_received": sum(r["packets_received"] for r in rows),
            "snat_denials": report.control["snat"]["denials"],
            "snat_peak_live": report.control["snat"]["peak_live"],
            "failovers": report.control["controller"]["failovers"],
        }
        return RepOutcome(digest=report.digest,
                          sim_seconds=report.config["duration"] * len(rows),
                          app_packets=counts["packets_sent"], counts=counts,
                          totals=[[r["vid"], r["packets_sent"], r["packets_received"]]
                                  for r in rows])

    # -- the counts rep ---------------------------------------------------

    def run_counts_rep(self, inputs: dict, seeds: List[int]):
        """``(counted, pool)``: rep 0's input again with telemetry on, and
        the sessions the ``sim_*`` statistics are pooled over.

        ``counted`` must reproduce the timed rep 0 (digest for a stream,
        per-vehicle packet totals for the fleet).  For a stream ``pool`` is
        None: the timed reps themselves return the delays and client stats.

        ``run_fleet`` returns neither, so each planned vehicle of rep 0 is
        replayed through ``run_stream`` with exactly the arguments
        ``repro.fleet.vehicle`` passes.  A replay cannot rebuild the report
        digest; the fleet outcome's digest is that of the replayed rows.
        The pool adds, for every further seed, a replay of the *faulted*
        vehicles — the only ones whose session depends on the seed — next
        to rep 0's unfaulted sessions, so it covers every rep's fleet.
        """
        if self.kind == "stream":
            return _stream_outcome(self._run_stream(inputs, seeds[0], telemetry=True)), None
        from repro.fleet import plan_fleet

        config = self.fleet_config(inputs, seeds[0])
        t0 = time.perf_counter()
        plan = plan_fleet(config)
        plan_s = time.perf_counter() - t0
        sessions = [self._replay_vehicle(config, spec, telemetry=True)
                    for spec in plan.vehicles]
        rows = [[spec.vid] + o.totals[0][1:] for spec, o in zip(plan.vehicles, sessions)]
        counted = merge_outcomes(sessions, _digest(rows))
        counted.totals = rows
        counted.counts.update({
            "vehicles": len(plan.vehicles),
            "faulted": sum(1 for s in plan.vehicles if s.faulted),
            "snat_denials": plan.control["snat"]["denials"],
            "snat_peak_live": plan.control["snat"]["peak_live"],
            "failovers": plan.control["controller"]["failovers"],
            "plan_s": plan_s,
        })
        steady = [o for spec, o in zip(plan.vehicles, sessions) if not spec.faulted]
        pool = list(sessions)
        for seed in seeds[1:]:
            config = self.fleet_config(inputs, seed)
            pool += steady
            pool += [self._replay_vehicle(config, spec, telemetry=False)
                     for spec in plan_fleet(config).vehicles if spec.faulted]
        return counted, merge_outcomes(pool, counted.digest)

    @staticmethod
    def _replay_vehicle(config, spec, telemetry: bool) -> RepOutcome:
        """One vehicle's session, called as ``repro/fleet/vehicle.py`` calls it."""
        from repro.determinism import derive_seed
        from repro.experiments.runner import run_stream
        from repro.faults.plan import random_plan
        from repro.video.source import VideoConfig

        faults = None
        if spec.faulted:
            faults = random_plan(spec.fault_seed, duration=max(1.25, config.duration))
        return _stream_outcome(run_stream(
            config.transport, duration=config.duration, seed=spec.seed,
            video=VideoConfig(bitrate_mbps=config.bitrate_mbps,
                              seed=derive_seed(spec.seed, "video")),
            faults=faults, fault_seed=spec.fault_seed, telemetry=telemetry))

    def check(self, counts: Dict[str, float], smoke: bool) -> None:
        """Raise :class:`GuardFailure` unless the mechanism engaged."""
        if counts.get("terminal_errors"):
            raise GuardFailure("%s: a session hit terminal_error" % self.name)
        self.guard(counts, smoke)


def _redundancy_pct(counts) -> float:
    return 100.0 * counts["extra_bytes"] / counts["first_tx_bytes"]


def _require(cond: bool, name: str, what: str) -> None:
    if not cond:
        raise GuardFailure("%s: %s" % (name, what))


def _guard_clean(c, smoke):
    _require(_redundancy_pct(c) < 5.0, "stream_clean",
             "redundancy %.2f %% >= 5 %% on the clean channel" % _redundancy_pct(c))
    _require(c["retx_packets"] == 0, "stream_clean", "cellfusion retransmitted")


def _guard_bursty(c, smoke):
    red = _redundancy_pct(c)
    _require(c["recovery_packets"] > 0, "stream_bursty", "no recovery packets")
    _require(c["decode_ranges_completed"] > 0, "stream_bursty",
             "no coded range completed")
    lo, hi = (1.0, 60.0) if smoke else (8.0, 25.0)
    _require(lo <= red < hi, "stream_bursty",
             "redundancy %.2f %% outside [%g, %g)" % (red, lo, hi))


def _guard_reliable(c, smoke):
    _require(c["retx_packets"] > 0, "stream_reliable", "no retransmissions")
    _require(c["recovery_packets"] == 0, "stream_reliable",
             "reliable client sent recovery packets")


def _guard_fleet(c, smoke):
    expected = SMOKE_FLEET_VEHICLES if smoke else FLEET_VEHICLES
    _require(c["vehicles"] == expected, "fleet_tunnel",
             "%d vehicles, expected %d" % (c["vehicles"], expected))
    _require(smoke or c["faulted"] >= 1, "fleet_tunnel", "no vehicle was faulted")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="stream_clean", kind="stream", min_reps=10, guard=_guard_clean,
        why="cellfusion on the fixed 4-path drive, no faults: the forwarding "
            "fast path (transport/quic/link/events); control for coder changes"),
    Workload(
        name="stream_bursty", kind="stream", min_reps=10, bursty=True,
        guard=_guard_bursty,
        why="same transport under 250 ms loss bursts each second: loss "
            "detection, ranges, one-shot recovery and Q-RLNC engage; coder is "
            "the largest layer"),
    Workload(
        name="stream_reliable", kind="stream", min_reps=10, bursty=True,
        transport="mpquic", guard=_guard_reliable,
        why="mpquic under the same bursts: shared transport/quic/multipath "
            "used as retransmit + in-order release; guards the comparison arms"),
    Workload(
        name="fleet_tunnel", kind="fleet", min_reps=5, guard=_guard_fleet,
        why="12-vehicle tunnel-mode fleet, 2-s cold-start sessions, chaos on "
            "a quarter: only workload running cloud, fleet, obs.aggregate and "
            "per-session construction"),
)}

WORKLOAD_NAMES = tuple(WORKLOADS)
