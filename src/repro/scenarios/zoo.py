"""The scenario zoo: named real-world adversity, checked in as data.

ROADMAP item 5 asks for "handles as many scenarios as you can imagine"
as an *enumerable, regression-gated suite*.  This module is that
enumeration: ten named scenarios, each pairing a composed
:class:`~repro.faults.plan.FaultPlan` (built from the run duration so
smoke and full runs share one shape), a trace profile (duration, path
count, transport), and per-scenario :class:`~repro.scenarios.oracles.
Expectations` the invariant oracles evaluate.

Every scenario is deterministic end to end: :func:`run_scenario` draws
the same traces and the same plan for the same seed, and the returned
:class:`ScenarioResult` carries the soak's outcome digest — CI reruns
each scenario and demands byte-identical digests.

The catalog (name → faults → invariants → expected QoE shape) is
rendered by :func:`catalog_rows` and documented in docs/robustness.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..faults.plan import FaultPlan, FaultPlanBuilder
from ..faults.soak import SoakReport, run_chaos_soak
from .oracles import Expectations, OracleVerdict, evaluate_oracles

__all__ = [
    "Scenario",
    "ScenarioResult",
    "SCENARIOS",
    "scenario_names",
    "get_scenario",
    "catalog_rows",
    "run_scenario",
]


@dataclass(frozen=True)
class Scenario:
    """One named, checked-in real-world scenario."""

    name: str
    title: str
    #: What on the road this models (one sentence).
    description: str
    #: ``(duration, path_count) -> FaultPlan`` — event times scale with
    #: the run so smoke (short) and full runs exercise the same shape.
    build_plan: Callable[[float, int], FaultPlan]
    #: Invariant expectations the oracle layer evaluates against.
    expectations: Expectations
    #: Expected QoE shape under this adversity (catalog documentation).
    qoe_shape: str
    #: Full-fidelity run length; ``--smoke`` runs use ``smoke_duration``.
    duration: float = 6.0
    smoke_duration: float = 2.5
    path_count: int = 4
    transport: str = "cellfusion"
    #: Scenario needs telemetry armed (event-level oracle extras).
    needs_telemetry: bool = False


@dataclass
class ScenarioResult:
    """One scenario run: the soak outcome plus its oracle verdicts."""

    scenario: str
    seed: int
    transport: str
    duration: float
    report: SoakReport
    verdicts: List[OracleVerdict]
    #: Scenario-specific extras (e.g. migration events, telemetry fault
    #: counts for the PoP-drain scenario); JSON-able, not digested.
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def digest(self) -> str:
        """The soak's outcome digest (rerun must reproduce it)."""
        return self.report.digest

    def failures(self) -> List[OracleVerdict]:
        return [v for v in self.verdicts if not v.ok]


# -- plan builders ----------------------------------------------------------
#
# Each builder receives (duration, path_count) and schedules faults at
# *fractions* of the run, so a 2.5 s smoke run and a 6 s full run share
# one adversity shape.  d(f) below is shorthand for duration * f.

def _tunnel_transit(duration: float, paths: int) -> FaultPlan:
    # every carrier goes dark at once mid-run (the tunnel mouth), then
    # all return together at the exit
    dark = min(1.2, duration * 0.25)
    return (FaultPlanBuilder()
            .blackout(duration * 0.4, dark, path_id=-1)
            .build())


def _urban_canyon(duration: float, paths: int) -> FaultPlan:
    # alternating per-carrier shadowing: brownouts and RTT spikes sweep
    # across the paths as buildings occlude one carrier after another
    b = FaultPlanBuilder()
    slot = duration * 0.7 / max(1, paths)
    for pid in range(paths):
        start = duration * 0.15 + pid * slot
        b.brownout(start, slot * 0.9, severity=0.45, path_id=pid)
        b.rtt_spike(start, slot * 0.6, delay=0.08, path_id=pid)
    return b.build()


def _handover_storm(duration: float, paths: int) -> FaultPlan:
    # highway tower handovers: short uplink bursts per path plus two
    # CGNAT rebinds as carriers re-anchor the flows
    b = FaultPlanBuilder()
    for pid in range(max(1, paths - 1)):
        start = duration * (0.2 + 0.15 * pid)
        b.burst_loss(start, min(0.4, duration * 0.08), path_id=pid)
        b.rtt_spike(start, min(0.8, duration * 0.15), delay=0.06, path_id=pid)
    b.nat_rebind(duration * 0.35)
    b.nat_rebind(duration * 0.7)
    return b.build()


def _carrier_outage(duration: float, paths: int) -> FaultPlan:
    # one carrier's (two SIMs') regional outage for most of the run; the
    # surviving carrier carries the stream
    dead = max(1, paths // 2)
    b = FaultPlanBuilder()
    for pid in range(dead):
        b.blackout(duration * 0.2, duration * 0.6, path_id=pid)
    return b.build()


def _brownout_cascade(duration: float, paths: int) -> FaultPlan:
    # a loss wave rolling across carriers with overlapping windows, so
    # the overlay's composition algebra is genuinely exercised
    b = FaultPlanBuilder()
    span = duration * 0.35
    for pid in range(max(1, paths - 1)):
        start = duration * (0.15 + 0.12 * pid)
        b.brownout(start, span, severity=0.6, path_id=pid)
    b.brownout(duration * 0.3, duration * 0.3, severity=0.25, path_id=-1)
    return b.build()


def _nat_churn(duration: float, paths: int) -> FaultPlan:
    # CGNAT timeout churn: repeated rebinds plus a downlink ACK blackout
    # (the return path through the middlebox dies first)
    b = FaultPlanBuilder()
    for i in range(3):
        b.nat_rebind(duration * (0.2 + 0.25 * i))
    b.ack_blackout(duration * 0.45, min(0.6, duration * 0.12), path_id=0)
    return b.build()


def _pop_drain_migration(duration: float, paths: int) -> FaultPlan:
    # controller drains the serving PoP and migrates the tunnel: one
    # make-before-break switchover outage plus the NAT flush it implies
    return (FaultPlanBuilder()
            .pop_handover(duration * 0.5, outage=min(0.3, duration * 0.08))
            .build())


def _rural_single_path(duration: float, paths: int) -> FaultPlan:
    # deep rural collapse: all but the last path go dark, the survivor
    # is throttled hard - the tunnel must ride one thin pipe
    b = FaultPlanBuilder()
    for pid in range(max(1, paths - 1)):
        b.blackout(duration * 0.25, duration * 0.55, path_id=pid)
    b.bandwidth_cliff(duration * 0.25, duration * 0.55, scale=0.35,
                      path_id=paths - 1)
    return b.build()


def _bandwidth_cliff(duration: float, paths: int) -> FaultPlan:
    # every path's capacity collapses to 15 % (congested cell edge):
    # queues build, delay inherits, nothing actually drops
    return (FaultPlanBuilder()
            .bandwidth_cliff(duration * 0.3, duration * 0.4, scale=0.15,
                             path_id=-1)
            .build())


def _reorder_storm(duration: float, paths: int) -> FaultPlan:
    # heavy cross-path jitter plus duplication: the decoder and the
    # range lifecycle must tolerate wild arrival orders
    b = FaultPlanBuilder()
    b.reorder(duration * 0.2, duration * 0.6, jitter=0.06, path_id=-1)
    b.duplicate(duration * 0.3, duration * 0.4, prob=0.3, path_id=0)
    b.duplicate(duration * 0.35, duration * 0.3, prob=0.3, path_id=1)
    return b.build()


SCENARIOS: Tuple[Scenario, ...] = (
    Scenario(
        name="tunnel_transit",
        title="Tunnel transit",
        description="All carriers go dark at the tunnel mouth and return "
                    "together at the exit.",
        build_plan=_tunnel_transit,
        expectations=Expectations(min_delivery=0.5,
                                  require_nat_flush=False),
        qoe_shape="hard stall inside the tunnel, fast recovery at exit",
    ),
    Scenario(
        name="urban_canyon",
        title="Urban canyon",
        description="Buildings occlude one carrier after another: rolling "
                    "brownouts and RTT spikes sweep across the paths.",
        build_plan=_urban_canyon,
        expectations=Expectations(min_delivery=0.6),
        qoe_shape="elevated tail delay, no stall (coding absorbs the loss)",
    ),
    Scenario(
        name="handover_storm",
        title="Highway handover storm",
        description="Tower handovers at speed: per-path uplink bursts, RTT "
                    "spikes, and repeated CGNAT rebinds.",
        build_plan=_handover_storm,
        expectations=Expectations(min_delivery=0.6, require_nat_flush=True),
        qoe_shape="brief per-path dips, steady aggregate FPS",
    ),
    Scenario(
        name="carrier_outage",
        title="Carrier outage",
        description="One carrier's regional outage takes half the SIMs down "
                    "for most of the run; the survivor carries the stream.",
        build_plan=_carrier_outage,
        expectations=Expectations(min_delivery=0.5,
                                  require_health_transitions=True),
        qoe_shape="bitrate-limited but stall-free on surviving capacity",
    ),
    Scenario(
        name="brownout_cascade",
        title="Brownout cascade",
        description="A loss wave rolls across carriers with overlapping "
                    "windows, compounding on the shared all-path brownout.",
        build_plan=_brownout_cascade,
        expectations=Expectations(min_delivery=0.4),
        qoe_shape="degraded SSIM through the wave, recovery after",
    ),
    Scenario(
        name="nat_churn",
        title="NAT churn",
        description="CGNAT timeout churn: repeated rebinds plus a downlink "
                    "ACK blackout through the middlebox.",
        build_plan=_nat_churn,
        expectations=Expectations(min_delivery=0.6, require_nat_flush=True),
        qoe_shape="transient ACK starvation, no end-to-end stall",
    ),
    Scenario(
        name="pop_drain_migration",
        title="PoP drain + migration",
        description="The controller drains the serving PoP mid-stream and "
                    "migrates the tunnel to a closer one (make-before-break "
                    "switchover via cloud/migration.py).",
        build_plan=_pop_drain_migration,
        expectations=Expectations(min_delivery=0.6, require_nat_flush=True),
        qoe_shape="one sub-second dip at switchover, then better access delay",
        needs_telemetry=True,
    ),
    Scenario(
        name="rural_single_path",
        title="Rural single-path collapse",
        description="Deep rural coverage: all but one path dark, the "
                    "survivor throttled to a thin pipe.",
        build_plan=_rural_single_path,
        expectations=Expectations(min_delivery=0.25,
                                  require_health_transitions=True),
        qoe_shape="rate-limited video on one thin path, no wedge",
    ),
    Scenario(
        name="bandwidth_cliff",
        title="Bandwidth cliff",
        description="Every path's capacity collapses to 15 % at the "
                    "congested cell edge; queues build and delay inherits.",
        build_plan=_bandwidth_cliff,
        expectations=Expectations(min_delivery=0.5),
        qoe_shape="delay balloon through the cliff, delivery mostly intact",
    ),
    Scenario(
        name="reorder_storm",
        title="Reorder storm",
        description="Heavy cross-path jitter plus duplication: wild arrival "
                    "orders against the decoder and range lifecycle.",
        build_plan=_reorder_storm,
        expectations=Expectations(min_delivery=0.6),
        qoe_shape="jittery packet delay CDF, duplicates discarded cleanly",
    ),
)

#: Name -> Scenario lookup (built once at import; never mutated).
_BY_NAME: Dict[str, Scenario] = {s.name: s for s in SCENARIOS}


def scenario_names() -> Tuple[str, ...]:
    return tuple(s.name for s in SCENARIOS)


def get_scenario(name: str) -> Scenario:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError("unknown scenario %r (choose from %s)"
                       % (name, ", ".join(scenario_names())))


def catalog_rows() -> List[List[str]]:
    """The docs/CLI catalog table: name, faults, invariants, QoE shape."""
    rows = []
    for s in SCENARIOS:
        plan = s.build_plan(s.duration, s.path_count)
        kinds = sorted({e.kind for e in plan})
        exp = s.expectations
        invariants = ["delivery>=%.2f" % exp.min_delivery]
        if exp.require_nat_flush:
            invariants.append("nat-flush")
        if exp.require_health_transitions:
            invariants.append("health-activity")
        if not exp.allow_terminal:
            invariants.append("no-wedge")
        rows.append([s.name, "+".join(kinds), " ".join(invariants),
                     s.qoe_shape])
    return rows


# -- the runner -------------------------------------------------------------

def _migration_extras(seed: int) -> Dict[str, object]:
    """Deterministic control-plane side of the PoP-drain scenario.

    Two-PoP layout 400 km apart; the vehicle starts on PoP A, drives a
    straight route toward PoP B, and :class:`~repro.cloud.migration.
    MigrationManager` executes exactly one make-before-break migration
    once the 100 km improvement holds for 2 s.  Afterwards PoP A is
    drained and fails its heartbeat; the device must *not* need a
    failover, because it already migrated.
    """
    from ..cloud.controller import Controller
    from ..cloud.migration import MigrationManager, drive_with_migration
    from ..cloud.pop import default_pop_grid

    pops = default_pop_grid(1, ("region-A", "region-B"))
    controller = Controller()
    for pop in pops:
        controller.register_pop(pop)
        controller.heartbeat(pop.pop_id, 0, 0.0)
    device_id = "scenario-veh-%d" % seed
    token = controller.register_device(device_id)
    origin_pop, far_pop = pops[0], pops[-1]
    choice = controller.place(device_id, token, origin_pop.location)
    origin = choice.pop_id if choice else None
    # straight-line drive toward the far PoP, one sample per second;
    # improvement=0.0005 (~100 km closer) holds from ~x=250 km, so the
    # 2 s hysteresis fires exactly once, mid-route
    steps = 16
    x0, y0 = origin_pop.location
    x1, y1 = far_pop.location
    route = [(x0 + (x1 - x0) * i / (steps - 1),
              y0 + (y1 - y0) * i / (steps - 1)) for i in range(steps)]
    manager = MigrationManager(controller, device_id, token,
                               improvement=0.0005, hold=2.0)
    events = drive_with_migration(controller, device_id, token, route,
                                  manager=manager)
    switches_after_migration = controller.failovers
    # drain the origin: administratively, then via a missed heartbeat
    drained: List[str] = []
    if origin is not None:
        controller.drain(origin)
        for tick in range(1, 4):
            now = float(steps + 10 * tick)
            for pop in pops:
                if pop.pop_id != origin:
                    controller.heartbeat(pop.pop_id, pop.active_sessions, now)
            drained.extend(controller.check_health(now))
    # liveness: the already-migrated device survives the drain without
    # another reassignment
    final = controller.failover(device_id, token, now=float(steps + 40))
    return {
        "migrations": len(events),
        "migrated_to": events[-1].to_pop if events else None,
        "origin_pop": origin,
        "drained_pops": sorted(set(drained)),
        "final_pop": final.pop_id if final is not None else None,
        "extra_failovers": controller.failovers - switches_after_migration,
    }


def _telemetry_fault_counts(report: SoakReport) -> Dict[str, int]:
    """Fault/health event counts off the soak's telemetry trace."""
    tel = report.telemetry
    if tel is None or not getattr(tel, "enabled", False):
        return {}
    counts: Dict[str, int] = {}
    for ev in tel.trace.events("fault"):
        key = "fault.%s.%s" % ((ev.attrs or {}).get("fault", "?"),
                               (ev.attrs or {}).get("phase", "?"))
        counts[key] = counts.get(key, 0) + 1
    counts["path_health"] = len(tel.trace.events("path_health"))
    return counts


def run_scenario(
    scenario,
    seed: int = 1,
    duration: Optional[float] = None,
    transport: Optional[str] = None,
    sanitize=True,
    smoke: bool = False,
) -> ScenarioResult:
    """Run one zoo scenario end to end and evaluate its oracles.

    ``scenario`` is a :class:`Scenario` or a registry name.  ``smoke``
    selects the scenario's short duration (CI stage 6); an explicit
    ``duration`` overrides both.  The result's digest is the soak
    digest: the same call must reproduce it byte for byte.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    dur = duration if duration is not None else (
        scenario.smoke_duration if smoke else scenario.duration)
    tname = transport or scenario.transport
    plan = scenario.build_plan(dur, scenario.path_count)
    plan.validate(path_count=scenario.path_count)
    report = run_chaos_soak(
        seed,
        duration=dur,
        transport=tname,
        path_count=scenario.path_count,
        plan=plan,
        telemetry=scenario.needs_telemetry,
        sanitize=sanitize,
    )
    verdicts = evaluate_oracles(report, plan, scenario.expectations)
    extras: Dict[str, object] = {}
    if scenario.name == "pop_drain_migration":
        extras.update(_migration_extras(seed))
        extras["telemetry"] = _telemetry_fault_counts(report)
    return ScenarioResult(
        scenario=scenario.name,
        seed=seed,
        transport=tname,
        duration=dur,
        report=report,
        verdicts=verdicts,
        extras=extras,
    )
