"""Chaos-soak harness: a seeded random fault plan against a full tunnel.

One call — :func:`run_chaos_soak` — builds the standard 4-path testbed,
draws :func:`~repro.faults.plan.random_plan` for the seed, arms the
injector, streams video through the adversity, and returns a
:class:`SoakReport` with the three guarantees a robustness suite asserts:

* **delivery**: the tunnel kept delivering what surviving capacity admits
  (the random plan spares one path);
* **bounded state**: every fault window was lifted (the link overlay
  drained back to ``fault is None``) and sent-packet maps were GC'd;
* **determinism**: :attr:`SoakReport.digest` hashes the run's observable
  outcome — the same ``seed`` must reproduce it byte for byte.

``repro chaos zoo`` / ``repro chaos campaign`` run this harness from the
command line (and in CI) under hand-written and generated plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..determinism import digest
from .plan import FaultPlan, random_plan

__all__ = [
    "SoakReport",
    "run_chaos_soak",
]


@dataclass
class SoakReport:
    """Everything one chaos-soak run exposes for assertions."""

    seed: int
    transport: str
    duration: float
    plan_events: int
    packets_sent: int
    packets_received: int
    delivery_ratio: float
    faults_applied: int
    faults_lifted: int
    nat_flushes: int
    overlay_drained: bool
    health_transitions: int
    probe_packets: int
    watchdog_closes: int
    terminal_error: Optional[str]
    #: Health states of every path at the end of the run, path-id order.
    final_health: List[str] = field(default_factory=list)
    #: sha256 over the run's observable outcome (rerun must match).
    digest: str = ""
    #: Whether the runtime protocol sanitizer was armed for the run.
    sanitizer_armed: bool = False
    #: Sanitizer check / violation deltas over the run (decode-integrity
    #: oracle input; a completed sanitized run implies zero violations).
    sanitizer_checks: int = 0
    sanitizer_violations: int = 0
    #: Delivered-packet delay samples (seconds), kept so differential
    #: runs can render CDFs without re-running.
    packet_delays: List[float] = field(default_factory=list)
    #: The plan the soak ran under (oracle input; not part of the digest
    #: payload beyond its event list, which already participates).
    plan: Optional[FaultPlan] = None
    #: The run's :class:`~repro.obs.Telemetry` when requested, else None.
    telemetry: Optional[object] = None


def run_chaos_soak(
    seed: int,
    duration: float = 8.0,
    transport: str = "cellfusion",
    path_count: int = 4,
    plan: Optional[FaultPlan] = None,
    telemetry: bool = False,
    sanitize=None,
) -> SoakReport:
    """Run one seeded chaos soak end to end and summarise it.

    ``plan`` defaults to :func:`random_plan` for the seed (sparing the
    highest path so the delivery assertion is meaningful); pass an
    explicit plan to soak a hand-written scenario instead.
    """
    from ..emulation.cellular import generate_fleet_traces
    from ..experiments.runner import run_stream
    from ..sanitizer import totals

    if plan is None:
        plan = random_plan(seed, duration, path_count=path_count)
    traces = list(generate_fleet_traces(duration=duration, seed=seed))[:path_count]
    san_before = totals()
    result = run_stream(
        transport,
        traces,
        duration=duration,
        seed=seed,
        faults=plan,
        fault_seed=seed,
        telemetry=telemetry,
        sanitize=sanitize,
    )
    faults = result.fault_summary or {}
    stats = result.client_stats
    san_after = totals()
    if sanitize is None:
        from ..sanitizer import env_enabled

        armed = env_enabled()
    else:
        armed = bool(getattr(sanitize, "enabled", sanitize))
    report = SoakReport(
        seed=seed,
        transport=transport,
        duration=duration,
        plan_events=len(plan),
        packets_sent=result.packets_sent,
        packets_received=result.packets_received,
        delivery_ratio=result.delivery_ratio,
        faults_applied=faults.get("applied", 0),
        faults_lifted=faults.get("lifted", 0),
        nat_flushes=faults.get("nat_flushes", 0),
        overlay_drained=faults.get("active_end", 0) == 0,
        health_transitions=faults.get("health_transitions", 0),
        probe_packets=getattr(stats, "probe_packets", 0),
        watchdog_closes=getattr(stats, "watchdog_closes", 0),
        terminal_error=result.terminal_error,
        final_health=faults.get("final_health", []),
        sanitizer_armed=armed,
        sanitizer_checks=san_after["checks"] - san_before["checks"],
        sanitizer_violations=san_after["violations"] - san_before["violations"],
        packet_delays=list(result.packet_delays),
        plan=plan,
        telemetry=result.telemetry,
    )
    report.digest = digest({
        "seed": seed,
        "transport": transport,
        "plan": [e.as_dict() for e in plan],
        "packets_sent": report.packets_sent,
        "packets_received": report.packets_received,
        "delays": result.packet_delays,
        "client_stats": stats.as_dict(),
        "uplink_loss": {str(k): v for k, v in result.uplink_loss_rates.items()},
        "faults": faults,
        "terminal_error": report.terminal_error,
    })
    return report
