"""Invariant oracles: named, machine-checkable robustness predicates.

:func:`repro.faults.soak.SoakReport.assert_healthy` bundles a handful of
guarantees into one opaque assertion.  This module unbundles them into a
registry of **named oracles** — small pure predicates over a
:class:`~repro.faults.soak.SoakReport`, the :class:`~repro.faults.plan.
FaultPlan` that produced it, and a per-scenario :class:`Expectations`
record — so every scenario-zoo entry, chaos campaign, and differential
run reports *which* robustness property broke, not merely that one did:

================== =======================================================
oracle             property
================== =======================================================
``delivery_floor``    delivery ratio at or above the scenario's floor
``no_watchdog_wedge`` no terminal stall: the watchdog never had to fire
``health_liveness``   the health machine kept enough paths schedulable
``bounded_recovery``  fault overlay drained; probing stayed within budget
``decode_integrity``  sanitizer armed, engaged, and zero violations
``nat_consistency``   NAT flushes match the plan's middlebox events
================== =======================================================

Oracles never raise on their own — :func:`evaluate_oracles` returns one
:class:`OracleVerdict` per oracle; the chaos campaign turns a failing
verdict into an :class:`OracleViolation` whose message names the oracle.
Every verdict is derived only from the report/plan/expectations triple,
so a verdict set is as deterministic as the soak that produced it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..faults.plan import FaultPlan

__all__ = [
    "Expectations",
    "Oracle",
    "OracleVerdict",
    "OracleViolation",
    "ORACLES",
    "ORACLE_NAMES",
    "evaluate_oracles",
]

#: Health states that keep a path schedulable (see docs/robustness.md).
_LIVE_HEALTH = ("active", "degraded")


class OracleViolation(AssertionError):
    """One or more named robustness oracles failed."""


@dataclass(frozen=True)
class Expectations:
    """Per-scenario invariant expectations the oracles evaluate against.

    Scenario-zoo entries tune these to the adversity they schedule: a
    rural single-path collapse legitimately delivers less than an urban
    canyon, but both must drain their fault state and keep the health
    machine live.
    """

    #: Minimum acceptable delivery ratio for the run.
    min_delivery: float = 0.2
    #: Whether a terminal watchdog stall is acceptable for the scenario.
    allow_terminal: bool = False
    #: Paths that must end the run in a schedulable health state.
    min_live_paths: int = 1
    #: Ceiling on probe packets (a probe storm is a liveness bug).
    max_probe_packets: int = 500
    #: Require at least one health-machine transition (storm scenarios).
    require_health_transitions: bool = False
    #: Require every scheduled NAT flush to have fired.
    require_nat_flush: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class OracleVerdict:
    """One oracle's pass/fail outcome with a human-readable detail."""

    oracle: str
    ok: bool
    detail: str

    def as_dict(self) -> dict:
        return {"oracle": self.oracle, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class Oracle:
    """A named robustness predicate.

    ``check`` returns ``None`` when the property held, else a violation
    detail string; :func:`evaluate_oracles` wraps it into a verdict.
    """

    name: str
    description: str
    check: Callable[[object, Optional[FaultPlan], Expectations], Optional[str]]

    def evaluate(self, report, plan: Optional[FaultPlan],
                 exp: Expectations) -> OracleVerdict:
        detail = self.check(report, plan, exp)
        if detail is None:
            return OracleVerdict(self.name, True, "ok")
        return OracleVerdict(self.name, False, detail)


# -- the predicates ---------------------------------------------------------

def _delivery_floor(report, plan, exp) -> Optional[str]:
    if report.packets_sent == 0:
        return "source emitted nothing - harness misconfigured"
    if report.delivery_ratio < exp.min_delivery:
        return ("delivery %.3f under the %.3f floor"
                % (report.delivery_ratio, exp.min_delivery))
    return None


def _no_watchdog_wedge(report, plan, exp) -> Optional[str]:
    if exp.allow_terminal:
        return None
    if report.terminal_error is not None:
        return "terminal error: %s" % report.terminal_error
    if report.watchdog_closes:
        return "%d watchdog close(s) during the run" % report.watchdog_closes
    return None


def _health_liveness(report, plan, exp) -> Optional[str]:
    live = sum(1 for h in report.final_health if h in _LIVE_HEALTH)
    if report.final_health and live < exp.min_live_paths:
        return ("only %d of %d paths ended schedulable (need >= %d): [%s]"
                % (live, len(report.final_health), exp.min_live_paths,
                   ", ".join(report.final_health)))
    if exp.require_health_transitions and report.health_transitions == 0:
        return "scenario demands health-machine activity but saw none"
    return None


def _bounded_recovery(report, plan, exp) -> Optional[str]:
    if not report.overlay_drained:
        return "fault overlay still active after the horizon"
    if report.faults_lifted > report.faults_applied:
        return ("lifted %d fault windows but only %d were applied"
                % (report.faults_lifted, report.faults_applied))
    if plan is not None:
        windowed = sum(1 for e in plan if e.duration > 0.0)
        if report.faults_applied and report.faults_lifted < windowed:
            return ("%d of %d windowed faults never lifted"
                    % (windowed - report.faults_lifted, windowed))
    if report.probe_packets > exp.max_probe_packets:
        return ("probe storm: %d probes over the %d budget"
                % (report.probe_packets, exp.max_probe_packets))
    return None


def _decode_integrity(report, plan, exp) -> Optional[str]:
    violations = getattr(report, "sanitizer_violations", 0)
    if violations:
        return "%d sanitizer violation(s) during the run" % violations
    if getattr(report, "sanitizer_armed", False) and \
            getattr(report, "sanitizer_checks", 0) == 0:
        return "sanitizer was armed but never engaged (harness wiring bug)"
    return None


def _nat_consistency(report, plan, exp) -> Optional[str]:
    if plan is None:
        return None
    scheduled = sum(1 for e in plan if e.kind in ("nat_rebind", "pop_handover"))
    if report.nat_flushes > scheduled:
        return ("%d NAT flushes but only %d middlebox events scheduled"
                % (report.nat_flushes, scheduled))
    if exp.require_nat_flush and scheduled and report.nat_flushes < scheduled:
        return ("only %d of %d scheduled NAT flushes fired"
                % (report.nat_flushes, scheduled))
    return None


ORACLES: Tuple[Oracle, ...] = (
    Oracle("delivery_floor",
           "the tunnel delivered at least the scenario's floor",
           _delivery_floor),
    Oracle("no_watchdog_wedge",
           "no terminal stall: the stream watchdog never had to fire",
           _no_watchdog_wedge),
    Oracle("health_liveness",
           "the path-health machine kept enough paths schedulable",
           _health_liveness),
    Oracle("bounded_recovery",
           "fault overlay drained and probing stayed within budget",
           _bounded_recovery),
    Oracle("decode_integrity",
           "runtime sanitizer armed, engaged, and violation-free",
           _decode_integrity),
    Oracle("nat_consistency",
           "NAT flushes match the plan's scheduled middlebox events",
           _nat_consistency),
)

ORACLE_NAMES: Tuple[str, ...] = tuple(o.name for o in ORACLES)


def evaluate_oracles(
    report,
    plan: Optional[FaultPlan],
    expectations: Optional[Expectations] = None,
    extra_oracles: Sequence[Oracle] = (),
) -> List[OracleVerdict]:
    """Evaluate every registered oracle (plus ``extra_oracles``) once.

    Returns one verdict per oracle, registry order first; nothing is
    raised.
    """
    exp = expectations or Expectations()
    oracles = tuple(ORACLES) + tuple(extra_oracles)
    return [o.evaluate(report, plan, exp) for o in oracles]
