"""Deterministic fault injection for the emulated testbed.

``plan`` declares *what* goes wrong and when (typed events, JSON-loadable,
seeded random plans); ``engine`` compiles a plan onto the event loop and
maintains the per-link fault overlays and NAT flushes; ``soak`` runs a
whole tunnel under a seeded random plan and asserts the robustness
guarantees.  See docs/robustness.md for the taxonomy, the JSON schema,
and the path-health state machine the faults exercise.
"""

from .engine import FaultInjector
from .plan import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultPlanBuilder,
    FaultPlanError,
    random_plan,
)
from .soak import SoakReport, run_chaos_soak

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultPlanBuilder",
    "FaultPlanError",
    "FaultInjector",
    "SoakReport",
    "random_plan",
    "run_chaos_soak",
]
