"""Differential transport verdicts: one adversity, every transport.

arXiv:1507.05174 and arXiv:1411.1841 motivate judging *every* delivery
scheme under the same degradation, not just the headline one under one
random plan.  :func:`run_diff` drives a single zoo scenario — same
traces, same seed, same :class:`~repro.faults.plan.FaultPlan` — across
the nine comparison transports and collects the per-transport oracle
verdicts into a :class:`DiffMatrix`, rendered as an HTML verdict matrix
by :func:`repro.analysis.report.write_diff_html_report`.

The matrix is diagnostic, not a gate: a baseline transport failing the
``delivery_floor`` oracle under a tunnel blackout is the *expected*
differential result (that is the paper's point); CI gates only assert
the zoo scenarios on the default transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .oracles import OracleVerdict
from .zoo import Scenario, ScenarioResult, get_scenario, run_scenario

__all__ = [
    "DIFF_TRANSPORTS",
    "DiffMatrix",
    "run_diff",
]

#: The nine comparison transports (paper baselines + CellFusion); the
#: xnc alias and ablation variants are excluded — ablations get their
#: own figures, and an alias would duplicate a column.
DIFF_TRANSPORTS = (
    "cellfusion",
    "mpquic",
    "mptcp",
    "bonding",
    "minRTT",
    "RE",
    "XLINK",
    "ECF",
    "pluribus",
)


@dataclass
class DiffMatrix:
    """Per-transport scenario results under identical adversity."""

    scenario: str
    seed: int
    duration: float
    results: List[ScenarioResult] = field(default_factory=list)

    def verdict_grid(self) -> Dict[str, Dict[str, OracleVerdict]]:
        """``{transport: {oracle: verdict}}`` for matrix rendering."""
        return {r.transport: {v.oracle: v for v in r.verdicts}
                for r in self.results}


def run_diff(
    scenario,
    seed: int = 1,
    duration: Optional[float] = None,
    transports: Sequence[str] = DIFF_TRANSPORTS,
    sanitize=True,
    smoke: bool = False,
) -> DiffMatrix:
    """Run one scenario across every transport and collect verdicts.

    Each transport sees byte-identical adversity: the scenario's plan is
    a pure function of (duration, path_count) and the traces are a pure
    function of (duration, seed), so the only varying factor is the
    transport itself — any verdict difference is attributable to it.
    """
    sc: Scenario = get_scenario(scenario) if isinstance(scenario, str) else scenario
    dur = duration if duration is not None else (
        sc.smoke_duration if smoke else sc.duration)
    results = [
        run_scenario(sc, seed=seed, duration=dur, transport=t,
                     sanitize=sanitize)
        for t in transports
    ]
    return DiffMatrix(scenario=sc.name, seed=seed, duration=dur,
                      results=results)
