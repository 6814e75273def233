"""Scenario zoo, invariant oracles, chaos campaigns, differential runs.

The robustness layer on top of the fault engine (ROADMAP item 5):

* :mod:`repro.scenarios.oracles` — named machine-checkable invariants
  evaluated from a :class:`~repro.faults.soak.SoakReport`;
* :mod:`repro.scenarios.zoo` — ten checked-in real-world scenarios,
  each a composed fault plan plus per-scenario expectations;
* :mod:`repro.scenarios.campaign` — hypothesis-driven random-plan
  campaigns that shrink failures to minimal replayable JSON;
* :mod:`repro.scenarios.diff` — the same adversity across all nine
  comparison transports, rendered as an HTML verdict matrix.

``repro chaos --help`` is the CLI surface.
"""

from .oracles import (
    ORACLE_NAMES,
    ORACLES,
    Expectations,
    Oracle,
    OracleVerdict,
    OracleViolation,
    evaluate_oracles,
)
from .zoo import (
    SCENARIOS,
    Scenario,
    ScenarioResult,
    catalog_rows,
    get_scenario,
    run_scenario,
    scenario_names,
)
from .campaign import (
    CampaignOutcome,
    fault_plan_strategy,
    replay_artifact,
    run_campaign,
)
from .diff import DIFF_TRANSPORTS, DiffMatrix, run_diff

__all__ = [
    "ORACLE_NAMES",
    "ORACLES",
    "Expectations",
    "Oracle",
    "OracleVerdict",
    "OracleViolation",
    "evaluate_oracles",
    "SCENARIOS",
    "Scenario",
    "ScenarioResult",
    "catalog_rows",
    "get_scenario",
    "run_scenario",
    "scenario_names",
    "CampaignOutcome",
    "fault_plan_strategy",
    "replay_artifact",
    "run_campaign",
    "DIFF_TRANSPORTS",
    "DiffMatrix",
    "run_diff",
]
