"""Hypothesis-driven chaos campaigns with failure shrinking.

The scenario zoo checks adversity we already imagined; a **campaign**
searches for adversity we did not.  :func:`fault_plan_strategy` is a
composable Hypothesis strategy over valid :class:`~repro.faults.plan.
FaultPlan`s; :func:`run_campaign` drives seeded soak runs under
generated plans, asserts the invariant oracles on every run, and — when
a plan breaks an oracle — lets Hypothesis **shrink** it to a minimal
failing plan, saved as a replayable JSON artifact:

.. code-block:: console

    $ repro chaos campaign --examples 25 --duration 4
    $ repro chaos run --plan chaos-shrunk-cellfusion.json   # replay it

Determinism: the soak seed is fixed per campaign; only the plan varies.
With ``derandomize=True`` (the CI default) Hypothesis derives its
generation sequence from the property itself, so a campaign either
passes everywhere or fails everywhere — no flaky CI.

Hypothesis is imported lazily so the rest of the scenario package works
without it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..faults.plan import (
    DESTRUCTIVE_KINDS,
    FAULT_KINDS,
    FaultPlan,
    FaultPlanBuilder,
)
from ..faults.soak import run_chaos_soak
from .oracles import (
    Expectations,
    Oracle,
    OracleVerdict,
    OracleViolation,
    evaluate_oracles,
)

__all__ = [
    "CampaignOutcome",
    "fault_plan_strategy",
    "run_campaign",
    "replay_artifact",
]


def _hypothesis():
    try:
        import hypothesis
    except ImportError:  # pragma: no cover - baked into the CI image
        raise RuntimeError(
            "chaos campaigns need the 'hypothesis' package (zoo and diff "
            "runs do not)")
    return hypothesis


@dataclass
class CampaignOutcome:
    """One campaign's result: pass/fail plus the shrunk counterexample."""

    seed: int
    transport: str
    duration: float
    #: Soak executions performed (generation + shrinking).
    executions: int
    failed: bool
    #: Distinct failing plans observed while shrinking.
    failing_plans_seen: int
    #: The minimal failing plan (fewest events, shortest, canonical-JSON
    #: tie-break) — Hypothesis re-executes the shrunk example last, and
    #: we additionally select the minimum over every failure observed.
    minimal_plan: Optional[FaultPlan] = None
    #: Oracle verdicts of the minimal failing run.
    minimal_verdicts: List[OracleVerdict] = field(default_factory=list)
    #: Where the replayable artifact was written, when it was.
    artifact_path: Optional[str] = None


def fault_plan_strategy(
    duration: float,
    path_count: int = 4,
    max_events: int = 6,
    kinds: Optional[Sequence[str]] = None,
    spare_path: bool = True,
):
    """A Hypothesis strategy over **valid** fault plans.

    Every generated plan satisfies ``FaultPlan.validate(path_count)``;
    all 10 fault kinds are reachable (restrict with ``kinds``).  With
    ``spare_path`` the highest path never receives a destructive fault,
    matching :func:`~repro.faults.plan.random_plan`'s delivery contract.
    Shrinking moves toward fewer, earlier, shorter, milder events.
    """
    hyp = _hypothesis()
    st = hyp.strategies
    chosen = tuple(kinds) if kinds else FAULT_KINDS
    unknown = set(chosen) - set(FAULT_KINDS)
    if unknown:
        raise ValueError("unknown fault kinds: %s" % ", ".join(sorted(unknown)))

    def finite(lo, hi):
        return st.floats(min_value=lo, max_value=hi,
                         allow_nan=False, allow_infinity=False)

    @st.composite
    def _plans(draw):
        n = draw(st.integers(min_value=0, max_value=max_events))
        b = FaultPlanBuilder()
        for _ in range(n):
            kind = draw(st.sampled_from(chosen))
            start = draw(finite(0.0, max(0.1, duration * 0.9)))
            if kind == "nat_rebind":
                b.nat_rebind(start)
                continue
            if kind == "pop_handover":
                b.pop_handover(start, outage=draw(finite(0.05, 0.4)))
                continue
            # clamp windows the way random_plan does, so the overlay
            # always drains within the soak's lift horizon
            span = min(draw(finite(0.05, 2.5)), max(0.2, duration - start))
            limit = path_count - 1 if (spare_path and path_count > 1
                                       and kind in DESTRUCTIVE_KINDS) else path_count
            pid = draw(st.integers(min_value=-1, max_value=limit - 1))
            if kind == "blackout":
                b.blackout(start, span, path_id=pid)
            elif kind == "brownout":
                b.brownout(start, span, severity=draw(finite(0.0, 1.0)),
                           path_id=pid)
            elif kind == "burst_loss":
                b.burst_loss(start, min(span, 0.8),
                             severity=draw(finite(0.0, 1.0)), path_id=pid)
            elif kind == "rtt_spike":
                b.rtt_spike(start, span, delay=draw(finite(0.0, 0.6)),
                            path_id=pid)
            elif kind == "bandwidth_cliff":
                b.bandwidth_cliff(start, span, scale=draw(finite(0.0, 1.0)),
                                  path_id=pid)
            elif kind == "reorder":
                b.reorder(start, span, jitter=draw(finite(0.0, 0.15)),
                          path_id=pid)
            elif kind == "duplicate":
                b.duplicate(start, span, prob=draw(finite(0.0, 1.0)),
                            path_id=pid)
            else:
                b.ack_blackout(start, min(span, 1.0), path_id=pid)
        return b.build()

    return _plans()


def _plan_sort_key(plan: FaultPlan) -> tuple:
    return (len(plan), plan.horizon, plan.to_json())


def write_artifact(path: str, plan: FaultPlan, meta: Dict[str, object]) -> None:
    """Write a replayable shrunk-plan artifact.

    The document is a superset of the plan-JSON schema — ``FaultPlan.
    from_json`` (and hence ``repro chaos run --plan``) loads it directly;
    the extra ``campaign`` object records how it was found.
    """
    doc = json.loads(plan.to_json())
    doc["campaign"] = meta
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def replay_artifact(
    path: str,
    seed: Optional[int] = None,
    duration: Optional[float] = None,
    transport: Optional[str] = None,
    path_count: int = 4,
    sanitize=True,
):
    """Replay a shrunk-plan artifact: rerun the soak, re-judge the oracles.

    Seed / duration / transport default to the values recorded in the
    artifact's ``campaign`` metadata (explicit arguments win), so a bare
    ``replay_artifact("chaos-shrunk.json")`` reproduces the failure.
    Returns ``(report, verdicts)``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    plan = FaultPlan.from_json(json.dumps(doc))
    meta = doc.get("campaign", {}) if isinstance(doc, dict) else {}
    seed = seed if seed is not None else int(meta.get("seed", 1))
    duration = duration if duration is not None else float(meta.get("duration", 4.0))
    transport = transport or meta.get("transport", "cellfusion")
    exp = Expectations(**meta["expectations"]) if "expectations" in meta \
        else Expectations()
    report = run_chaos_soak(seed, duration=duration, transport=transport,
                            path_count=path_count, plan=plan,
                            sanitize=sanitize)
    return report, evaluate_oracles(report, plan, exp)


def run_campaign(
    seed: int = 1,
    duration: float = 4.0,
    transport: str = "cellfusion",
    path_count: int = 4,
    max_examples: int = 25,
    max_events: int = 6,
    derandomize: bool = True,
    spare_path: bool = True,
    kinds: Optional[Sequence[str]] = None,
    expectations: Optional[Expectations] = None,
    extra_oracles: Sequence[Oracle] = (),
    soak: Optional[Callable[[FaultPlan], object]] = None,
    artifact_path: Optional[str] = None,
    sanitize=True,
) -> CampaignOutcome:
    """Run one hypothesis-driven chaos campaign.

    Generates up to ``max_examples`` fault plans, soaks each under the
    fixed ``seed``, and asserts every invariant oracle.  On failure,
    Hypothesis shrinks to a minimal failing plan, which is written to
    ``artifact_path`` (when given) as replayable JSON.

    ``soak`` injects a custom runner ``plan -> SoakReport`` — tests use
    it to plant violations without paying for real tunnel runs; the
    default runs :func:`~repro.faults.soak.run_chaos_soak`.
    """
    hyp = _hypothesis()
    exp = expectations or Expectations()
    runner = soak or (lambda p: run_chaos_soak(
        seed, duration=duration, transport=transport,
        path_count=path_count, plan=p, sanitize=sanitize))
    # locals mutated from the property closure (not module state)
    stats = {"executions": 0}
    failures: List[Tuple[FaultPlan, List[OracleVerdict]]] = []

    @hyp.given(plan=fault_plan_strategy(duration, path_count=path_count,
                                        max_events=max_events, kinds=kinds,
                                        spare_path=spare_path))
    @hyp.settings(
        max_examples=max_examples,
        deadline=None,
        derandomize=derandomize,
        database=None,
        phases=(hyp.Phase.generate, hyp.Phase.shrink),
        suppress_health_check=list(hyp.HealthCheck),
        print_blob=False,
    )
    def property_holds(plan: FaultPlan) -> None:
        plan.validate(path_count=path_count)
        stats["executions"] += 1
        report = runner(plan)
        verdicts = evaluate_oracles(report, plan, exp, extra_oracles)
        bad = [v for v in verdicts if not v.ok]
        if bad:
            failures.append((plan, verdicts))
            raise OracleViolation("; ".join(
                "%s: %s" % (v.oracle, v.detail) for v in bad))

    if not derandomize:
        property_holds = hyp.seed(seed)(property_holds)

    failed = False
    try:
        property_holds()
    except OracleViolation:
        failed = True

    minimal: Optional[FaultPlan] = None
    minimal_verdicts: List[OracleVerdict] = []
    written: Optional[str] = None
    if failed and failures:
        minimal, minimal_verdicts = min(failures,
                                        key=lambda fv: _plan_sort_key(fv[0]))
        if artifact_path:
            write_artifact(artifact_path, minimal, {
                "seed": seed,
                "transport": transport,
                "duration": duration,
                "path_count": path_count,
                "expectations": exp.as_dict(),
                "failed_oracles": [v.as_dict() for v in minimal_verdicts
                                   if not v.ok],
                "executions": stats["executions"],
            })
            written = artifact_path
    return CampaignOutcome(
        seed=seed,
        transport=transport,
        duration=duration,
        executions=stats["executions"],
        failed=failed,
        failing_plans_seen=len(failures),
        minimal_plan=minimal,
        minimal_verdicts=minimal_verdicts,
        artifact_path=written,
    )
