"""Scenario zoo, invariant oracles, chaos campaigns, differential runs."""

import json

import pytest

from repro.faults.plan import FAULT_KINDS, FaultPlanBuilder
from repro.faults.soak import SoakReport
from repro.scenarios import (
    DIFF_TRANSPORTS,
    ORACLE_NAMES,
    ORACLES,
    CampaignOutcome,
    DiffMatrix,
    Expectations,
    SCENARIOS,
    catalog_rows,
    evaluate_oracles,
    get_scenario,
    replay_artifact,
    run_campaign,
    run_diff,
    run_scenario,
    scenario_names,
)


def synthetic_report(**overrides):
    """A healthy-by-default SoakReport for oracle unit tests."""
    base = dict(
        seed=1, transport="cellfusion", duration=4.0, plan_events=2,
        packets_sent=1000, packets_received=900, delivery_ratio=0.9,
        faults_applied=2, faults_lifted=2, nat_flushes=0,
        overlay_drained=True, health_transitions=0, probe_packets=10,
        watchdog_closes=0, terminal_error=None,
        final_health=["active", "active", "active", "active"],
        sanitizer_armed=True, sanitizer_checks=5000, sanitizer_violations=0,
    )
    base.update(overrides)
    return SoakReport(**base)


class TestOracles:
    def test_registry_names_are_stable(self):
        assert ORACLE_NAMES == ("delivery_floor", "no_watchdog_wedge",
                                "health_liveness", "bounded_recovery",
                                "decode_integrity", "nat_consistency")
        assert len(ORACLES) == len(set(ORACLE_NAMES))

    def test_healthy_report_passes_everything(self):
        verdicts = evaluate_oracles(synthetic_report(), None)
        assert all(v.ok for v in verdicts)
        assert [v.oracle for v in verdicts] == list(ORACLE_NAMES)

    def test_delivery_floor(self):
        v = {x.oracle: x for x in evaluate_oracles(
            synthetic_report(delivery_ratio=0.1), None,
            Expectations(min_delivery=0.5))}
        assert not v["delivery_floor"].ok
        assert "0.100" in v["delivery_floor"].detail
        # zero emission is a harness bug, not a low floor
        v = {x.oracle: x for x in evaluate_oracles(
            synthetic_report(packets_sent=0), None)}
        assert not v["delivery_floor"].ok

    def test_watchdog_wedge(self):
        v = {x.oracle: x for x in evaluate_oracles(
            synthetic_report(terminal_error="stream watchdog"), None)}
        assert not v["no_watchdog_wedge"].ok
        v = {x.oracle: x for x in evaluate_oracles(
            synthetic_report(watchdog_closes=1), None)}
        assert not v["no_watchdog_wedge"].ok
        # scenarios may explicitly allow a terminal stall
        v = {x.oracle: x for x in evaluate_oracles(
            synthetic_report(terminal_error="x"), None,
            Expectations(allow_terminal=True))}
        assert v["no_watchdog_wedge"].ok

    def test_health_liveness(self):
        v = {x.oracle: x for x in evaluate_oracles(
            synthetic_report(final_health=["suspended"] * 4), None)}
        assert not v["health_liveness"].ok
        v = {x.oracle: x for x in evaluate_oracles(
            synthetic_report(final_health=["suspended", "degraded"]), None)}
        assert v["health_liveness"].ok  # degraded still schedulable
        v = {x.oracle: x for x in evaluate_oracles(
            synthetic_report(health_transitions=0), None,
            Expectations(require_health_transitions=True))}
        assert not v["health_liveness"].ok

    def test_bounded_recovery(self):
        v = {x.oracle: x for x in evaluate_oracles(
            synthetic_report(overlay_drained=False), None)}
        assert not v["bounded_recovery"].ok
        v = {x.oracle: x for x in evaluate_oracles(
            synthetic_report(faults_lifted=5, faults_applied=2), None)}
        assert not v["bounded_recovery"].ok
        v = {x.oracle: x for x in evaluate_oracles(
            synthetic_report(probe_packets=10_000), None)}
        assert not v["bounded_recovery"].ok
        # windowed faults that never lifted, judged against the plan
        plan = FaultPlanBuilder().blackout(1.0, 1.0).blackout(2.0, 1.0).build()
        v = {x.oracle: x for x in evaluate_oracles(
            synthetic_report(faults_applied=2, faults_lifted=1), plan)}
        assert not v["bounded_recovery"].ok

    def test_decode_integrity(self):
        v = {x.oracle: x for x in evaluate_oracles(
            synthetic_report(sanitizer_violations=3), None)}
        assert not v["decode_integrity"].ok
        # armed but never engaged = wiring bug
        v = {x.oracle: x for x in evaluate_oracles(
            synthetic_report(sanitizer_armed=True, sanitizer_checks=0), None)}
        assert not v["decode_integrity"].ok
        v = {x.oracle: x for x in evaluate_oracles(
            synthetic_report(sanitizer_armed=False, sanitizer_checks=0), None)}
        assert v["decode_integrity"].ok

    def test_nat_consistency(self):
        plan = FaultPlanBuilder().nat_rebind(1.0).pop_handover(2.0).build()
        v = {x.oracle: x for x in evaluate_oracles(
            synthetic_report(nat_flushes=3), plan)}
        assert not v["nat_consistency"].ok  # more flushes than scheduled
        v = {x.oracle: x for x in evaluate_oracles(
            synthetic_report(nat_flushes=1), plan,
            Expectations(require_nat_flush=True))}
        assert not v["nat_consistency"].ok  # one scheduled flush missing
        v = {x.oracle: x for x in evaluate_oracles(
            synthetic_report(nat_flushes=2), plan,
            Expectations(require_nat_flush=True))}
        assert v["nat_consistency"].ok


class TestZooCatalog:
    def test_ten_named_scenarios(self):
        assert len(SCENARIOS) == 10
        assert len(set(scenario_names())) == 10
        expected = {"tunnel_transit", "urban_canyon", "handover_storm",
                    "carrier_outage", "brownout_cascade", "nat_churn",
                    "pop_drain_migration", "rural_single_path",
                    "bandwidth_cliff", "reorder_storm"}
        assert set(scenario_names()) == expected

    def test_every_plan_validates_at_both_durations(self):
        for s in SCENARIOS:
            for dur in (s.smoke_duration, s.duration):
                plan = s.build_plan(dur, s.path_count)
                plan.validate(path_count=s.path_count)
                assert len(plan) >= 1

    def test_catalog_rows_cover_all_fault_kinds(self):
        rows = catalog_rows()
        assert len(rows) == 10
        kinds = set()
        for _, faults, _, _ in rows:
            kinds.update(faults.split("+"))
        # the zoo collectively exercises most of the taxonomy
        assert kinds >= {"blackout", "brownout", "burst_loss", "rtt_spike",
                         "bandwidth_cliff", "reorder", "duplicate",
                         "ack_blackout", "nat_rebind", "pop_handover"}

    def test_get_scenario_rejects_unknown(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")


class TestZooRuns:
    def test_smoke_zoo_passes_oracles(self):
        # the CI stage-6 gate in miniature: a few representative
        # scenarios, sanitized, at smoke duration
        for name in ("tunnel_transit", "nat_churn", "rural_single_path"):
            res = run_scenario(name, seed=7, smoke=True, sanitize=True)
            assert res.passed, res.failures()
            assert res.report.sanitizer_armed
            assert res.report.sanitizer_checks > 0

    def test_digest_reruns_byte_identical(self):
        a = run_scenario("reorder_storm", seed=3, smoke=True, sanitize=True)
        b = run_scenario("reorder_storm", seed=3, smoke=True, sanitize=True)
        assert a.digest == b.digest
        assert a.passed and b.passed


class TestPopDrainMigration:
    def test_migration_scenario_end_to_end(self):
        res = run_scenario("pop_drain_migration", seed=3, smoke=True,
                           sanitize=True)
        assert res.passed, res.failures()
        ex = res.extras
        # exactly one make-before-break migration fired, away from the
        # origin PoP, before the drain
        assert ex["migrations"] == 1
        assert ex["migrated_to"] != ex["origin_pop"]
        # the drained origin failed its heartbeat and was marked down
        assert ex["drained_pops"] == [ex["origin_pop"]]
        # liveness: the already-migrated device needed no failover
        assert ex["extra_failovers"] == 0
        assert ex["final_pop"] == ex["migrated_to"]
        # the data plane saw the pop_handover fault begin and end, and
        # the health machine emitted events around the switchover
        tel = ex["telemetry"]
        assert tel["fault.pop_handover.begin"] == 1
        assert tel["fault.pop_handover.end"] == 1
        assert tel["path_health"] > 0
        # and the tunnel's NAT was flushed exactly once
        assert res.report.nat_flushes == 1


class TestCampaign:
    @staticmethod
    def fake_soak(plan):
        """Cheap planted violation: any blackout wrecks delivery."""
        bad = any(e.kind == "blackout" for e in plan)
        return synthetic_report(
            plan_events=len(plan),
            delivery_ratio=0.05 if bad else 0.95,
            faults_applied=len(plan),
            faults_lifted=sum(1 for e in plan if e.duration > 0),
            sanitizer_armed=False, sanitizer_checks=0)

    def test_strategy_generates_valid_plans(self):
        from hypothesis import HealthCheck, given, settings

        from repro.scenarios import fault_plan_strategy

        seen = set()

        @given(plan=fault_plan_strategy(6.0, path_count=4, max_events=8))
        @settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def holds(plan):
            plan.validate(path_count=4)
            seen.update(e.kind for e in plan)

        holds()
        assert len(seen) >= 6  # broad kind coverage from generation alone

    def test_planted_violation_shrinks_to_minimal_plan(self, tmp_path):
        art = tmp_path / "chaos-shrunk.json"
        out = run_campaign(seed=5, duration=4.0, max_examples=40,
                           soak=self.fake_soak, artifact_path=str(art),
                           derandomize=True)
        assert isinstance(out, CampaignOutcome)
        assert out.failed
        assert out.failing_plans_seen >= 1
        # minimal: exactly the one event the fake soak keys on
        assert len(out.minimal_plan) == 1
        assert out.minimal_plan.events[0].kind == "blackout"
        bad = [v for v in out.minimal_verdicts if not v.ok]
        assert [v.oracle for v in bad] == ["delivery_floor"]

    def test_artifact_is_replayable(self, tmp_path):
        art = tmp_path / "chaos-shrunk.json"
        run_campaign(seed=5, duration=4.0, max_examples=40,
                     soak=self.fake_soak, artifact_path=str(art),
                     derandomize=True)
        doc = json.loads(art.read_text())
        assert doc["campaign"]["seed"] == 5
        assert doc["campaign"]["failed_oracles"]
        # the artifact is plan-JSON: FaultPlan.from_json loads it and a
        # real soak replays it end to end
        report, verdicts = replay_artifact(str(art), duration=2.0)
        assert report.plan_events == 1
        assert len(verdicts) == len(ORACLES)

    def test_passing_campaign_writes_no_artifact(self, tmp_path):
        art = tmp_path / "never.json"
        out = run_campaign(seed=5, duration=4.0, max_examples=10,
                           soak=lambda p: synthetic_report(
                               sanitizer_armed=False, sanitizer_checks=0,
                               faults_applied=len(p),
                               faults_lifted=sum(1 for e in p
                                                 if e.duration > 0)),
                           artifact_path=str(art), derandomize=True)
        assert not out.failed
        assert out.minimal_plan is None
        assert not art.exists()

    def test_derandomized_campaign_is_deterministic(self):
        a = run_campaign(seed=9, duration=4.0, max_examples=30,
                         soak=self.fake_soak, derandomize=True)
        b = run_campaign(seed=9, duration=4.0, max_examples=30,
                         soak=self.fake_soak, derandomize=True)
        assert a.failed == b.failed
        assert a.executions == b.executions
        assert a.minimal_plan.to_json() == b.minimal_plan.to_json()

    def test_real_runner_bounded_campaign_passes(self):
        out = run_campaign(seed=2, duration=2.0, max_examples=2,
                           derandomize=True)
        assert not out.failed
        assert out.executions == 2


class TestDiff:
    def test_nine_transport_set(self):
        assert len(DIFF_TRANSPORTS) == 9
        from repro.experiments.runner import TRANSPORT_NAMES

        assert set(DIFF_TRANSPORTS) <= set(TRANSPORT_NAMES)

    def test_diff_matrix_small(self):
        m = run_diff("nat_churn", seed=3, duration=1.5,
                     transports=("cellfusion", "mptcp"))
        assert isinstance(m, DiffMatrix)
        assert [r.transport for r in m.results] == ["cellfusion", "mptcp"]
        grid = m.verdict_grid()
        assert set(grid) == {"cellfusion", "mptcp"}
        for t in grid:
            assert set(grid[t]) == set(ORACLE_NAMES)

    def test_diff_html_report(self, tmp_path):
        from repro.analysis.report import (
            render_diff_html_report,
            write_diff_html_report,
        )

        m = run_diff("tunnel_transit", seed=3, duration=1.5,
                     transports=("cellfusion", "bonding"))
        doc = render_diff_html_report(m)
        assert doc.startswith("<!DOCTYPE html>")
        for name in ORACLE_NAMES:
            assert name in doc
        assert "Verdict matrix" in doc
        assert "cellfusion" in doc and "bonding" in doc
        # deterministic rendering, and the writer round-trips the bytes
        assert doc == render_diff_html_report(m)
        out = tmp_path / "diff.html"
        n = write_diff_html_report(str(out), m)
        assert out.read_bytes().decode("utf-8") == doc
        assert n == len(doc.encode("utf-8"))


class TestChaosCli:
    def test_chaos_list(self, capsys):
        from repro.cli import main

        assert main(["chaos", "list"]) == 0
        out = capsys.readouterr().out
        assert "tunnel_transit" in out and "pop_drain_migration" in out

    def test_chaos_run_scenario(self, capsys):
        from repro.cli import main

        assert main(["chaos", "run", "urban_canyon", "--smoke",
                     "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "urban_canyon" in out and "delivery" in out

    def test_chaos_zoo_subset_with_rerun(self, capsys):
        from repro.cli import main

        assert main(["chaos", "zoo", "--scenario", "bandwidth_cliff",
                     "--smoke", "--sanitize", "--rerun"]) == 0
        out = capsys.readouterr().out
        assert "1/1 scenarios passed" in out
        assert "DIGEST DRIFT" not in out

    def test_chaos_campaign_cli(self, tmp_path, capsys):
        from repro.cli import main

        art = tmp_path / "shrunk.json"
        rc = main(["chaos", "campaign", "--examples", "2", "--duration",
                   "2.0", "--derandomize", "--sanitize",
                   "--artifact", str(art)])
        assert rc == 0
        assert "all oracles held" in capsys.readouterr().out

    def test_chaos_diff_cli(self, tmp_path, capsys):
        from repro.cli import main

        out_html = tmp_path / "diff.html"
        rc = main(["chaos", "diff", "nat_churn", "--smoke",
                   "--transports", "cellfusion", "mpquic",
                   "--out", str(out_html)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "cellfusion" in text and out_html.exists()

    def test_chaos_run_replays_artifact(self, tmp_path, capsys):
        from repro.cli import main
        from repro.scenarios.campaign import write_artifact

        plan = FaultPlanBuilder().blackout(0.5, 0.4, path_id=0).build()
        art = tmp_path / "plan.json"
        write_artifact(str(art), plan, {"seed": 3, "duration": 1.5,
                                        "transport": "cellfusion",
                                        "expectations":
                                        Expectations().as_dict()})
        assert main(["chaos", "run", "--plan", str(art)]) == 0
        assert "replayed" in capsys.readouterr().out
