"""Self-test for the repo-native linter (``tools/lint``).

Three enforcement guarantees ride on this module being part of tier-1:

* ``test_repo_lints_clean`` — the whole tree passes the single lint
  pass (every rule, per-file and whole-program), so a PR introducing a
  wall-clock read, an import cycle, a writable module global or an
  unseeded RNG fails the suite, not a code review.  It is
  the only whole-tree run in the test suite;
* ``TestPlantedFixtures`` — every deliberately planted violation under
  ``tests/fixtures/lint/`` is detected with the correct rule id, file,
  and line, so the rules themselves cannot silently rot;
* ``test_fixture_violations_pinned`` — the full violation text of each
  fixture target equals ``tests/fixtures/lint/expected.txt``, recorded
  from the four-level engine this pass replaced.
"""

import json
import re

import pytest

import tools.lint as lint
from tests.lintkit import REPO_ROOT
from tools.lint import engine
from tools.lint.engine import Rule, Violation, lint_paths, register

FIX_ROOT = "tests/fixtures/lint"
FIXTURE = FIX_ROOT + "/planted.py"
#: Each target is linted on its own: the whole-program rules see only
#: the modules of one target, as they did when the fixtures were written.
FIXTURE_TARGETS = (FIXTURE, FIX_ROOT + "/deep", FIX_ROOT + "/shard")

#: Marker grammar used by the fixtures: ``# PLANT: <rule-id>``.
_PLANT_RE = re.compile(r"#\s*PLANT:\s*(?P<id>[a-z0-9\-]+)")


def planted_expectations(target):
    """(rule, rel-path, line) triples declared by a target's PLANT markers."""
    expected = set()
    base = REPO_ROOT / target
    for path in ([base] if base.is_file() else sorted(base.glob("*.py"))):
        rel = path.relative_to(REPO_ROOT).as_posix()
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            m = _PLANT_RE.search(line)
            if m:
                expected.add((m.group("id"), rel, lineno))
    return expected


def test_repo_lints_clean():
    """`repro lint` exits 0 on the repo itself (the enforced gate)."""
    violations = lint_paths(REPO_ROOT, lint.DEFAULT_TARGETS)
    assert violations == [], "repo must lint clean:\n%s" % "\n".join(
        v.format() for v in violations)


@pytest.mark.parametrize("target", FIXTURE_TARGETS)
def test_fixture_violations_pinned(target):
    pinned = [line for line in (REPO_ROOT / FIX_ROOT / "expected.txt")
              .read_text(encoding="utf-8").splitlines()
              if line.startswith(target)]
    got = lint_paths(REPO_ROOT, [target], all_rules_everywhere=True)
    assert [v.format() for v in got] == pinned


class TestPlantedFixtures:
    @pytest.mark.parametrize("target,floor", zip(FIXTURE_TARGETS,
                                                 (10, 9, 14)))
    def test_all_planted_violations_detected(self, target, floor):
        expected = planted_expectations(target)
        assert len(expected) >= floor, "fixture lost its planted markers"
        got = lint_paths(REPO_ROOT, [target], all_rules_everywhere=True)
        assert {(v.rule, v.path, v.line) for v in got} == expected

    def test_each_rule_flags_its_plant(self):
        planted = set().union(*map(planted_expectations, FIXTURE_TARGETS))
        for rule in engine.all_rules():
            expected = {t for t in planted if t[0] == rule.id}
            assert expected, "no fixture plants rule %s" % rule.id
            target = next(t for t in FIXTURE_TARGETS
                          if all(p.startswith(t) for _, p, _ in expected))
            got = lint_paths(REPO_ROOT, [target], rule_ids=[rule.id],
                             all_rules_everywhere=True)
            assert {(v.rule, v.path, v.line) for v in got} == expected

    @pytest.mark.parametrize("target", FIXTURE_TARGETS)
    def test_scoping_keeps_fixtures_out_of_the_gate(self, target):
        # the fixtures sit outside src/repro/, so a default-scope run (the
        # one CI enforces on the repo) sees nothing
        assert lint_paths(REPO_ROOT, [target]) == []

    def test_justified_suppression_not_reported(self):
        got = lint_paths(REPO_ROOT, [FIXTURE], all_rules_everywhere=True)
        suppressed_line = next(
            lineno for lineno, line in enumerate(
                (REPO_ROOT / FIXTURE).read_text().splitlines(), start=1)
            if "justified suppression silences" in line)
        assert not any(v.line == suppressed_line for v in got)

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="unknown rule ids"):
            lint_paths(REPO_ROOT, [FIXTURE], rule_ids=["no-such-rule"])


class TestEngineMechanics:
    def _lint_snippet(self, tmp_path, source, rel="src/repro/mod.py", **kwargs):
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
        return lint_paths(tmp_path, [rel], **kwargs)

    def test_scoping_applies_under_src_repro(self, tmp_path):
        got = self._lint_snippet(
            tmp_path, '__all__ = []\nimport time\nT = time.time()\n')
        assert [(v.rule, v.line) for v in got] == [("no-wall-clock", 3)]

    def test_suppression_with_justification(self, tmp_path):
        pragma = "# lint: disable=no-wall-clock -- test scaffolding"
        got = self._lint_snippet(
            tmp_path,
            '__all__ = []\nimport time\nT = time.time()  %s\n' % pragma)
        assert got == []

    def test_bare_suppression_reported(self, tmp_path):
        # assembled so this test file itself carries no bare pragma
        pragma = "# lint: disa" + "ble=no-wall-clock"
        got = self._lint_snippet(
            tmp_path,
            '__all__ = []\nimport time\nT = time.time()  %s\n' % pragma)
        assert [(v.rule, v.line) for v in got] == [("bare-suppression", 3)]

    def test_parse_error_reported_not_raised(self, tmp_path):
        got = self._lint_snippet(tmp_path, "def broken(:\n")
        assert [v.rule for v in got] == ["parse-error"]

    def test_dishonest_dunder_all_reported(self, tmp_path):
        got = self._lint_snippet(tmp_path, '__all__ = ["ghost"]\n',
                                 rule_ids=["module-all"])
        assert [(v.rule, v.line) for v in got] == [("module-all", 1)]

    def test_json_output_round_trips(self):
        got = lint_paths(REPO_ROOT, [FIXTURE], all_rules_everywhere=True)
        decoded = json.loads(engine.format_json(got))
        assert decoded == [v.as_dict() for v in got]
        assert {"rule", "path", "line", "col", "message"} <= set(decoded[0])

    def test_human_output_format(self):
        v = Violation("r-id", "a/b.py", 3, 7, "boom")
        assert v.format() == "a/b.py:3:7: r-id boom"
        assert engine.format_human([]) == "lint: clean"
        assert engine.format_human([v]).endswith("lint: 1 violation")

    def test_register_rejects_duplicate_and_anonymous_ids(self):
        existing = engine.all_rules()[0].id
        with pytest.raises(ValueError, match="duplicate"):
            register(type("Dup", (Rule,), {"id": existing}))
        with pytest.raises(ValueError, match="non-empty id"):
            register(type("Anon", (Rule,), {"id": ""}))

    def test_rule_catalogue_complete(self):
        rules = engine.all_rules()
        assert len(rules) == 16
        assert sum(isinstance(r, engine.ProjectRule) for r in rules) == 10
        assert all(r.description and r.scopes == ("src/repro/",) for r in rules)

    def test_sarif_document_shape(self):
        v = Violation("import-cycle", "a/b.py", 3, 7, "boom")
        doc = json.loads(engine.format_sarif([v]))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == ["import-cycle"]
        result = run["results"][0]
        assert result["ruleId"] == "import-cycle"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "a/b.py"
        assert loc["region"] == {"startLine": 3, "startColumn": 8}


class TestCli:
    def test_main_clean_exit_zero(self, capsys):
        # default scoping keeps the fixture silent: the exit-0 path
        assert lint.main([FIXTURE, "--root", str(REPO_ROOT)]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_main_planted_exit_one_with_location(self, capsys):
        rc = lint.main([FIXTURE, "--all-rules", "--root", str(REPO_ROOT)])
        out = capsys.readouterr().out
        assert rc == 1
        for rule_id, rel, line in planted_expectations(FIXTURE):
            assert re.search(r"%s:%d:\d+: %s " % (re.escape(rel), line, rule_id), out)

    def test_main_json_mode(self, capsys):
        rc = lint.main([FIXTURE, "--all-rules", "--format", "json",
                        "--root", str(REPO_ROOT)])
        assert rc == 1
        decoded = json.loads(capsys.readouterr().out)
        assert ({(v["rule"], v["path"], v["line"]) for v in decoded}
                == planted_expectations(FIXTURE))

    def test_list_rules(self, capsys):
        assert lint.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in engine.all_rules():
            assert rule.id in out
        assert out.count("[whole-program; ") == 10

    def test_repro_cli_subcommand_sarif(self, capsys):
        from repro.cli import main as repro_main

        target = FIX_ROOT + "/shard"
        rc = repro_main(["lint", target, "--all-rules", "--format", "sarif",
                         "--root", str(REPO_ROOT)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        got = set()
        for result in doc["runs"][0]["results"]:
            loc = result["locations"][0]["physicalLocation"]
            got.add((result["ruleId"], loc["artifactLocation"]["uri"],
                     loc["region"]["startLine"]))
        assert got == planted_expectations(target)
        # the embedded catalogue describes every rule that fired
        described = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert described == {rule for rule, _, _ in got}
