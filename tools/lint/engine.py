"""Zero-dependency AST lint engine with repo-native rules.

The engine hosts **one pass** over one parse of the tree, running two
kinds of rule from one registry:

* a per-file :class:`Rule` sees one :class:`ModuleSource` at a time;
* a whole-program :class:`ProjectRule` sees the
  :class:`~tools.lint.graph.Project` built over the same parse (import
  graph, symbol table, units dataflow) and yields
  violations anchored anywhere in the tree.

The two bases exist because the two kinds take different inputs; there
is no level, tag or flag beyond that — every run executes every rule
(``--rule ID`` narrows it).

A new rule costs ~20 lines:

1. subclass :class:`Rule` (implement ``check(module)``) or
   :class:`ProjectRule` (implement ``check_project(project)``), yielding
   :class:`Violation` objects;
2. decorate it with :func:`register`.

Scoping, suppression, and output are engine concerns:

* **scoping** — each rule declares ``scopes``, a tuple of repo-relative
  path prefixes it applies to (``()`` means everywhere).  ``--all-rules``
  ignores scopes, which is how the planted-violation fixture under
  ``tests/fixtures/lint/`` is checked without living in ``src/repro/``.
* **suppression** — a violation on line L is silenced by an inline pragma
  on that line::

      something_noisy()  # lint: disable=rule-id -- why this is fine

  The justification after ``--`` is mandatory: a bare ``disable`` is
  itself reported (rule id ``bare-suppression``), so every waiver in the
  tree carries its reason.  Several ids may be listed, comma-separated.
* **output** — human one-per-line (``path:line:col: id message``),
  ``--format json`` (a list of violation dicts), or ``--format sarif``
  (SARIF 2.1.0, for CI annotation surfaces); exit status 1 iff anything
  survived suppression.

Only the standard library is used; the engine must stay importable in a
bare container (it gates CI).
"""

from __future__ import annotations

import ast
import json
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Violation",
    "ModuleSource",
    "Rule",
    "ProjectRule",
    "register",
    "all_rules",
    "iter_py_files",
    "lint_paths",
    "format_human",
    "format_json",
    "format_sarif",
]

#: Inline pragma grammar: ``# lint: disable=a,b -- justification``.
_PRAGMA_RE = re.compile(
    r"#\s*lint:\s*disable=(?P<ids>[A-Za-z0-9_,\- ]+?)\s*(?:--\s*(?P<why>.+))?$"
)


@dataclass(frozen=True)
class Violation:
    """One rule hit, pinned to a file location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return "%s:%d:%d: %s %s" % (self.path, self.line, self.col, self.rule, self.message)

    def as_dict(self) -> dict:
        return asdict(self)


class ModuleSource:
    """A parsed Python file with the lookups rules need.

    ``rel`` is the path relative to the lint root (used for scoping),
    ``tree`` the parsed AST, ``parents`` a child -> parent node map so
    rules can walk upward (e.g. the telemetry-guard rule looking for an
    enclosing ``if``).  ``nodes`` is every node of the tree in
    ``ast.walk`` order and ``functions`` the (async) function defs among
    them, both recorded by the one walk that builds ``parents`` — rules
    iterate these instead of re-walking the module.
    """

    def __init__(self, path: Path, rel: str, text: str):
        self.path = path
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=str(path))
        self.parents: Dict[ast.AST, ast.AST] = {}
        self.nodes: List[ast.AST] = []
        self.functions: List[ast.AST] = []
        for parent in ast.walk(self.tree):
            self.nodes.append(parent)
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions.append(parent)
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        #: line -> (set of suppressed rule ids, justification or None)
        self.suppressions: Dict[int, Tuple[set, Optional[str]]] = {}
        for i, line in enumerate(self.lines, start=1):
            m = _PRAGMA_RE.search(line)
            if m:
                ids = {s.strip() for s in m.group("ids").split(",") if s.strip()}
                self.suppressions[i] = (ids, m.group("why"))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def suppressed(self, rule_id: str, line: int) -> bool:
        entry = self.suppressions.get(line)
        return entry is not None and rule_id in entry[0]


class Rule:
    """Base lint rule.  Subclass, set ``id``/``description``, register."""

    id: str = ""
    description: str = ""
    #: Repo-relative path prefixes this rule applies to; () = everywhere.
    scopes: Tuple[str, ...] = ()
    #: Repo-relative paths the rule never applies to (e.g. the layer that
    #: implements the guarded API itself).
    exempt: Tuple[str, ...] = ()

    def applies_to_path(self, rel: str) -> bool:
        rel = rel.replace("\\", "/")
        if any(rel.startswith(e) for e in self.exempt):
            return False
        if not self.scopes:
            return True
        return any(rel.startswith(s) for s in self.scopes)

    def check(self, module: ModuleSource) -> Iterable[Violation]:
        raise NotImplementedError

    def violation(self, module: ModuleSource, node, message: str) -> Violation:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(self.id, module.rel, line, col, message)


class ProjectRule(Rule):
    """A whole-program rule: sees the Project, not one module.

    ``scopes`` still applies — but to the *path of each violation* the
    rule yields, so a project rule can consume references from tests
    while only reporting findings inside ``src/repro/``.
    """

    def check_project(self, project) -> Iterable[Violation]:
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def register(cls):
    """Class decorator adding a rule to the registry."""
    if not cls.id:
        raise ValueError("rule %r needs a non-empty id" % cls)
    if cls.id in _REGISTRY:
        raise ValueError("duplicate rule id %r" % cls.id)
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, per-file and whole-program, sorted by id."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


#: Directories never descended into.
_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".venv", "node_modules", "build", "dist"}


def iter_py_files(root: Path, targets: Sequence[str]) -> Iterator[Tuple[Path, str]]:
    """Yield (absolute path, repo-relative path) for every .py under targets."""
    seen = set()
    for target in targets:
        base = (root / target).resolve()
        if base.is_file() and base.suffix == ".py":
            candidates = [base]
        elif base.is_dir():
            candidates = sorted(
                p for p in base.rglob("*.py")
                if not (set(p.relative_to(root).parts) & _SKIP_DIRS)
            )
        else:
            continue
        for path in candidates:
            if path in seen:
                continue
            seen.add(path)
            yield path, path.relative_to(root).as_posix()


def lint_paths(
    root: Path,
    targets: Sequence[str],
    rule_ids: Optional[Sequence[str]] = None,
    all_rules_everywhere: bool = False,
) -> List[Violation]:
    """Lint every file under ``targets`` (relative to ``root``).

    Parses each file once, runs the per-file rules on it, then builds
    one :class:`~tools.lint.graph.Project` over the same parse and runs
    the whole-program rules.  ``rule_ids`` restricts to a subset of
    rules; ``all_rules_everywhere`` drops path scoping (fixture
    testing).  Suppressed violations are removed; pragmas lacking a
    justification are reported as ``bare-suppression`` hits.
    """
    rules = all_rules()
    if rule_ids:
        wanted = set(rule_ids)
        unknown = wanted - {r.id for r in rules}
        if unknown:
            raise ValueError("unknown rule ids: %s" % ", ".join(sorted(unknown)))
        rules = [r for r in rules if r.id in wanted]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    violations: List[Violation] = []
    modules: Dict[str, ModuleSource] = {}
    for path, rel in iter_py_files(Path(root), targets):
        try:
            text = path.read_text(encoding="utf-8")
            module = ModuleSource(path, rel, text)
        except (SyntaxError, UnicodeDecodeError) as exc:
            violations.append(Violation("parse-error", rel, getattr(exc, "lineno", 1) or 1,
                                        0, "cannot parse: %s" % exc))
            continue
        modules[rel] = module
        for line, (_ids, why) in sorted(module.suppressions.items()):
            if why is None or not why.strip():
                violations.append(Violation(
                    "bare-suppression", rel, line, 0,
                    "suppression without justification; use "
                    "'# lint: disable=<id> -- <reason>'"))
        for rule in file_rules:
            if not all_rules_everywhere and not rule.applies_to_path(rel):
                continue
            for v in rule.check(module):
                if not module.suppressed(v.rule, v.line):
                    violations.append(v)
    if project_rules and modules:
        from .graph import Project

        project = Project(modules)
        for rule in project_rules:
            for v in rule.check_project(project):
                if not all_rules_everywhere and not rule.applies_to_path(v.path):
                    continue
                holder = modules.get(v.path)
                if holder is not None and holder.suppressed(v.rule, v.line):
                    continue
                violations.append(v)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


def format_human(violations: Sequence[Violation]) -> str:
    if not violations:
        return "lint: clean"
    lines = [v.format() for v in violations]
    lines.append("lint: %d violation%s" % (len(violations), "s" if len(violations) != 1 else ""))
    return "\n".join(lines)


def format_json(violations: Sequence[Violation]) -> str:
    return json.dumps([v.as_dict() for v in violations], indent=2)


def format_sarif(violations: Sequence[Violation]) -> str:
    """SARIF 2.1.0 output: one run, one result per violation.

    The descriptions of the rules that fired are embedded as the tool's
    ``rules`` array so CI annotation surfaces can show them.
    """
    catalogue = {r.id: r for r in all_rules()}
    used = sorted({v.rule for v in violations})
    rules_meta = []
    for rule_id in used:
        rule = catalogue.get(rule_id)
        rules_meta.append({
            "id": rule_id,
            "shortDescription": {
                "text": rule.description if rule is not None else rule_id},
        })
    index = {rule_id: i for i, rule_id in enumerate(used)}
    results = [
        {
            "ruleId": v.rule,
            "ruleIndex": index[v.rule],
            "level": "error",
            "message": {"text": v.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": v.path},
                    "region": {"startLine": v.line,
                               "startColumn": max(v.col, 0) + 1},
                },
            }],
        }
        for v in violations
    ]
    doc = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                    "master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "repro-lint",
                "informationUri": "docs/static-analysis.md",
                "rules": rules_meta,
            }},
            "results": results,
        }],
    }
    return json.dumps(doc, indent=2)
