"""repro-lint: the repo-native static analyzer.

Run it as ``python -m tools.lint`` from the repo root, or via the
``repro lint`` CLI subcommand.  Every run is the same single pass: each
file is parsed once, the per-file rules run on it, and the whole-program
rules (import graph, units dataflow, paper-constants registry,
shard-safety analyses) run over the one :class:`~tools.lint.graph.Project`
built from that parse.  ``--rule ID`` is the only selector.  See ``docs/static-analysis.md`` for the rule
catalogue and extension guide.
"""

from .engine import (
    ModuleSource,
    ProjectRule,
    Rule,
    Violation,
    all_rules,
    format_human,
    format_json,
    format_sarif,
    iter_py_files,
    lint_paths,
    register,
)
from . import rules as _rules  # noqa: F401 -- importing registers the rule set
from . import xrules as _xrules  # noqa: F401 -- cross-module rules register here
from . import shard as _shard  # noqa: F401 -- shard-safety rules register here

#: Default lint targets, relative to the repo root.
DEFAULT_TARGETS = ("src/repro", "tools", "tests", "benchmarks", "examples")

__all__ = [
    "ModuleSource",
    "ProjectRule",
    "Rule",
    "Violation",
    "all_rules",
    "format_human",
    "format_json",
    "format_sarif",
    "iter_py_files",
    "lint_paths",
    "register",
    "DEFAULT_TARGETS",
    "main",
]


def main(argv=None, root=None) -> int:
    """CLI entry point shared by ``python -m tools.lint`` and ``repro lint``."""
    import argparse
    from pathlib import Path

    parser = argparse.ArgumentParser(
        prog="repro lint", description="repo-native static analysis")
    parser.add_argument("targets", nargs="*", default=None,
                        help="files/directories relative to the repo root "
                             "(default: %s)" % ", ".join(DEFAULT_TARGETS))
    parser.add_argument("--root", default=None, help="repo root (default: auto-detect)")
    parser.add_argument("--format", choices=("human", "json", "sarif"),
                        default="human", dest="fmt",
                        help="output format (default: human)")
    parser.add_argument("--rule", action="append", dest="rule_ids", metavar="ID",
                        help="run only this rule (repeatable)")
    parser.add_argument("--all-rules", action="store_true",
                        help="ignore per-rule path scoping (fixture testing)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            scope = ", ".join(rule.scopes) if rule.scopes else "(everywhere)"
            if isinstance(rule, ProjectRule):
                scope = "whole-program; " + scope
            print("%-20s [%s] %s" % (rule.id, scope, rule.description))
        return 0

    base = Path(args.root) if args.root else (Path(root) if root else _find_root())
    if base is None:
        print("repro lint: cannot locate the repo root (looked for tools/lint "
              "above the cwd); pass --root", flush=True)
        return 2
    violations = lint_paths(base, args.targets or list(DEFAULT_TARGETS),
                            rule_ids=args.rule_ids,
                            all_rules_everywhere=args.all_rules)
    if args.fmt == "json":
        print(format_json(violations))
    elif args.fmt == "sarif":
        print(format_sarif(violations))
    else:
        print(format_human(violations))
    return 1 if violations else 0


def _find_root():
    """Walk upward from cwd and this file for a dir containing tools/lint."""
    from pathlib import Path

    candidates = [Path.cwd()] + list(Path.cwd().parents)
    here = Path(__file__).resolve()
    candidates += [here.parents[2]]
    for cand in candidates:
        if (cand / "tools" / "lint" / "engine.py").is_file():
            return cand
    return None
