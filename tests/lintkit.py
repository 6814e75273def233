"""Shared helpers for the lint self-tests (``tests/test_*lint.py``)."""

from pathlib import Path

from tools.lint.engine import ModuleSource, all_rules
from tools.lint.graph import Project

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_project(files):
    """An in-memory Project from {repo-relative path: source text}."""
    sources = {
        rel: ModuleSource(Path("<memory>") / rel, rel, text)
        for rel, text in files.items()
    }
    return Project(sources)


def rule_violations(files, rule_id):
    """Run one whole-program rule over an in-memory project."""
    rule = {r.id: r for r in all_rules()}[rule_id]
    return list(rule.check_project(make_project(files)))
