"""Every ``src/repro`` module is reached by an import walk from a run.

The walk starts where something the repo measures or pins begins: the
CLI (``python -m repro``), the ``perfledger`` benchmark package, every
``benchmarks/`` module and ``tools/build_experiments_md.py``.  It follows
import statements only, so ``tests/`` and ``examples/`` cannot keep a
module alive.  A package ``__init__`` executed on the way counts as
reached, but its re-exports are not followed: ``from repro.cloud import
Controller`` reaches ``repro.cloud.controller``, not every module
``repro.cloud`` happens to re-export.

The graph is the lint engine's :class:`~tools.lint.graph.Project`, built
from its import edges, ``from_imports`` and ``reexports``.  Examples are
not roots, so the last test imports each one to catch an example left
holding an import of a deleted module.
"""

import importlib.util

import pytest

from tests.lintkit import REPO_ROOT
from tools.lint.engine import ModuleSource, iter_py_files
from tools.lint.graph import Project

#: Parsed into the graph; the roots are picked from these by ``_is_root``.
SCANNED = ("src/repro", "perfledger", "benchmarks", "tools/build_experiments_md.py")

#: Unreached modules that stay for now.  ``perfledger/tests/test_layers.py``
#: (frozen with the benchmark) asserts more than 90 files under
#: ``src/repro``, so these four cannot leave until that floor moves.  The
#: set may only shrink: ``test_deferred_modules_really_unreached`` fails
#: once one of them is wired into a run.
DEFERRED = frozenset({
    "repro.multipath.scheduler.blest",
    "repro.quic.varint",
    "repro.quic.wire",
    "repro.transport.reverse",
})


def _build_project():
    return Project({
        rel: ModuleSource(path, rel, path.read_text(encoding="utf-8"))
        for path, rel in iter_py_files(REPO_ROOT, SCANNED)
    })


def _is_root(name):
    if name in ("repro.__main__", "repro.cli", "tools.build_experiments_md"):
        return True
    top = name.split(".")[0]
    if top == "benchmarks":
        return True
    return top == "perfledger" and not name.startswith("perfledger.tests")


def _origin(project, module, name):
    """Follow ``__init__`` re-export aliases to the module defining ``name``."""
    while (module, name) in project.reexports:
        module, name = project.reexports[(module, name)]
    return module


def reached_modules(project):
    """Dotted names of every project module the roots import, transitively."""
    edges = {}
    for edge in project.edges:
        edges.setdefault(edge.src, set()).add(edge.dst)
    reached = set()
    todo = sorted(name for name in project.by_name if _is_root(name))
    while todo:
        name = todo.pop()
        if name in reached or name not in project.by_name:
            continue
        reached.add(name)
        info = project.by_name[name]
        parts = name.split(".")
        # importing a.b.c executes the packages a and a.b first
        nxt = {".".join(parts[:i]) for i in range(1, len(parts))}
        for local, (source, orig) in info.from_imports.items():
            if (name, local) not in project.reexports:
                nxt.update((source, _origin(project, source, orig)))
        if not info.is_package:
            nxt.update(edges.get(name, ()))
        todo.extend(sorted(nxt - reached))
    return reached


def _src_modules(project):
    return {name for name in project.by_name if name.split(".")[0] == "repro"}


def test_every_src_module_is_reached():
    project = _build_project()
    unreached = _src_modules(project) - reached_modules(project) - DEFERRED
    assert not unreached, (
        "modules no run imports (wire them into a run or delete them): %s"
        % ", ".join(sorted(unreached)))


def test_deferred_modules_really_unreached():
    project = _build_project()
    assert DEFERRED <= _src_modules(project), "a deferred module is gone; drop it"
    now_reached = DEFERRED & reached_modules(project)
    assert not now_reached, (
        "deferred modules a run now reaches; drop them from DEFERRED: %s"
        % ", ".join(sorted(now_reached)))


def test_reexports_are_not_followed():
    # the CLI imports names from repro.experiments; that must not drag in
    # every module the package re-exports
    project = Project({
        rel: ModuleSource(REPO_ROOT / rel, rel, text) for rel, text in {
            "src/repro/__init__.py": "",
            "src/repro/cli.py": "from .pkg import used\n",
            "src/repro/pkg/__init__.py": (
                "from .a import used\nfrom .b import unused\n"
                "__all__ = ['used', 'unused']\n"),
            "src/repro/pkg/a.py": "used = 1\n",
            "src/repro/pkg/b.py": "unused = 2\n",
        }.items()
    })
    assert reached_modules(project) == {"repro", "repro.cli", "repro.pkg", "repro.pkg.a"}


@pytest.mark.parametrize("path", sorted((REPO_ROOT / "examples").glob("*.py")),
                         ids=lambda p: p.name)
def test_example_imports(path):
    # a non-"__main__" module name keeps each example's main() from running
    spec = importlib.util.spec_from_file_location("example_" + path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
