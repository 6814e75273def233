"""Cross-module lint rules: correctness of the program as a whole.

These rules see the whole program at once — the import graph, the
project symbol table, and the units dataflow of :mod:`tools.lint.graph`
and :mod:`tools.lint.dataflow` — so they catch the bug classes a
per-file pass cannot:

* ``import-cycle`` — top-level import cycles (deferred function-body
  imports are exempt: they cannot deadlock at import time);
* ``dead-public-api`` — a name in ``__all__`` that no other module in
  the project (src, tools, tests, benchmarks, examples) references;
* ``unit-mix`` — arithmetic, comparisons, or resolved call arguments
  mixing two different concrete units (sim-seconds vs milliseconds,
  bytes vs packets, ...);
* ``except-hygiene`` — a broad ``except Exception:`` (or bare
  ``except:``) in sim code that neither re-raises nor records the
  failure through telemetry/logging — the pattern that silently eats
  protocol bugs in hot paths;
* ``constant-drift`` — any config default or dataclass field whose
  value contradicts the paper-constants registry
  (:mod:`tools.lint.constants`);
* ``span-lifecycle`` — causal-span discipline (:mod:`repro.obs.spans`):
  a span opened with its id discarded can never be closed, and a
  function that opens/closes spans must not read the wall clock (span
  timestamps are sim-clock by contract, or replays stop being
  byte-identical).

They share the engine's scoping, suppression, and output machinery with
the per-file rules and run in the same single pass.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .constants import REGISTRY, check_project_constants
from .dataflow import analyze_module_units
from .engine import ProjectRule, Violation, register
from .graph import Project

__all__ = [
    "ImportCycleRule",
    "DeadPublicApiRule",
    "UnitMixRule",
    "ExceptHygieneRule",
    "ConstantDriftRule",
    "SpanLifecycleRule",
]

#: These rules cover the simulated tree; fixtures opt in via --all-rules.
DEEP_SCOPE = ("src/repro/",)


@register
class ImportCycleRule(ProjectRule):
    """Top-level import cycles deadlock or import half-initialised modules."""

    id = "import-cycle"
    description = ("modules importing each other at top level form an "
                   "import-time cycle; defer one import into the function "
                   "that needs it")
    scopes = DEEP_SCOPE

    def check_project(self, project: Project) -> Iterable[Violation]:
        for cycle in project.import_cycles():
            members = " -> ".join(cycle + [cycle[0]])
            for name in cycle:
                info = project.by_name[name]
                line = project.edge_line(name, set(cycle) - {name} or {name})
                yield Violation(self.id, info.rel, line, 0,
                                "top-level import cycle: %s" % members)


@register
class DeadPublicApiRule(ProjectRule):
    """``__all__`` entries nothing else in the project references."""

    id = "dead-public-api"
    description = ("a name exported via __all__ but referenced by no other "
                   "module (src or tests) is dead API surface; drop the "
                   "export or add the missing consumer")
    scopes = DEEP_SCOPE

    #: The paper-constants registry anchors canonical definitions by name
    #: (tools/lint/constants.py); those exports are the contract itself
    #: and count as referenced even when no module imports them.
    _REGISTRY_ANCHORS = frozenset(
        anchor for const in REGISTRY for anchor in const.anchors)

    def check_project(self, project: Project) -> Iterable[Violation]:
        for rel, info in project.modules.items():
            if info.is_package:
                # package __init__ exports are curated re-export surface;
                # reachability through them is propagated to the origin
                # modules, which is where dead symbols are reported
                continue
            for name, node in sorted(info.exports.items()):
                if name == "__version__":
                    continue
                if (info.name, name) in self._REGISTRY_ANCHORS:
                    continue
                if project.is_referenced(info.name, name):
                    continue
                yield Violation(
                    self.id, rel, getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0),
                    "__all__ exports %r but no other module references it" % name)


@register
class UnitMixRule(ProjectRule):
    """Mixed units of measure in arithmetic, comparison, or call args."""

    id = "unit-mix"
    description = ("two different concrete units (sim-seconds, milliseconds, "
                   "bytes, packets, GF-symbols) met in +/-, a comparison, or "
                   "a resolved call argument")
    scopes = DEEP_SCOPE

    def check_project(self, project: Project) -> Iterable[Violation]:
        for rel, info in project.modules.items():
            for c in analyze_module_units(project, info):
                yield Violation(
                    self.id, rel, c.line, c.col,
                    "%s mixes units %s and %s (%s); convert explicitly at "
                    "the boundary" % (c.kind, c.left, c.right, c.detail))


@register
class ExceptHygieneRule(ProjectRule):
    """Broad exception handlers that swallow failures silently."""

    id = "except-hygiene"
    description = ("'except Exception:' (or bare 'except:') in sim code must "
                   "re-raise or record the failure (telemetry count/event or "
                   "logging); otherwise narrow it to the concrete types")
    scopes = DEEP_SCOPE

    _RECORDERS = {
        # telemetry surface
        "count", "event", "observe",
        # logging surface
        "debug", "info", "warning", "error", "exception", "critical", "log",
        # sanitizer breach reporting
        "_fail",
    }

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        for t in types:
            if isinstance(t, ast.Name) and t.id in ("Exception", "BaseException"):
                return True
        return False

    def _records_failure(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._RECORDERS):
                return True
        return False

    def check_project(self, project: Project) -> Iterable[Violation]:
        for rel, info in project.modules.items():
            for node in info.nodes:
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if self._is_broad(node) and not self._records_failure(node):
                    yield Violation(
                        self.id, rel, node.lineno, node.col_offset,
                        "broad exception handler neither re-raises nor "
                        "records the failure; narrow it to the concrete "
                        "exception types (or re-raise + telemetry-count)")


@register
class SpanLifecycleRule(ProjectRule):
    """Causal-span lifecycle discipline (see repro.obs.spans).

    Two breach shapes:

    * a statement-position ``sp.open(...)`` whose span id is discarded —
      that span can never be closed, so it survives only as a ``cut``
      leftover at ``finish()`` and poisons the containment invariants;
    * a wall-clock read inside a function that opens/closes/annotates
      spans — span timestamps are sim-clock by contract, and a single
      ``time.time()`` fed into ``open``/``close`` breaks the
      byte-identical-replay guarantee the span tests pin.
    """

    id = "span-lifecycle"
    description = ("span opens must keep the id (sid = sp.open(...)) so the "
                   "span can be closed, and span-handling functions must not "
                   "read the wall clock (span timestamps are sim-clock)")
    scopes = DEEP_SCOPE

    #: SpanRecorder's lifecycle surface, used to recognise span-handling
    #: receivers (``sp`` / ``spans`` locals or any ``.spans`` attribute).
    _SPAN_METHODS = frozenset(
        {"open", "close", "instant", "annotate", "finish", "bind"})
    _WALL_CLOCK = frozenset({
        ("time", "time"), ("time", "monotonic"), ("time", "perf_counter"),
        ("time", "time_ns"), ("time", "monotonic_ns"),
        ("time", "process_time"),
    })
    _DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

    @staticmethod
    def _is_span_receiver(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in ("sp", "spans")
        if isinstance(node, ast.Attribute):
            return node.attr == "spans"
        return False

    def _span_calls(self, func: ast.AST) -> Iterable[ast.Call]:
        for node in ast.walk(func):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._SPAN_METHODS
                    and self._is_span_receiver(node.func.value)):
                yield node

    def _dotted(self, node: ast.AST):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return tuple(reversed(parts))
        return None

    def check_project(self, project: Project) -> Iterable[Violation]:
        for rel, info in project.modules.items():
            # breach 1: statement-position open() discards the span id
            for node in info.nodes:
                if not (isinstance(node, ast.Expr)
                        and isinstance(node.value, ast.Call)
                        and isinstance(node.value.func, ast.Attribute)
                        and node.value.func.attr == "open"
                        and self._is_span_receiver(node.value.func.value)):
                    continue
                yield Violation(
                    self.id, rel, node.lineno, node.col_offset,
                    "span opened but its id is discarded — it can never be "
                    "closed; keep it (sid = sp.open(...)) or use instant() "
                    "for zero-duration marks")
            # breach 2: wall-clock reads inside span-handling functions
            for func in info.functions:
                if not any(True for _ in self._span_calls(func)):
                    continue
                for node in func.body:
                    for call in ast.walk(node):
                        if not isinstance(call, ast.Call):
                            continue
                        chain = self._dotted(call.func)
                        if chain is None:
                            continue
                        if chain in self._WALL_CLOCK or (
                                chain[-1] in self._DATETIME_ATTRS
                                and any(p in ("datetime", "date")
                                        for p in chain[:-1])):
                            yield Violation(
                                self.id, rel, call.lineno, call.col_offset,
                                "wall-clock read %s() in a span-handling "
                                "function; span timestamps must come from "
                                "the sim clock (loop.now) or replays stop "
                                "being byte-identical" % ".".join(chain))


@register
class ConstantDriftRule(ProjectRule):
    """Defaults contradicting the paper-constants registry."""

    id = "constant-drift"
    description = ("a config default or dataclass field drifts from the "
                   "XNC contract declared in tools/lint/constants.py "
                   "(t_expire, n'=n+3, rho, GF(2^8), XNC_Header, loss "
                   "threshold, range borders)")
    scopes = DEEP_SCOPE

    def check_project(self, project: Project) -> Iterable[Violation]:
        for f in check_project_constants(project):
            yield Violation(self.id, f.rel, f.line, f.col, f.message)
