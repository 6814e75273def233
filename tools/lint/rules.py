"""Repo-native lint rules for the CellFusion reproduction.

Every figure in the evaluation depends on two properties the type system
cannot see: **sim-clock purity** (no wall-clock reads inside the
simulated transport — PR 1's idle-timer spin was exactly this class of
bug) and **seeded randomness** (same seed, same packets, same figure).
These rules machine-check both, plus the telemetry null-singleton guard
discipline and the public-API hygiene (`__all__`) that keeps
`from repro.x import *` and the docs honest.

Adding a rule: subclass :class:`~tools.lint.engine.Rule`, implement
``check``, decorate with :func:`~tools.lint.engine.register` — see
``no-wall-clock`` below for the canonical ~20-line shape.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Optional, Tuple

from .engine import ModuleSource, Rule, Violation, register

__all__ = [
    "dotted_name",
    "WallClockRule",
    "UnseededRngRule",
    "RawRngRule",
    "FloatTimeEqRule",
    "TelemetryGuardRule",
    "ModuleAllRule",
]

#: The deterministic-core scope: everything the event loop simulates.
SIM_SCOPE = ("src/repro/",)


def dotted_name(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Resolve ``a.b.c`` attribute chains to ('a', 'b', 'c'), else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


@register
class WallClockRule(Rule):
    """Wall-clock reads poison the sim clock: ``loop.now`` is the only time."""

    id = "no-wall-clock"
    description = ("time.time/monotonic/perf_counter and datetime.now are "
                   "banned in src/repro/ — simulated code reads loop.now")
    scopes = SIM_SCOPE

    _BANNED = {
        ("time", "time"), ("time", "monotonic"), ("time", "perf_counter"),
        ("time", "time_ns"), ("time", "monotonic_ns"), ("time", "process_time"),
    }
    _DATETIME_ATTRS = {"now", "utcnow", "today"}

    def check(self, module: ModuleSource) -> Iterable[Violation]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if chain is None:
                continue
            if chain in self._BANNED:
                yield self.violation(module, node,
                                     "wall-clock read %s(); use the event-loop "
                                     "sim clock (loop.now)" % ".".join(chain))
            elif (chain[-1] in self._DATETIME_ATTRS
                  and any(p in ("datetime", "date") for p in chain[:-1])):
                yield self.violation(module, node,
                                     "wall-clock read %s(); sim code must be "
                                     "reproducible" % ".".join(chain))


@register
class UnseededRngRule(Rule):
    """Global/unseeded RNG makes runs unreproducible across processes."""

    id = "no-unseeded-rng"
    description = ("module-level random.* calls, argless random.Random() and "
                   "argless numpy default_rng() are banned in src/repro/")
    scopes = SIM_SCOPE

    _GLOBAL_FNS = {
        "random", "randrange", "randint", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "lognormvariate",
        "expovariate", "betavariate", "gammavariate", "triangular",
        "vonmisesvariate", "paretovariate", "weibullvariate",
        "getrandbits", "randbytes", "seed",
    }
    _NP_FNS = {
        "rand", "randn", "randint", "random", "choice", "shuffle",
        "permutation", "seed", "random_sample", "standard_normal",
    }

    def check(self, module: ModuleSource) -> Iterable[Violation]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if chain is None:
                continue
            if len(chain) == 2 and chain[0] == "random" and chain[1] in self._GLOBAL_FNS:
                yield self.violation(module, node,
                                     "global-RNG call random.%s(); use a seeded "
                                     "repro.determinism.seeded_rng instance" % chain[1])
            elif chain == ("random", "Random") and not node.args and not node.keywords:
                yield self.violation(module, node,
                                     "argless random.Random() seeds from the OS; "
                                     "pass an explicit seed via seeded_rng")
            elif (len(chain) == 3 and chain[0] in ("np", "numpy")
                  and chain[1] == "random"):
                if chain[2] in self._NP_FNS:
                    yield self.violation(module, node,
                                         "global numpy RNG call %s(); use "
                                         "default_rng(seed)" % ".".join(chain))
                elif chain[2] == "default_rng" and not node.args and not node.keywords:
                    yield self.violation(module, node,
                                         "argless default_rng() seeds from the OS; "
                                         "pass an explicit seed")


@register
class RawRngRule(Rule):
    """Seeded RNGs must come from the one audited construction helper."""

    id = "no-raw-rng"
    description = ("direct random.Random(seed) construction is banned in "
                   "src/repro/ — use repro.determinism.seeded_rng so the "
                   "seeding discipline stays in one place")
    scopes = SIM_SCOPE

    def check(self, module: ModuleSource) -> Iterable[Violation]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            if dotted_name(node.func) == ("random", "Random") and (node.args or node.keywords):
                yield self.violation(module, node,
                                     "construct RNGs via "
                                     "repro.determinism.seeded_rng(seed, ...) "
                                     "instead of random.Random(...)")


@register
class FloatTimeEqRule(Rule):
    """Float equality on sim timestamps is a determinism landmine."""

    id = "no-float-time-eq"
    description = ("== / != between sim timestamps (or a timestamp and a "
                   "float literal) — compare with <, >, or a tolerance")
    scopes = SIM_SCOPE

    _TIME_NAME = re.compile(
        r"(?:^|_)(now|time|timestamp|ts|deadline|expiry|expires?)$|(?:_time|_at|_ts)$"
    )

    def _time_like(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return bool(self._TIME_NAME.search(node.id))
        if isinstance(node, ast.Attribute):
            return bool(self._TIME_NAME.search(node.attr))
        return False

    def _numeric_literal(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            return self._numeric_literal(node.operand)
        return False

    def check(self, module: ModuleSource) -> Iterable[Violation]:
        for node in module.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                a, b = operands[i], operands[i + 1]
                if (self._time_like(a) and (self._time_like(b) or self._numeric_literal(b))) or \
                        (self._time_like(b) and self._numeric_literal(a)):
                    yield self.violation(module, node,
                                         "float equality on a sim timestamp; "
                                         "use an ordering comparison or a "
                                         "tolerance window")


@register
class TelemetryGuardRule(Rule):
    """Telemetry hot-path calls must sit behind the null-singleton guard.

    The disabled-overhead budget (tools/check_overhead.py)
    assumes every ``tel.event/count/observe`` call site is
    guarded by ``if tel.enabled:`` (or an enclosing ``is not None`` check
    on an optional handle), so the disabled cost is one branch — an
    unguarded site pays kwargs construction even when telemetry is off.
    """

    id = "telemetry-guard"
    description = ("telemetry event/count/observe calls need an "
                   "enclosing 'if tel.enabled:' (or 'is not None') guard")
    scopes = SIM_SCOPE
    exempt = ("src/repro/obs/",)

    _METHODS = {"event", "count", "observe"}

    def _is_telemetry_receiver(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in ("tel", "telemetry")
        if isinstance(node, ast.Attribute):
            return node.attr in ("telemetry", "tel")
        return False

    def _test_guards(self, test: ast.AST) -> bool:
        for sub in ast.walk(test):
            if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
                return True
            if isinstance(sub, ast.Compare):
                ops_none = any(isinstance(o, (ast.Is, ast.IsNot)) for o in sub.ops)
                mentions_none = any(
                    isinstance(c, ast.Constant) and c.value is None
                    for c in [sub.left] + list(sub.comparators)
                )
                if ops_none and mentions_none:
                    return True
        return False

    def check(self, module: ModuleSource) -> Iterable[Violation]:
        for node in module.nodes:
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr not in self._METHODS:
                continue
            if not self._is_telemetry_receiver(node.func.value):
                continue
            guarded = any(
                isinstance(anc, (ast.If, ast.IfExp)) and self._test_guards(anc.test)
                for anc in module.ancestors(node)
            )
            if not guarded:
                yield self.violation(module, node,
                                     "unguarded telemetry call .%s(); wrap in "
                                     "'if tel.enabled:' so the disabled path "
                                     "stays one branch" % node.func.attr)


@register
class ModuleAllRule(Rule):
    """Public modules declare their API with ``__all__`` (and keep it honest)."""

    id = "module-all"
    description = ("modules defining public top-level names need __all__, "
                   "and every __all__ entry must exist")
    scopes = SIM_SCOPE

    def _top_level_bindings(self, tree: ast.Module) -> set:
        names = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        names.add(tgt.id)
                    elif isinstance(tgt, ast.Tuple):
                        names.update(e.id for e in tgt.elts if isinstance(e, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(a.asname or a.name for a in node.names if a.name != "*")
            elif isinstance(node, ast.Import):
                names.update((a.asname or a.name).split(".")[0] for a in node.names)
        return names

    def check(self, module: ModuleSource) -> Iterable[Violation]:
        basename = module.rel.rsplit("/", 1)[-1]
        if basename == "__main__.py":
            return
        bindings = self._top_level_bindings(module.tree)
        all_node = None
        for node in module.tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                all_node = node
        defines_public = any(
            isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign))
            and any(not name.startswith("_") for name in self._node_names(n))
            for n in module.tree.body
        )
        if all_node is None:
            if defines_public:
                yield Violation(self.id, module.rel, 1, 0,
                                "module defines public names but no __all__")
            return
        if isinstance(all_node.value, (ast.List, ast.Tuple)):
            for elt in all_node.value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    if elt.value not in bindings and elt.value != "__version__":
                        yield self.violation(module, elt,
                                             "__all__ lists %r which is not "
                                             "defined at top level" % elt.value)

    @staticmethod
    def _node_names(node: ast.AST):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [node.name]
        if isinstance(node, ast.Assign):
            out = []
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    out.append(tgt.id)
                elif isinstance(tgt, ast.Tuple):
                    out.extend(e.id for e in tgt.elts if isinstance(e, ast.Name))
            return out
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            return [node.target.id]
        return []
