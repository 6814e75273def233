"""Shard-safety rules: is the tree safe to replicate across workers?

ROADMAP item 1 shards N = 100 → 10k seeded vehicle tunnels across
worker processes, one event loop per shard.  That replication is only
sound if no hidden module-level mutable state, cross-loop object
leakage, or unseeded RNG provenance can make shards interfere or
diverge.  Four cooperating rules over the engine's
:class:`~tools.lint.graph.Project` prove it statically:

* ``shard-mutable-global`` — module-level mutable state (dict/list/set
  globals, class-attribute caches, mutable default arguments, unbounded
  memo tables) **written from function bodies**.  Each find is either a
  leak hazard or must carry a ``# lint: shard-safe(<reason>)``
  justification pragma on its definition line.  Bounded
  ``@lru_cache(maxsize=N)`` memos of deterministic functions are
  auto-classified shard-safe (pure, derivable, bounded) and stay
  silent; ``maxsize=None`` / ``functools.cache`` are flagged as
  unbounded.
* ``shard-loop-ownership`` — objects constructed with an ``EventLoop``
  handle escaping into module globals or class attributes, and
  module-level loop construction (a process-wide singleton loop shared
  by every shard).  A simple intra-procedural taint pass: loop
  parameters and ``EventLoop(...)`` results taint every object
  constructed from them.
* ``shard-rng-provenance`` — every RNG must derive from
  ``repro.determinism.seeded_rng(...)`` **with a string derivation
  path** (``seeded_rng(seed, "uplink", path_id)``), so sub-streams
  cannot collide when thousands of components share one configured
  seed.  Flags label-free ``seeded_rng`` calls, mid-flight re-seeding
  (``rng.seed(...)``), and RNG objects escaping their component into
  module state.  (Ambient ``random.*`` and raw ``random.Random``
  construction are already enforced by the per-file rules
  ``no-unseeded-rng`` / ``no-raw-rng``, which run in the same pass.)
* ``shard-spawn-safety`` — lambdas, closures and local classes handed
  to ``multiprocessing`` / ``concurrent.futures`` boundaries
  (``executor.submit``, ``pool.map``, ``Process(target=...)``): they
  cannot be pickled into a worker, so the fleet runner would die at
  spawn time, not analysis time.

The ``# lint: shard-safe(<reason>)`` pragma is the classification
escape hatch for the mutable-global pass: it asserts the state is a
pure memo, derivable, or bounded — and the runtime state-leak guard
(``repro.sanitizer.stateguard``) keeps those assertions honest by
fingerprinting registered globals around seeded runs.  An empty reason
is itself a violation, mirroring ``bare-suppression``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .engine import ProjectRule, Violation, register
from .graph import ModuleInfo, Project

__all__ = [
    "SHARD_SAFE_RE",
    "shard_safe_pragmas",
    "MutableGlobalRule",
    "LoopOwnershipRule",
    "RngProvenanceRule",
    "SpawnSafetyRule",
]

#: Shard rules cover the simulated tree; fixtures opt in via --all-rules.
SHARD_SCOPE = ("src/repro/",)

#: Justification pragma grammar: ``# lint: shard-safe(<reason>)``.
SHARD_SAFE_RE = re.compile(r"#\s*lint:\s*shard-safe\((?P<why>[^)]*)\)")

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "appendleft", "add", "update", "setdefault", "pop", "popitem",
    "clear", "extend", "insert", "remove", "discard", "popleft", "sort",
    "reverse", "__setitem__",
})

#: Callables whose result is a mutable container.
_MUTABLE_CTORS = frozenset({
    "dict", "list", "set", "bytearray", "defaultdict", "deque",
    "OrderedDict", "Counter", "ChainMap",
})


def shard_safe_pragmas(lines) -> Dict[int, str]:
    """line -> justification text for every ``shard-safe(...)`` pragma."""
    out: Dict[int, str] = {}
    for i, line in enumerate(lines, start=1):
        m = SHARD_SAFE_RE.search(line)
        if m:
            out[i] = m.group("why").strip()
    return out


def _is_mutable_value(node: Optional[ast.AST]) -> bool:
    """Does this expression construct a mutable container?"""
    if node is None:
        return False
    if isinstance(node, (ast.Dict, ast.List, ast.Set,
                         ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        return name in _MUTABLE_CTORS
    return False


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _walk_stmts_ordered(body: Iterable[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements in source/execution order, recursing into nested
    blocks (if/for/while/try/with bodies) but not into nested
    function/class scopes — those are analyzed on their own pass."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield stmt
        for field in ("body", "orelse", "finalbody"):
            yield from _walk_stmts_ordered(getattr(stmt, field, []))
        for handler in getattr(stmt, "handlers", []):
            yield from _walk_stmts_ordered(handler.body)


def _own_calls(stmt: ast.stmt) -> Iterator[ast.Call]:
    """Call nodes in *stmt*'s own expressions, excluding nested blocks
    (which :func:`_walk_stmts_ordered` visits as their own statements)."""
    for field, value in ast.iter_fields(stmt):
        if field in ("body", "orelse", "finalbody", "handlers"):
            continue
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, ast.AST):
                for node in ast.walk(item):
                    if isinstance(node, ast.Call):
                        yield node


def _module_lines(project: Project, rel: str):
    source = project.sources.get(rel)
    return getattr(source, "lines", []) or []


@register
class MutableGlobalRule(ProjectRule):
    """Module-level mutable state written from function bodies.

    Each worker shard imports its own copy of every module, so a
    mutable global that functions write to silently diverges across
    shards (and across event loops within one process).  A global that
    is genuinely shard-safe — a pure memo, derivable from constants,
    bounded — must say so with ``# lint: shard-safe(<reason>)`` on its
    definition line; everything else is a state-leak hazard.
    """

    id = "shard-mutable-global"
    description = ("module-level mutable state (globals, class-attribute "
                   "caches, mutable default args, unbounded memo tables) "
                   "written from function bodies; classify with "
                   "'# lint: shard-safe(<reason>)' or move into an instance")
    scopes = SHARD_SCOPE

    def check_project(self, project: Project) -> Iterable[Violation]:
        # module -> {global name: definition node} for cross-module writes
        defs: Dict[str, Dict[str, ast.AST]] = {}
        for rel, info in sorted(project.modules.items()):
            defs[info.name] = self._mutable_globals(info)
        for rel, info in project.modules.items():
            pragmas = shard_safe_pragmas(_module_lines(project, rel))
            yield from self._check_module(project, rel, info, defs, pragmas)
            for line, why in sorted(pragmas.items()):
                if not why:
                    yield Violation(
                        self.id, rel, line, 0,
                        "shard-safe pragma without a reason; write "
                        "'# lint: shard-safe(<why this state cannot leak "
                        "across shards>)'")

    # -- collection ------------------------------------------------------------

    @staticmethod
    def _mutable_globals(info: ModuleInfo) -> Dict[str, ast.AST]:
        out: Dict[str, ast.AST] = {}
        for node in info.tree.body:
            if isinstance(node, ast.Assign):
                if _is_mutable_value(node.value):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name) and tgt.id != "__all__":
                            out[tgt.id] = node
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if _is_mutable_value(node.value) and node.target.id != "__all__":
                    out[node.target.id] = node
        return out

    @staticmethod
    def _class_attr_caches(info: ModuleInfo) -> Dict[Tuple[str, str], ast.AST]:
        """(class name, attr) -> def node for mutable class attributes."""
        out: Dict[Tuple[str, str], ast.AST] = {}
        for node in info.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.Assign) and _is_mutable_value(item.value):
                    for tgt in item.targets:
                        if isinstance(tgt, ast.Name):
                            out[(node.name, tgt.id)] = item
                elif (isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)
                      and _is_mutable_value(item.value)):
                    out[(node.name, item.target.id)] = item
        return out

    # -- write detection -------------------------------------------------------

    @staticmethod
    def _written_names(func: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
        """(name, write node) for every mutation of a bare name in ``func``."""
        declared_global: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for tgt in targets:
                    # G[...] = v  /  G[...] += v
                    if isinstance(tgt, ast.Subscript) and isinstance(tgt.value, ast.Name):
                        yield tgt.value.id, node
                    # global G; G = v
                    elif isinstance(tgt, ast.Name) and tgt.id in declared_global:
                        yield tgt.id, node
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS
                  and isinstance(node.func.value, ast.Name)):
                # G.append(v), G.update(...), ...
                yield node.func.value.id, node

    @staticmethod
    def _cross_module_writes(info: ModuleInfo) -> Iterator[Tuple[str, str, ast.AST]]:
        """(target module, global name, write node) for ``mod.G[...] = v`` etc."""
        for func in info.functions:
            for node in ast.walk(func):
                chains: List[Tuple[Tuple[str, ...], ast.AST]] = []
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    for tgt in targets:
                        if isinstance(tgt, ast.Subscript):
                            chain = _dotted(tgt.value)
                            if chain and len(chain) >= 2:
                                chains.append((chain, node))
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr in _MUTATORS):
                    chain = _dotted(node.func.value)
                    if chain and len(chain) >= 2:
                        chains.append((chain, node))
                for chain, write in chains:
                    root = info.module_aliases.get(chain[0])
                    if root is None:
                        continue
                    resolved = root.split(".") + list(chain[1:])
                    yield ".".join(resolved[:-1]), resolved[-1], write

    # -- per-module check ------------------------------------------------------

    def _check_module(self, project: Project, rel: str, info: ModuleInfo,
                      defs: Dict[str, Dict[str, ast.AST]],
                      pragmas: Dict[int, str]) -> Iterator[Violation]:
        mutable = defs.get(info.name, {})
        writes: Dict[str, List[ast.AST]] = {}
        for func in info.functions:
            func_locals = self._local_bindings(func)
            for name, node in self._written_names(func):
                if name in mutable and name not in func_locals:
                    writes.setdefault(name, []).append(node)
        for name in sorted(writes):
            def_node = mutable[name]
            if def_node.lineno in pragmas and pragmas[def_node.lineno]:
                continue
            first = min(writes[name], key=lambda n: n.lineno)
            yield Violation(
                self.id, rel, def_node.lineno, def_node.col_offset,
                "module-level mutable global %r is written from %d function "
                "site(s) (first at line %d); each worker shard gets a "
                "diverging copy — justify with '# lint: shard-safe(<reason>)' "
                "or move the state into an instance"
                % (name, len(writes[name]), first.lineno))
        # cross-module writes are reported at the write site
        for target_mod, name, node in self._cross_module_writes(info):
            target = defs.get(target_mod, {})
            if name not in target:
                continue
            def_node = target[name]
            origin = project.by_name.get(target_mod)
            origin_lines = _module_lines(project, origin.rel) if origin else []
            origin_pragmas = shard_safe_pragmas(origin_lines)
            if def_node.lineno in origin_pragmas and origin_pragmas[def_node.lineno]:
                continue
            yield Violation(
                self.id, rel, node.lineno, node.col_offset,
                "write into module-level mutable global %s.%s from another "
                "module; cross-module state mutation cannot replicate "
                "safely across shards" % (target_mod, name))
        # class-attribute caches mutated through the class (or cls)
        for (cls_name, attr), def_node in sorted(
                self._class_attr_caches(info).items()):
            if def_node.lineno in pragmas and pragmas[def_node.lineno]:
                continue
            hit = self._class_attr_written(info, cls_name, attr)
            if hit is not None:
                yield Violation(
                    self.id, rel, def_node.lineno, def_node.col_offset,
                    "class-attribute cache %s.%s is mutated from a function "
                    "body (line %d); it is module state in disguise — "
                    "justify with '# lint: shard-safe(<reason>)' or make it "
                    "an instance attribute" % (cls_name, attr, hit.lineno))
        # mutable default arguments: a hidden cache shared across calls
        for func in info.functions:
            args = func.args
            for default in list(args.defaults) + [d for d in args.kw_defaults if d]:
                if not _is_mutable_value(default):
                    continue
                if default.lineno in pragmas and pragmas[default.lineno]:
                    continue
                yield Violation(
                    self.id, rel, default.lineno, default.col_offset,
                    "mutable default argument on %s() persists across calls "
                    "— a hidden module-level cache; default to None and "
                    "construct inside the function" % func.name)
        # unbounded memo decorators
        for func in info.functions:
            for deco in func.decorator_list:
                verdict = self._memo_verdict(deco)
                if verdict is None:
                    continue
                if deco.lineno in pragmas and pragmas[deco.lineno]:
                    continue
                if func.lineno in pragmas and pragmas[func.lineno]:
                    continue
                yield Violation(
                    self.id, rel, deco.lineno, deco.col_offset,
                    "%s on %s(): an unbounded memo table grows without limit "
                    "and diverges per shard; use lru_cache(maxsize=N) "
                    "(bounded pure memos are auto-classified shard-safe)"
                    % (verdict, func.name))

    @staticmethod
    def _local_bindings(func: ast.AST) -> Set[str]:
        """Names bound locally in ``func`` (params + plain assignments)."""
        out: Set[str] = set()
        args = func.args
        for a in (list(args.posonlyargs) + list(args.args)
                  + list(args.kwonlyargs)):
            out.add(a.arg)
        if args.vararg:
            out.add(args.vararg.arg)
        if args.kwarg:
            out.add(args.kwarg.arg)
        declared_global: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        out.add(tgt.id)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Name):
                    out.add(node.target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if isinstance(node.target, ast.Name):
                    out.add(node.target.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        out.add(item.optional_vars.id)
        return out - declared_global

    @staticmethod
    def _class_attr_written(info: ModuleInfo, cls_name: str,
                            attr: str) -> Optional[ast.AST]:
        """First function-body mutation of ``cls_name.attr`` (or ``cls.attr``)."""
        for func in info.functions:
            for node in ast.walk(func):
                receiver = None
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    for tgt in targets:
                        if (isinstance(tgt, ast.Subscript)
                                and isinstance(tgt.value, ast.Attribute)
                                and tgt.value.attr == attr):
                            receiver = tgt.value.value
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr in _MUTATORS
                      and isinstance(node.func.value, ast.Attribute)
                      and node.func.value.attr == attr):
                    receiver = node.func.value.value
                if (isinstance(receiver, ast.Name)
                        and receiver.id in (cls_name, "cls")):
                    return node
        return None

    @staticmethod
    def _memo_verdict(deco: ast.AST) -> Optional[str]:
        """Classify a memo decorator: None = silent, str = hazard label."""
        chain = _dotted(deco if not isinstance(deco, ast.Call) else deco.func)
        if chain is None:
            return None
        name = chain[-1]
        if name == "cache" and chain[0] in ("functools", "cache"):
            return "functools.cache"
        if name != "lru_cache":
            return None
        if not isinstance(deco, ast.Call):
            return None  # bare @lru_cache defaults to maxsize=128: bounded
        for kw in deco.keywords:
            if kw.arg == "maxsize":
                if isinstance(kw.value, ast.Constant) and kw.value.value is None:
                    return "lru_cache(maxsize=None)"
                return None  # explicit numeric bound: pure bounded memo
        if deco.args:
            if (isinstance(deco.args[0], ast.Constant)
                    and deco.args[0].value is None):
                return "lru_cache(None)"
            return None
        return None  # lru_cache() defaults to maxsize=128: bounded


#: Constructors whose result owns (or is) an event loop.
_LOOP_CTORS = frozenset({"EventLoop"})
#: Parameter/variable names that are loop handles by convention.
_LOOP_NAMES = frozenset({"loop", "event_loop"})


@register
class LoopOwnershipRule(ProjectRule):
    """Event-loop-owned objects must not outlive or cross their loop.

    The fleet runner gives every shard its own event loop; an object
    constructed with a loop handle that escapes into a module global or
    a class attribute survives into the *next* loop instance (or is
    shared across concurrent loops in one process) — timers fire on a
    dead loop, sim clocks disagree, runs stop replaying.
    """

    id = "shard-loop-ownership"
    description = ("objects constructed with an EventLoop handle must not "
                   "be stored in module globals or class attributes, and "
                   "loops must not be constructed at module level")
    scopes = SHARD_SCOPE

    def check_project(self, project: Project) -> Iterable[Violation]:
        for rel, info in project.modules.items():
            # module-level loop construction: a process-wide singleton
            for node in info.tree.body:
                for call in self._calls_in_statement(node):
                    if self._is_loop_ctor(call):
                        yield Violation(
                            self.id, rel, call.lineno, call.col_offset,
                            "EventLoop constructed at module level is a "
                            "process-wide singleton shared by every shard; "
                            "construct one loop per shard inside the runner")
            for func in info.functions:
                yield from self._check_function(rel, info, func)

    @staticmethod
    def _calls_in_statement(stmt: ast.AST) -> Iterator[ast.Call]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                yield node

    @staticmethod
    def _is_loop_ctor(call: ast.Call) -> bool:
        chain = _dotted(call.func)
        return chain is not None and chain[-1] in _LOOP_CTORS

    def _check_function(self, rel: str, info: ModuleInfo,
                        func: ast.AST) -> Iterator[Violation]:
        mutable_globals = MutableGlobalRule._mutable_globals(info)
        tainted: Set[str] = set()
        args = func.args
        for a in (list(args.posonlyargs) + list(args.args)
                  + list(args.kwonlyargs)):
            if a.arg in _LOOP_NAMES:
                tainted.add(a.arg)
        declared_global: Set[str] = set()
        for stmt in _walk_stmts_ordered(func.body):
            if isinstance(stmt, ast.Global):
                declared_global.update(stmt.names)

        def value_tainted(node: ast.AST) -> bool:
            if isinstance(node, ast.Name):
                return node.id in tainted or node.id in _LOOP_NAMES
            if isinstance(node, ast.Attribute):
                return node.attr in _LOOP_NAMES
            if isinstance(node, ast.Call):
                if self._is_loop_ctor(node):
                    return True
                # an object constructed *with* a loop handle is loop-owned
                operands = list(node.args) + [kw.value for kw in node.keywords]
                return any(value_tainted(arg) for arg in operands)
            return False

        # single forward pass in true source order — nested blocks are
        # recursed where they appear, so reassignment untainting tracks
        # execution order on the straight-line idioms this heuristic
        # targets (BFS would visit a nested tainting assignment after a
        # later top-level untainting one, masking real escapes)
        for node in _walk_stmts_ordered(func.body):
            if isinstance(node, ast.Assign):
                is_tainted = value_tainted(node.value)
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        if tgt.id in declared_global and is_tainted:
                            yield Violation(
                                self.id, rel, node.lineno, node.col_offset,
                                "loop-owned object stored in module global "
                                "%r; it outlives its event loop and leaks "
                                "across shard reruns" % tgt.id)
                        elif is_tainted:
                            tainted.add(tgt.id)
                        else:
                            tainted.discard(tgt.id)
                    elif (isinstance(tgt, ast.Subscript)
                          and isinstance(tgt.value, ast.Name)
                          and tgt.value.id in mutable_globals
                          and is_tainted):
                        yield Violation(
                            self.id, rel, node.lineno, node.col_offset,
                            "loop-owned object stored in module-level "
                            "container %r; it outlives its event loop and "
                            "leaks across shard reruns" % tgt.value.id)
                    elif (isinstance(tgt, ast.Attribute)
                          and isinstance(tgt.value, ast.Name)
                          and tgt.value.id in info.symbols
                          and info.symbols[tgt.value.id].kind == "class"
                          and is_tainted):
                        yield Violation(
                            self.id, rel, node.lineno, node.col_offset,
                            "loop-owned object stored on class attribute "
                            "%s.%s; class state is shared across every loop "
                            "in the process" % (tgt.value.id, tgt.attr))
            for call in _own_calls(node):
                if (isinstance(call.func, ast.Attribute)
                        and call.func.attr in _MUTATORS
                        and isinstance(call.func.value, ast.Name)
                        and call.func.value.id in mutable_globals):
                    operands = (list(call.args)
                                + [kw.value for kw in call.keywords])
                    if any(value_tainted(arg) for arg in operands):
                        yield Violation(
                            self.id, rel, call.lineno, call.col_offset,
                            "loop-owned object stored in module-level "
                            "container %r; it outlives its event loop and "
                            "leaks across shard reruns" % call.func.value.id)


#: Name pattern for RNG-holding locals/attributes.
_RNG_NAME = re.compile(r"(?:^|_)rng$|^rng", re.IGNORECASE)


@register
class RngProvenanceRule(ProjectRule):
    """Every RNG derives from ``seeded_rng`` with a string derivation path.

    ``seeded_rng(seed)`` with no components is byte-equivalent to
    ``random.Random(seed)`` — so two components constructed from the
    same configured seed share one sequence, and a fleet of 10k tunnels
    seeded ``base + i`` can collide sub-streams across shards.  The
    derivation-path convention (``seeded_rng(seed, "uplink", path_id)``)
    makes provenance explicit and collision-free; this rule enforces it,
    bans mid-flight re-seeding, and keeps RNG objects from escaping
    their component into module state.
    """

    id = "shard-rng-provenance"
    description = ("seeded_rng(...) needs a string derivation path "
                   "(seeded_rng(seed, \"component\", ...)); re-seeding and "
                   "RNG objects escaping into module state are banned")
    scopes = SHARD_SCOPE
    #: The helper itself constructs the terminal RNG.
    exempt = ("src/repro/determinism.py",)

    _PROVIDER = ("repro.determinism", "seeded_rng")

    def _seeded_rng_names(self, info: ModuleInfo) -> Set[str]:
        names = {name for name, target in info.from_imports.items()
                 if target == self._PROVIDER}
        return names

    def _is_seeded_rng_call(self, info: ModuleInfo, call: ast.Call,
                            local_names: Set[str]) -> bool:
        if isinstance(call.func, ast.Name):
            return call.func.id in local_names
        chain = _dotted(call.func)
        if chain is None or chain[-1] != "seeded_rng":
            return False
        root = info.module_aliases.get(chain[0])
        if root is None:
            return chain[0] == "determinism"
        resolved = ".".join(root.split(".") + list(chain[1:-1]))
        return resolved == self._PROVIDER[0]

    def check_project(self, project: Project) -> Iterable[Violation]:
        for rel, info in project.modules.items():
            local_names = self._seeded_rng_names(info)
            mutable_globals = MutableGlobalRule._mutable_globals(info)
            rng_call_lines: Set[int] = set()
            for node in info.nodes:
                if not isinstance(node, ast.Call):
                    continue
                if self._is_seeded_rng_call(info, node, local_names):
                    rng_call_lines.add(node.lineno)
                    yield from self._check_derivation(rel, node)
            # module-level RNG construction: one stream for every shard
            for stmt in info.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                for node in ast.walk(stmt):
                    if (isinstance(node, ast.Call)
                            and self._is_seeded_rng_call(info, node, local_names)):
                        yield Violation(
                            self.id, rel, node.lineno, node.col_offset,
                            "RNG constructed at module level is one shared "
                            "stream for every shard in the process; derive "
                            "it inside the component that owns it")
            yield from self._check_reseed_and_escape(
                rel, info, local_names, mutable_globals)

    def _check_derivation(self, rel: str, call: ast.Call) -> Iterator[Violation]:
        operands = list(call.args) + [kw.value for kw in call.keywords]
        if len(operands) <= 1:
            yield Violation(
                self.id, rel, call.lineno, call.col_offset,
                "seeded_rng(seed) has no derivation path; two components "
                "sharing this seed share one sequence — pass string "
                "components (seeded_rng(seed, \"component\", idx))")
            return
        has_label = any(isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                        for arg in operands[1:])
        if not has_label:
            yield Violation(
                self.id, rel, call.lineno, call.col_offset,
                "seeded_rng derivation path has no string label; numeric "
                "components alone can collide across component types — "
                "include a string tag (seeded_rng(seed, \"uplink\", idx))")

    def _check_reseed_and_escape(self, rel: str, info: ModuleInfo,
                                 local_names: Set[str],
                                 mutable_globals) -> Iterator[Violation]:
        for func in info.functions:
            tainted: Set[str] = set()
            declared_global: Set[str] = set()
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)

            def rng_like(node: ast.AST) -> bool:
                if isinstance(node, ast.Name):
                    return node.id in tainted or bool(_RNG_NAME.search(node.id))
                if isinstance(node, ast.Attribute):
                    return bool(_RNG_NAME.search(node.attr))
                if isinstance(node, ast.Call):
                    return self._is_seeded_rng_call(info, node, local_names)
                return False

            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    is_rng = rng_like(node.value)
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            if tgt.id in declared_global and is_rng:
                                yield Violation(
                                    self.id, rel, node.lineno, node.col_offset,
                                    "RNG object escapes its component into "
                                    "module global %r; shards would share "
                                    "one sequence" % tgt.id)
                            elif is_rng:
                                tainted.add(tgt.id)
                        elif (isinstance(tgt, ast.Subscript)
                              and isinstance(tgt.value, ast.Name)
                              and tgt.value.id in mutable_globals
                              and is_rng):
                            yield Violation(
                                self.id, rel, node.lineno, node.col_offset,
                                "RNG object escapes its component into "
                                "module-level container %r; shards would "
                                "share one sequence" % tgt.value.id)
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "seed"):
                    receiver = node.func.value
                    # random.seed(...) is the per-file rule's business
                    if isinstance(receiver, ast.Name) and receiver.id == "random":
                        continue
                    if rng_like(receiver):
                        yield Violation(
                            self.id, rel, node.lineno, node.col_offset,
                            "re-seeding an RNG mid-flight destroys its "
                            "derivation provenance; derive a fresh "
                            "sub-stream with seeded_rng(seed, ...) instead")


#: Executor/pool method names that cross a process boundary.
_SPAWN_METHODS = frozenset({
    "submit", "map", "starmap", "apply", "apply_async", "map_async",
    "starmap_async", "imap", "imap_unordered",
})
#: Receiver-name pattern recognising executors and pools.
_EXECUTOR_NAME = re.compile(r"(pool|executor|exec)", re.IGNORECASE)
_EXECUTOR_CTORS = frozenset({
    "ProcessPoolExecutor", "ThreadPoolExecutor", "Pool",
})


@register
class SpawnSafetyRule(ProjectRule):
    """Nothing unpicklable may cross a worker-process boundary.

    ``multiprocessing`` and ``concurrent.futures`` pickle the callable
    and its arguments into the worker; lambdas, closures (functions
    defined inside a function) and local classes fail at spawn time —
    on the 10k-tunnel fleet run, not in the unit tests.  This pass
    rejects them at the call site.
    """

    id = "shard-spawn-safety"
    description = ("lambdas, closures, and local classes cannot be pickled "
                   "across multiprocessing/concurrent.futures boundaries "
                   "(executor.submit/map, Pool.map, Process(target=...))")
    scopes = SHARD_SCOPE

    def check_project(self, project: Project) -> Iterable[Violation]:
        for rel, info in project.modules.items():
            module_level = set(info.symbols)
            for func in info.functions:
                nested_defs = {
                    n.name for n in ast.walk(func)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                    and n is not func
                }
                for node in ast.walk(func):
                    if not isinstance(node, ast.Call):
                        continue
                    for payload in self._boundary_payloads(node):
                        yield from self._check_payload(
                            rel, payload, nested_defs, module_level)

    @staticmethod
    def _boundary_payloads(call: ast.Call) -> Iterator[ast.AST]:
        """Expressions this call would pickle into a worker process."""
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in _SPAWN_METHODS:
            receiver = func.value
            is_executor = False
            if isinstance(receiver, ast.Name):
                is_executor = bool(_EXECUTOR_NAME.search(receiver.id))
            elif isinstance(receiver, ast.Attribute):
                is_executor = bool(_EXECUTOR_NAME.search(receiver.attr))
            elif isinstance(receiver, ast.Call):
                chain = _dotted(receiver.func)
                is_executor = chain is not None and chain[-1] in _EXECUTOR_CTORS
            if is_executor:
                yield from call.args
                for kw in call.keywords:
                    yield kw.value
            return
        chain = _dotted(func)
        if chain is not None and chain[-1] == "Process":
            for kw in call.keywords:
                if kw.arg in ("target", "args", "kwargs"):
                    yield kw.value

    def _check_payload(self, rel: str, payload: ast.AST,
                       nested_defs: Set[str],
                       module_level: Set[str]) -> Iterator[Violation]:
        for node in ast.walk(payload):
            if isinstance(node, ast.Lambda):
                yield Violation(
                    self.id, rel, node.lineno, node.col_offset,
                    "lambda crosses a worker-process boundary; it cannot be "
                    "pickled — use a module-level function")
            elif (isinstance(node, ast.Name)
                  and node.id in nested_defs
                  and node.id not in module_level):
                yield Violation(
                    self.id, rel, node.lineno, node.col_offset,
                    "%r is defined inside the enclosing function; closures "
                    "and local classes cannot be pickled across the "
                    "worker-process boundary — move it to module level"
                    % node.id)
