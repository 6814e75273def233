"""Hot-path performance rules: what a packet-rate loop may not do.

CellFusion's data plane must sustain per-packet encode/recode/decode at
line rate (§5); PR 4 bought 2.66× on that path largely by deleting
per-packet allocation churn and slow idioms, and ROADMAP item 2 demands
the next order of magnitude.  Nothing structural stopped a later change
from re-introducing those costs — so these rules make hot-path cost a
statically checked property, the way determinism, paper constants and
shard safety already are.

They run over the engine's single-parse
:class:`~tools.lint.graph.Project` plus its static call graph
(:meth:`Project.call_graph`).  **Hotness** is seeded from the bench
suite entry points (every function in ``tools.bench.suites``) and from
the explicit ``@hot_path`` registry (``repro.hotpath``), then propagated
transitively along resolvable call edges — every function reachable
from a packet-rate loop is analyzed.  Four cooperating rules cover the
cost classes:

* ``alloc-in-hot-loop`` — object/list/dict/tuple construction,
  comprehensions, lambda/closure creation, bytes concatenation and
  f-string/``%`` formatting inside loops of hot functions;
* ``slow-idiom`` — ``list.pop(0)``, membership tests on lists,
  non-precompiled ``struct.pack``/``struct.unpack``, repeated multi-hop
  attribute chains in loop bodies, try/except inside tight loops;
* ``hidden-quadratic`` — ``+=`` on list/bytes/str accumulators in
  loops, and nested iteration over the same collection;
* ``unguarded-hot-call`` — hot code calling logging/span/telemetry
  APIs without the null-singleton or enabled-flag guard the obs layer
  provides (the per-file ``telemetry-guard`` rule already covers
  ``tel.event/count/observe/set_gauge`` everywhere; this rule covers
  the remaining observability surfaces, only on hot paths).

Each finding is suppressible only via a mandatory-reason pragma on the
flagged line, mirroring ``shard-safe``::

    acc = bytearray(width)  # lint: hot-ok(one buffer per encode call, reused across rows)

An empty reason is itself a violation.  The runtime complement is the
bench harness's ``allocs_per_op`` gate (``tools/bench`` schema v2):
these rules catch transient churn the allocator statistics cannot see,
the gate catches retention growth the AST cannot see.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .engine import ProjectRule, Violation, register
from .graph import CallGraph, FuncNode, ModuleInfo, Project

__all__ = [
    "HOT_OK_RE",
    "hot_ok_pragmas",
    "AllocInHotLoopRule",
    "SlowIdiomRule",
    "HiddenQuadraticRule",
    "UnguardedHotCallRule",
]

#: Perf rules cover the simulated tree; fixtures opt in via --all-rules.
PERF_SCOPE = ("src/repro/",)

#: Justification pragma grammar: ``# lint: hot-ok(<reason>)``.
HOT_OK_RE = re.compile(r"#\s*lint:\s*hot-ok\((?P<why>[^)]*)\)")


def hot_ok_pragmas(lines) -> Dict[int, str]:
    """line -> justification text for every ``hot-ok(...)`` pragma."""
    out: Dict[int, str] = {}
    for i, line in enumerate(lines, start=1):
        m = HOT_OK_RE.search(line)
        if m:
            out[i] = m.group("why").strip()
    return out


def _module_lines(project: Project, rel: str):
    source = project.sources.get(rel)
    return getattr(source, "lines", []) or []


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _loops_in(fn_node: ast.AST) -> Iterator[ast.AST]:
    """Every For/While loop in the function, nested defs included
    (their bodies run per call of the enclosing hot function)."""
    for node in ast.walk(fn_node):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            yield node


def _loop_stmts(body: Iterable[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements inside a loop body in source order, recursing through
    nested blocks but not into nested def/class bodies (the def
    statement itself is still yielded — creating it per iteration is
    the finding)."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _loop_stmts(getattr(stmt, field, []))
        for handler in getattr(stmt, "handlers", []):
            yield from _loop_stmts(handler.body)


#: Names that hold observability handles by repo convention.
_OBS_HANDLE = re.compile(
    r"(?:^|_)(?:tel|telemetry|spans?|sp|logger|log|profiler|tracer|sanitizer)$")


def _obs_guard_test(test: ast.AST) -> bool:
    """Is this ``if`` test an observability guard — an ``.enabled`` flag
    read, or an is/is-not-None check on an obs handle?  Blocks behind
    such guards only run in instrumented mode; their per-iteration cost
    is the price of observing, not hot-path churn."""
    for sub in ast.walk(test):
        if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
            return True
        if isinstance(sub, ast.Compare):
            ops_none = any(isinstance(o, (ast.Is, ast.IsNot)) for o in sub.ops)
            mentions_none = any(
                isinstance(c, ast.Constant) and c.value is None
                for c in [sub.left] + list(sub.comparators))
            if ops_none and mentions_none:
                for operand in [sub.left] + list(sub.comparators):
                    chain = _dotted(operand)
                    if chain is not None and _OBS_HANDLE.search(chain[-1]):
                        return True
    return False


def _unguarded_loop_stmts(body: Iterable[ast.stmt]) -> Iterator[ast.stmt]:
    """:func:`_loop_stmts`, but skipping obs-guarded ``if`` bodies."""
    for stmt in body:
        if isinstance(stmt, ast.If) and _obs_guard_test(stmt.test):
            yield from _unguarded_loop_stmts(stmt.orelse)
            continue
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _unguarded_loop_stmts(getattr(stmt, field, []))
        for handler in getattr(stmt, "handlers", []):
            yield from _unguarded_loop_stmts(handler.body)


def _parent_map(fn_node: ast.AST) -> Dict[int, ast.AST]:
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(fn_node):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _inside_obs_guard(node: ast.AST, parents: Dict[int, ast.AST]) -> bool:
    """Is this node nested anywhere under an obs-guarded ``if`` block?"""
    while id(node) in parents:
        node = parents[id(node)]
        if isinstance(node, (ast.If, ast.IfExp)) and _obs_guard_test(node.test):
            return True
    return False


def _own_exprs(stmt: ast.stmt) -> Iterator[ast.AST]:
    """AST nodes in *stmt*'s own expressions, excluding nested blocks
    (which :func:`_loop_stmts` yields as their own statements) and
    nested def/class bodies."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return
    for field, value in ast.iter_fields(stmt):
        if field in ("body", "orelse", "finalbody", "handlers"):
            continue
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, ast.AST):
                yield from ast.walk(item)


class _HotFunctionRule(ProjectRule):
    """Shared driver: iterate hot functions, apply pragma suppression.

    Subclasses implement :meth:`check_hot_function`; a finding whose
    line carries a non-empty ``# lint: hot-ok(<reason>)`` pragma is
    accepted as justified and dropped here.
    """

    scopes = PERF_SCOPE

    def check_project(self, project: Project) -> Iterable[Violation]:
        cg = project.call_graph()
        pragma_cache: Dict[str, Dict[int, str]] = {}
        for fn in cg.hot_functions():
            info = project.by_name[fn.module]
            if fn.rel not in pragma_cache:
                pragma_cache[fn.rel] = hot_ok_pragmas(_module_lines(project, fn.rel))
            pragmas = pragma_cache[fn.rel]
            for violation in self.check_hot_function(project, cg, info, fn):
                if pragmas.get(violation.line):
                    continue
                yield violation

    def check_hot_function(self, project: Project, cg: CallGraph,
                           info: ModuleInfo, fn: FuncNode) -> Iterator[Violation]:
        raise NotImplementedError

    def _why_hot(self, cg: CallGraph, fn: FuncNode) -> str:
        return "hot function %s (%s)" % (fn.dotted, cg.hot_reason(fn.key))


#: Builtin constructors that allocate a fresh container per call.
_ALLOC_CTORS = frozenset({
    "list", "dict", "set", "tuple", "frozenset", "bytearray", "bytes",
    "deque", "defaultdict", "OrderedDict", "Counter",
})
#: numpy allocators (receiver ``np``/``numpy``) that matter per packet.
_NP_ALLOC_ATTRS = frozenset({"zeros", "ones", "empty", "array", "full"})


@register
class AllocInHotLoopRule(_HotFunctionRule):
    """Per-iteration allocation inside a hot-path loop.

    Every object constructed in the loop body of a packet-rate function
    is churn the allocator (and GC) pays per packet; PR 4's wins came
    from hoisting exactly these.  Flags container/object construction,
    comprehensions, lambda/closure creation, bytes/str concatenation and
    string formatting inside For/While bodies of hot functions.
    """

    id = "alloc-in-hot-loop"
    description = ("object/list/dict/tuple construction, comprehensions, "
                   "lambda/closure creation, bytes concatenation and "
                   "f-string/% formatting inside hot-path loops; hoist or "
                   "reuse the buffer, or justify with "
                   "'# lint: hot-ok(<reason>)'")

    def check_project(self, project: Project) -> Iterable[Violation]:
        yield from super().check_project(project)
        # a hot-ok pragma with no reason is itself a violation (reported
        # once, by this rule, mirroring shard-mutable-global)
        for rel, info in project.modules.items():
            for line, why in sorted(hot_ok_pragmas(_module_lines(project, rel)).items()):
                if not why:
                    yield Violation(
                        self.id, rel, line, 0,
                        "hot-ok pragma without a reason; write "
                        "'# lint: hot-ok(<why this cost is acceptable on "
                        "the hot path>)'")

    def check_hot_function(self, project: Project, cg: CallGraph,
                           info: ModuleInfo, fn: FuncNode) -> Iterator[Violation]:
        seen: Set[int] = set()
        parents = _parent_map(fn.node)
        for loop in _loops_in(fn.node):
            # a loop living entirely inside an obs-guarded block only
            # runs in instrumented mode
            if _inside_obs_guard(loop, parents):
                continue
            for stmt in _unguarded_loop_stmts(loop.body + loop.orelse):
                # allocations feeding a raise/return leave the loop — not
                # per-iteration steady state
                if isinstance(stmt, (ast.Raise, ast.Return)):
                    continue
                # ``a, b = x, y`` compiles to pure stack ops: no tuple
                if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Tuple)
                        and isinstance(stmt.value, ast.Tuple)
                        and len(stmt.targets[0].elts) == len(stmt.value.elts)):
                    seen.add(id(stmt.value))
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if id(stmt) not in seen:
                        seen.add(id(stmt))
                        yield Violation(
                            self.id, fn.rel, stmt.lineno, stmt.col_offset,
                            "closure %r created per loop iteration in %s; "
                            "define it once outside the loop"
                            % (stmt.name, self._why_hot(cg, fn)))
                    continue
                for node in _own_exprs(stmt):
                    if id(node) in seen:
                        continue
                    label = self._alloc_label(project, info, node)
                    if label is None:
                        continue
                    seen.add(id(node))
                    yield Violation(
                        self.id, fn.rel, node.lineno, node.col_offset,
                        "%s per loop iteration in %s; hoist it out of the "
                        "loop or reuse a preallocated buffer"
                        % (label, self._why_hot(cg, fn)))

    def _alloc_label(self, project: Project, info: ModuleInfo,
                     node: ast.AST) -> Optional[str]:
        """Classify one expression node as a per-iteration allocation."""
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            return "comprehension allocates a fresh container"
        if isinstance(node, ast.Lambda):
            return "lambda created"
        if isinstance(node, (ast.List, ast.Set, ast.Dict)):
            return "%s literal allocated" % type(node).__name__.lower()
        if isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load) and node.elts:
            return "tuple constructed"
        if isinstance(node, ast.JoinedStr):
            return "f-string formatted"
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Mod) and self._is_str_constant(node.left):
                return "%-style string formatted"
            if isinstance(node.op, ast.Add) and (
                    self._is_bytes_like(node.left) or self._is_bytes_like(node.right)):
                return "bytes/str concatenation allocates"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in _ALLOC_CTORS:
                    return "%s() constructed" % func.id
                sd = project.resolve_callee(info, func)
                if sd is not None and sd.kind == "class":
                    return "%s object constructed" % func.id
                if func.id[:1].isupper():
                    return "%s object constructed" % func.id
            elif isinstance(func, ast.Attribute):
                chain = _dotted(func)
                if (chain is not None and len(chain) == 2
                        and chain[0] in ("np", "numpy")
                        and chain[1] in _NP_ALLOC_ATTRS):
                    return "np.%s array allocated" % chain[1]
                if func.attr == "format" and self._is_str_constant(func.value):
                    return "str.format() formatted"
        return None

    @staticmethod
    def _is_str_constant(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    @staticmethod
    def _is_bytes_like(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and isinstance(node.value, (bytes, str))


#: struct-module functions that re-parse their format string per call.
_STRUCT_FUNCS = frozenset({"pack", "unpack", "pack_into", "unpack_from",
                           "calcsize"})


@register
class SlowIdiomRule(_HotFunctionRule):
    """Known-slow idioms anywhere in a hot function.

    These are constant-factor sinks, not asymptotic ones (see
    ``hidden-quadratic`` for those): ``list.pop(0)`` shifts the whole
    list, a membership test on a list scans it, bare ``struct.pack``
    re-parses the format string every call, a multi-hop attribute chain
    re-dereferenced in a loop body pays the lookups per iteration, and
    try/except in a tight loop adds per-iteration setup.
    """

    id = "slow-idiom"
    description = ("list.pop(0), membership tests on lists, non-precompiled "
                   "struct.pack/unpack, repeated multi-hop attribute chains "
                   "and try/except inside hot loops; use deque/set/"
                   "struct.Struct/local bindings, or justify with "
                   "'# lint: hot-ok(<reason>)'")

    def check_hot_function(self, project: Project, cg: CallGraph,
                           info: ModuleInfo, fn: FuncNode) -> Iterator[Violation]:
        why = self._why_hot(cg, fn)
        list_locals = self._list_locals(fn.node)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if (node.func.attr == "pop" and len(node.args) == 1
                        and isinstance(node.args[0], ast.Constant)
                        and node.args[0].value == 0):
                    yield Violation(
                        self.id, fn.rel, node.lineno, node.col_offset,
                        "list.pop(0) shifts every element, in %s; use "
                        "collections.deque and popleft()" % why)
                chain = _dotted(node.func)
                if (chain is not None and len(chain) == 2
                        and chain[0] == "struct" and chain[1] in _STRUCT_FUNCS):
                    yield Violation(
                        self.id, fn.rel, node.lineno, node.col_offset,
                        "struct.%s() re-parses its format string on every "
                        "call, in %s; hoist a module-level struct.Struct "
                        "and call its bound method" % (chain[1], why))
            elif isinstance(node, ast.Compare):
                for op, comparator in zip(node.ops, node.comparators):
                    if not isinstance(op, (ast.In, ast.NotIn)):
                        continue
                    if isinstance(comparator, ast.List) or (
                            isinstance(comparator, ast.Name)
                            and comparator.id in list_locals):
                        yield Violation(
                            self.id, fn.rel, node.lineno, node.col_offset,
                            "membership test scans a list, in %s; use a "
                            "set (or frozenset constant)" % why)
        seen_try: Set[int] = set()
        for loop in _loops_in(fn.node):
            yield from self._repeated_chains(fn, loop, why)
            for stmt in _loop_stmts(loop.body + loop.orelse):
                if isinstance(stmt, ast.Try) and id(stmt) not in seen_try:
                    seen_try.add(id(stmt))
                    yield Violation(
                        self.id, fn.rel, stmt.lineno, stmt.col_offset,
                        "try/except inside a hot loop, in %s; hoist the "
                        "try outside the loop or pre-validate the input"
                        % why)

    @staticmethod
    def _list_locals(fn_node: ast.AST) -> Set[str]:
        """Names bound to list values within the function."""
        out: Set[str] = set()
        for node in ast.walk(fn_node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            value = node.value
            is_list = isinstance(value, (ast.List, ast.ListComp)) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "list")
            if is_list:
                out.add(node.targets[0].id)
        return out

    def _repeated_chains(self, fn: FuncNode, loop: ast.AST,
                         why: str) -> Iterator[Violation]:
        """Multi-hop attribute chains read >= 2 times in one loop body."""
        counts: Dict[Tuple[str, ...], List[ast.AST]] = {}
        for stmt in _loop_stmts(loop.body + loop.orelse):
            for node in _own_exprs(stmt):
                if not (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    continue
                chain = _dotted(node)
                if chain is None or len(chain) < 3:
                    continue
                counts.setdefault(chain, []).append(node)
        for chain, nodes in sorted(counts.items()):
            # drop sub-chains of a longer counted chain (a.b.c.d also
            # walks a.b.c); report the longest form only
            if any(other != chain and other[:len(chain)] == chain
                   for other in counts):
                continue
            if len(nodes) < 2:
                continue
            first = min(nodes, key=lambda n: (n.lineno, n.col_offset))
            yield Violation(
                self.id, fn.rel, first.lineno, first.col_offset,
                "attribute chain %s dereferenced %d times in this loop "
                "body, in %s; bind it to a local before the loop"
                % (".".join(chain), len(nodes), why))


@register
class HiddenQuadraticRule(_HotFunctionRule):
    """Accidentally-quadratic loops in hot functions.

    ``acc += piece`` on a list/bytes/str accumulator copies the whole
    accumulator per iteration — O(n²) disguised as an append — and a
    nested loop over the same collection is O(n²) by construction.
    """

    id = "hidden-quadratic"
    description = ("+= on list/bytes/str accumulators inside loops and "
                   "nested iteration over the same collection; collect "
                   "into a list and join/extend once, or justify with "
                   "'# lint: hot-ok(<reason>)'")

    def check_hot_function(self, project: Project, cg: CallGraph,
                           info: ModuleInfo, fn: FuncNode) -> Iterator[Violation]:
        why = self._why_hot(cg, fn)
        acc_types = self._accumulator_types(fn.node)
        seen: Set[int] = set()
        for loop in _loops_in(fn.node):
            for stmt in _loop_stmts(loop.body + loop.orelse):
                if id(stmt) in seen:
                    continue
                target: Optional[str] = None
                if (isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Add)
                        and isinstance(stmt.target, ast.Name)):
                    target = stmt.target.id
                elif (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                      and isinstance(stmt.targets[0], ast.Name)
                      and isinstance(stmt.value, ast.BinOp)
                      and isinstance(stmt.value.op, ast.Add)
                      and isinstance(stmt.value.left, ast.Name)
                      and stmt.value.left.id == stmt.targets[0].id):
                    target = stmt.targets[0].id
                if target is not None and target in acc_types:
                    seen.add(id(stmt))
                    yield Violation(
                        self.id, fn.rel, stmt.lineno, stmt.col_offset,
                        "'%s += ...' on a %s accumulator in a loop copies "
                        "the whole accumulator per iteration (quadratic), "
                        "in %s; append parts and join/extend once after "
                        "the loop" % (target, acc_types[target], why))
            yield from self._nested_same_iter(fn, loop, why, seen)

    @staticmethod
    def _accumulator_types(fn_node: ast.AST) -> Dict[str, str]:
        """name -> kind for locals initialised as list/bytes/str."""
        out: Dict[str, str] = {}
        for node in ast.walk(fn_node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            name = node.targets[0].id
            value = node.value
            if isinstance(value, (ast.List, ast.ListComp)):
                out.setdefault(name, "list")
            elif isinstance(value, ast.Constant) and isinstance(value.value, bytes):
                out.setdefault(name, "bytes")
            elif isinstance(value, ast.Constant) and isinstance(value.value, str):
                out.setdefault(name, "str")
            elif (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                  and value.func.id in ("list", "bytes", "str")):
                out.setdefault(name, value.func.id)
        return out

    def _nested_same_iter(self, fn: FuncNode, loop: ast.AST, why: str,
                          seen: Set[int]) -> Iterator[Violation]:
        if not isinstance(loop, (ast.For, ast.AsyncFor)):
            return
        outer_iter = self._iter_key(loop.iter)
        if outer_iter is None:
            return
        for stmt in _loop_stmts(loop.body + loop.orelse):
            if (isinstance(stmt, (ast.For, ast.AsyncFor))
                    and id(stmt) not in seen
                    and self._iter_key(stmt.iter) == outer_iter):
                seen.add(id(stmt))
                yield Violation(
                    self.id, fn.rel, stmt.lineno, stmt.col_offset,
                    "nested iteration over %s inside a loop over the same "
                    "collection is O(n^2), in %s; restructure (index map, "
                    "sort, or single pass)"
                    % (".".join(outer_iter), why))

    @staticmethod
    def _iter_key(node: ast.AST) -> Optional[Tuple[str, ...]]:
        """Identity of an iterable expression, when nameable."""
        chain = _dotted(node)
        if chain is not None:
            return chain
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("items", "keys", "values") and not node.args):
            return _dotted(node.func.value)
        return None


#: Observability receivers and the methods that build payloads per call.
#: ``tel.event/count/observe/set_gauge`` is deliberately absent: the
#: per-file ``telemetry-guard`` rule owns those sites everywhere.
_OBS_RECEIVERS = re.compile(r"(?:^|_)(?:spans?|tracer|logger|log)$")
_OBS_METHODS = frozenset({
    # span API (repro.obs.spans)
    "start", "end", "span", "annotate", "start_span", "end_span", "record",
    # stdlib-style logging
    "debug", "info", "warning", "error", "exception",
})


@register
class UnguardedHotCallRule(_HotFunctionRule):
    """Observability calls on the hot path must be guard-gated.

    The obs layer provides null singletons (``NULL_SPANS``,
    ``NULL_TELEMETRY``) with an ``enabled`` flag precisely so disabled
    observability costs one branch; an unguarded ``spans.start(...)`` or
    ``logger.debug("%s", pkt)`` in a packet-rate function pays argument
    construction per packet even when the sink is off.
    """

    id = "unguarded-hot-call"
    description = ("logging/span calls in hot functions need an enclosing "
                   "'if x.enabled:' / 'is not None' / truthiness guard so "
                   "the disabled path stays one branch; or justify with "
                   "'# lint: hot-ok(<reason>)'")
    #: The obs layer implements the guarded APIs; it may call itself.
    exempt = ("src/repro/obs/",)

    def check_hot_function(self, project: Project, cg: CallGraph,
                           info: ModuleInfo, fn: FuncNode) -> Iterator[Violation]:
        why = self._why_hot(cg, fn)
        parents = _parent_map(fn.node)
        for node in ast.walk(fn.node):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr not in _OBS_METHODS:
                continue
            receiver = node.func.value
            rchain = _dotted(receiver)
            if rchain is None or not _OBS_RECEIVERS.search(rchain[-1]):
                continue
            if self._guarded(node, parents, rchain):
                continue
            yield Violation(
                self.id, fn.rel, node.lineno, node.col_offset,
                "unguarded observability call %s.%s() in %s; wrap it in "
                "'if %s.enabled:' (or an 'is not None' / truthiness check) "
                "so the disabled path costs one branch"
                % (".".join(rchain), node.func.attr, why, ".".join(rchain)))

    def _guarded(self, call: ast.AST, parents: Dict[int, ast.AST],
                 rchain: Tuple[str, ...]) -> bool:
        node = call
        while id(node) in parents:
            node = parents[id(node)]
            if isinstance(node, (ast.If, ast.IfExp)) and self._test_guards(
                    node.test, rchain):
                return True
        return False

    @staticmethod
    def _test_guards(test: ast.AST, rchain: Tuple[str, ...]) -> bool:
        # bare truthiness of the receiver (or a prefix of it)
        chain = _dotted(test)
        if chain is not None and (chain == rchain or rchain[:len(chain)] == chain):
            return True
        for sub in ast.walk(test):
            if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
                return True
            if isinstance(sub, ast.Compare):
                ops_none = any(isinstance(o, (ast.Is, ast.IsNot)) for o in sub.ops)
                mentions_none = any(
                    isinstance(c, ast.Constant) and c.value is None
                    for c in [sub.left] + list(sub.comparators))
                if ops_none and mentions_none:
                    return True
        return False
