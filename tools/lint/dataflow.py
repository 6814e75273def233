"""Units-of-measure dataflow for the ``unit-mix`` rule.

A tiny intra-procedural abstract interpretation over a flat units
lattice::

            MIXED            (conflict — two different concrete units met)
       /   /  |   \\   \\
    seconds ms bytes packets gf-symbols      (concrete units)
       \\   \\  |   /   /
            UNKNOWN          (no information — literals, unanalyzed calls)

Units are seeded three ways, in increasing priority:

1. **naming conventions** — ``*_ms`` is milliseconds, ``*_bytes`` bytes,
   ``*_packets``/``*_pkts`` packets, ``*_symbols`` GF-symbols, and the
   repo's time vocabulary (``now``, ``*_time``, ``deadline``, ``rtt``,
   ``t_expire``, ...) is sim-seconds — the event loop's native unit;
2. **annotations** — a parameter or variable annotated ``float`` carries
   no unit, but an annotation whose *name* matches the conventions does
   (``delay_ms: float``);
3. **the explicit table** — :data:`UNIT_ANNOTATIONS` pins ambiguous
   names per module (or ``*`` for everywhere), overriding the heuristics.

Propagation is a single forward pass per function body: assignments copy
the unit of their right-hand side, ``+``/``-`` preserve the operand unit,
``*``/``/`` erase it (they change dimension: ``seconds * rate`` is not
seconds).  Two *different concrete* units meeting in ``+``/``-``, an
ordering/equality comparison, or a resolved call argument is a conflict —
the ``unit-mix`` rule in :mod:`tools.lint.xrules` reports each one.
``UNKNOWN`` never conflicts, so unannotated code stays silent instead of
noisy.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "SECONDS",
    "MILLISECONDS",
    "BYTES",
    "PACKETS",
    "GF_SYMBOLS",
    "UNKNOWN",
    "MIXED",
    "CONCRETE_UNITS",
    "UNIT_ANNOTATIONS",
    "join",
    "unit_of_name",
    "UnitConflict",
    "FunctionUnits",
    "analyze_module_units",
    "infer_param_units",
]

SECONDS = "seconds"
MILLISECONDS = "milliseconds"
BYTES = "bytes"
PACKETS = "packets"
GF_SYMBOLS = "gf-symbols"
#: Lattice bottom: no information.  Represented as ``None``.
UNKNOWN = None
#: Lattice top: two different concrete units met.
MIXED = "mixed"

CONCRETE_UNITS = (SECONDS, MILLISECONDS, BYTES, PACKETS, GF_SYMBOLS)

#: Explicit unit pins for names the conventions cannot classify.  Keyed by
#: dotted module name (or ``*`` for every module); values map a bare
#: variable/parameter/attribute name to its unit.  Entries here override
#: the naming heuristics — the escape hatch for ambiguous vocabulary.
UNIT_ANNOTATIONS: Dict[str, Dict[str, Optional[str]]] = {
    "*": {
        # §4.4.2 / §4.4.3 contract names are sim-seconds by definition
        "t_expire": SECONDS,
        "max_span": SECONDS,
        "span": SECONDS,
        "app_threshold": SECONDS,
        "max_ack_delay": SECONDS,
        "granularity": SECONDS,
        "smoothed_rtt": SECONDS,
        "rtt_var": SECONDS,
        # counters the suffix rules cannot see
        "n_lost": PACKETS,
        "n_coded": PACKETS,
        "max_packets": PACKETS,
        "mtu": BYTES,
        # ``length`` in this repo is the UDP/IP header field — bytes
        "length": BYTES,
    },
}

#: Suffix conventions, tried in order (longest first wins).
_SUFFIX_UNITS: Tuple[Tuple[str, str], ...] = (
    ("_milliseconds", MILLISECONDS),
    ("_millis", MILLISECONDS),
    ("_msec", MILLISECONDS),
    ("_ms", MILLISECONDS),
    ("_seconds", SECONDS),
    ("_secs", SECONDS),
    ("_sec", SECONDS),
    ("_bytes", BYTES),
    ("_octets", BYTES),
    ("_packets", PACKETS),
    ("_pkts", PACKETS),
    ("_symbols", GF_SYMBOLS),
    ("_syms", GF_SYMBOLS),
)

#: The repo's sim-time vocabulary: these read as seconds on the event loop.
_TIME_NAME = re.compile(
    r"(?:^|_)(now|time|timestamp|deadline|expiry|expires?|rtt|srtt|timeout|"
    r"delay|interval|duration|span|ttl_s|t_expire)$|(?:_time|_at|_ts)$"
)


def unit_of_name(name: str, module: str = "*") -> Optional[str]:
    """Unit implied by a bare name, honouring the annotation table."""
    for scope in (module, "*"):
        table = UNIT_ANNOTATIONS.get(scope)
        if table and name in table:
            return table[name]
    lower = name.lower()
    for suffix, unit in _SUFFIX_UNITS:
        if lower.endswith(suffix) and lower != suffix:
            return unit
    if _TIME_NAME.search(lower):
        return SECONDS
    return UNKNOWN


def join(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """Lattice join: UNKNOWN is the identity, disagreement is MIXED."""
    if a is UNKNOWN:
        return b
    if b is UNKNOWN:
        return a
    if a == b:
        return a
    return MIXED


@dataclass(frozen=True)
class UnitConflict:
    """Two concrete units met where one was required."""

    line: int
    col: int
    kind: str  # "arith" | "compare" | "call-arg"
    left: str
    right: str
    detail: str


def infer_param_units(func: ast.AST, module: str) -> Dict[str, Optional[str]]:
    """Parameter name -> unit for a function def (names + annotation table)."""
    units: Dict[str, Optional[str]] = {}
    args = func.args
    all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    for a in all_args:
        units[a.arg] = unit_of_name(a.arg, module)
    return units


class FunctionUnits:
    """One forward pass over a function (or module) body."""

    def __init__(self, project, info, func: Optional[ast.AST] = None):
        self.project = project
        self.info = info
        self.module = info.name
        self.func = func
        self.env: Dict[str, Optional[str]] = {}
        self.conflicts: List[UnitConflict] = []
        self._seen: set = set()
        if func is not None:
            self.env.update(infer_param_units(func, self.module))

    # -- expression units ------------------------------------------------------

    def unit_of(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return unit_of_name(node.id, self.module)
        if isinstance(node, ast.Attribute):
            return unit_of_name(node.attr, self.module)
        if isinstance(node, ast.Constant):
            return UNKNOWN
        if isinstance(node, ast.BinOp):
            left = self.unit_of(node.left)
            right = self.unit_of(node.right)
            if isinstance(node.op, (ast.Add, ast.Sub)):
                self._check_pair(node, "arith", left, right,
                                 "+" if isinstance(node.op, ast.Add) else "-")
                joined = join(left, right)
                return joined if joined != MIXED else UNKNOWN
            # *, /, //, %, ** change dimension — no unit survives
            return UNKNOWN
        if isinstance(node, ast.UnaryOp):
            return self.unit_of(node.operand)
        if isinstance(node, ast.IfExp):
            joined = join(self.unit_of(node.body), self.unit_of(node.orelse))
            return joined if joined != MIXED else UNKNOWN
        if isinstance(node, ast.Call):
            return self._call_unit(node)
        return UNKNOWN

    def _call_unit(self, node: ast.Call) -> Optional[str]:
        func = node.func
        fname = None
        if isinstance(func, ast.Name):
            fname = func.id
        elif isinstance(func, ast.Attribute):
            fname = func.attr
        if fname in ("min", "max"):
            unit = UNKNOWN
            for arg in node.args:
                unit = join(unit, self.unit_of(arg))
            return unit if unit != MIXED else UNKNOWN
        if fname is not None:
            return unit_of_name(fname, self.module)
        return UNKNOWN

    def _check_pair(self, node: ast.AST, kind: str, left: Optional[str],
                    right: Optional[str], detail: str) -> None:
        if left in (UNKNOWN, MIXED) or right in (UNKNOWN, MIXED):
            return
        if left != right:
            self._record(UnitConflict(
                getattr(node, "lineno", 1), getattr(node, "col_offset", 0),
                kind, left, right, detail))

    def _record(self, conflict: UnitConflict) -> None:
        # the same expression can be reached both by the statement sweep
        # and by unit_of() recursion — record each conflict once
        if conflict not in self._seen:
            self._seen.add(conflict)
            self.conflicts.append(conflict)

    # -- statement walk --------------------------------------------------------

    def run(self) -> List[UnitConflict]:
        body = self.func.body if self.func is not None else self.info.tree.body
        self._visit_body(body)
        return self.conflicts

    def _visit_body(self, body) -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.AST) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes get their own pass
        if isinstance(stmt, ast.Assign):
            unit = self.unit_of(stmt.value)
            for tgt in stmt.targets:
                self._bind_target(tgt, unit)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None and isinstance(stmt.target, ast.Name):
                declared = unit_of_name(stmt.target.id, self.module)
                inferred = self.unit_of(stmt.value)
                self._check_pair(stmt, "arith", declared, inferred, "annotated assign")
                self.env[stmt.target.id] = declared if declared is not UNKNOWN else inferred
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.op, (ast.Add, ast.Sub)) and isinstance(stmt.target, ast.Name):
                left = self.unit_of(stmt.target)
                right = self.unit_of(stmt.value)
                self._check_pair(stmt, "arith", left, right, "augmented assign")
        # sweep this statement's own expressions (not nested statements)
        for expr in self._header_exprs(stmt):
            for node in ast.walk(expr):
                if isinstance(node, ast.Lambda):
                    continue
                if isinstance(node, ast.Compare):
                    operands = [node.left] + list(node.comparators)
                    for i, op in enumerate(node.ops):
                        if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)):
                            self._check_pair(
                                node, "compare",
                                self.unit_of(operands[i]), self.unit_of(operands[i + 1]),
                                "comparison")
                elif isinstance(node, ast.Call):
                    self._check_call_args(node)
                elif isinstance(node, ast.BinOp):
                    self.unit_of(node)  # records arith conflicts as a side effect
        # descend into compound statements
        for attr in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, attr, None)
            if sub:
                self._visit_body(sub)
        for handler in getattr(stmt, "handlers", ()) or ():
            self._visit_body(handler.body)

    @staticmethod
    def _header_exprs(stmt: ast.AST) -> List[ast.AST]:
        """Expression children of a statement, excluding nested statements."""
        out: List[ast.AST] = []
        for field_name, value in ast.iter_fields(stmt):
            if field_name in ("body", "orelse", "finalbody", "handlers"):
                continue
            if isinstance(value, ast.expr):
                out.append(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.expr):
                        out.append(item)
                    elif isinstance(item, ast.withitem):
                        out.append(item.context_expr)
        return out

    def _bind_target(self, tgt: ast.AST, unit: Optional[str]) -> None:
        if isinstance(tgt, ast.Name):
            declared = unit_of_name(tgt.id, self.module)
            if declared is not UNKNOWN and unit is not UNKNOWN and declared != unit:
                self.conflicts.append(UnitConflict(
                    tgt.lineno, tgt.col_offset, "arith", declared, unit,
                    "assignment to %s" % tgt.id))
            self.env[tgt.id] = declared if declared is not UNKNOWN else unit

    def _check_call_args(self, node: ast.Call) -> None:
        callee = self.project.resolve_callee(self.info, node.func) if self.project else None
        if callee is None or callee.kind != "function":
            return
        func_def = callee.node
        params = infer_param_units(func_def, callee.module)
        names = [a.arg for a in
                 list(func_def.args.posonlyargs) + list(func_def.args.args)]
        offset = 0
        if names and names[0] in ("self", "cls"):
            names = names[1:]
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred) or i >= len(names):
                break
            self._flag_arg(node, names[i], params.get(names[i]), arg)
        for kw in node.keywords:
            if kw.arg is not None and kw.arg in params:
                self._flag_arg(node, kw.arg, params[kw.arg], kw.value)

    def _flag_arg(self, call: ast.Call, pname: str, punit: Optional[str],
                  arg: ast.AST) -> None:
        if punit in (UNKNOWN, MIXED):
            return
        aunit = self.unit_of(arg)
        if aunit in (UNKNOWN, MIXED):
            return
        if aunit != punit:
            self.conflicts.append(UnitConflict(
                getattr(arg, "lineno", call.lineno),
                getattr(arg, "col_offset", call.col_offset),
                "call-arg", punit, aunit,
                "argument %r" % pname))


def analyze_module_units(project, info) -> List[UnitConflict]:
    """All unit conflicts in one module: module body + every function."""
    conflicts = FunctionUnits(project, info).run()
    for func in info.functions:
        conflicts.extend(FunctionUnits(project, info, func).run())
    return conflicts
