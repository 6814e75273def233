"""The paper-constants registry: XNC's numeric contract, machine-checked.

CellFusion's correctness rests on a handful of numbers and shapes the
paper fixes explicitly (§4.3–§4.5, Theorem 4.1).  This module declares
them once, with their paper references, and the ``constant-drift``
rule (:mod:`tools.lint.xrules`) statically cross-checks every module-level
constant and dataclass-field default in the tree against the registry —
so a refactor that quietly turns ``t_expire`` into 0.5 s or widens ``ρ``
past 1.2 fails lint before it skews a single figure.

Checked contract items:

======================  =====================================  ==========
key                     contract                               paper
======================  =====================================  ==========
``t-expire``            ``t_expire = 0.7 s``                   §4.4.3
``recovery-extra``      ``n' = n + 3`` (``k = 3``)             §4.5.1
``recovery-shape``      ``n' = 1`` when ``n == 1``             §4.5.1
``rho-bound``           ``1 < ρ < 1.2``                        §4.5.2
``gf-field``            GF(2^8): order 256, poly 0x11B, g=3    §4.3.1
``xnc-header``          12-byte ``XNC_Header`` (three u32)     §4.3.2
``loss-threshold``      ``min(app_threshold, PTO)``, 120 ms    §4.4.1
``range-borders``       ``r = 10`` packets / ``t = 60 ms``     §4.4.2
======================  =====================================  ==========

Value bindings are matched **by name**: any assignment or dataclass field
called e.g. ``t_expire`` (or its module-constant spelling
``DEFAULT_EXPIRY``) anywhere in scope must satisfy the predicate.  A
default written as a *name* (``rho: float = DEFAULT_RHO``) is resolved
one hop through the defining module's constants, so indirection cannot
hide drift.  *Anchors* pin the canonical definitions: if the anchoring
module is part of the project and the binding is missing, that is itself
a violation — the registry must never silently lose its subject.
"""

from __future__ import annotations

import ast
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "ConstantBinding",
    "PaperConstant",
    "REGISTRY",
    "Finding",
    "check_project_constants",
]


@dataclass(frozen=True)
class ConstantBinding:
    """One name whose default value the registry constrains."""

    name: str
    expected: str
    predicate: Callable[[object], bool]


@dataclass(frozen=True)
class PaperConstant:
    """One contract item: bindings, anchors, optional structural check."""

    key: str
    contract: str
    paper_ref: str
    bindings: Tuple[ConstantBinding, ...] = ()
    #: (dotted module, binding name) pairs that must exist when the module
    #: is part of the linted project.
    anchors: Tuple[Tuple[str, str], ...] = ()
    #: Optional shape check run against a project module's AST; returns
    #: findings as (line, col, message) anchored in ``structural_module``.
    structural_module: str = ""
    structural: Optional[Callable[[ast.Module], List[Tuple[int, int, str]]]] = None


@dataclass(frozen=True)
class Finding:
    rel: str
    line: int
    col: int
    message: str


def _approx(expected: float, tol: float = 1e-9) -> Callable[[object], bool]:
    return lambda v: isinstance(v, (int, float)) and abs(float(v) - expected) <= tol


def _exactly(expected: object) -> Callable[[object], bool]:
    return lambda v: v == expected


def _open_interval(lo: float, hi: float) -> Callable[[object], bool]:
    return lambda v: isinstance(v, (int, float)) and lo < float(v) < hi


# -- structural checks ---------------------------------------------------------


def _check_coded_count_shape(tree: ast.Module) -> List[Tuple[int, int, str]]:
    """``coded_packet_count`` must return 1 for n == 1 and n + extra else."""
    func = None
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "coded_packet_count":
            func = node
            break
    if func is None:
        return [(1, 0, "coded_packet_count() (n' = n + 3 rule, §4.5.1) is missing")]
    returns_one = False
    returns_sum = False
    for node in ast.walk(func):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        value = node.value
        if isinstance(value, ast.Constant) and value.value == 1:
            returns_one = True
        if (isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add)
                and any(isinstance(side, ast.Name) and side.id == "n"
                        for side in (value.left, value.right))):
            returns_sum = True
    out = []
    if not returns_one:
        out.append((func.lineno, func.col_offset,
                    "coded_packet_count() lost the n == 1 -> n' = 1 special "
                    "case (§4.5.1: a single original needs no decoding)"))
    if not returns_sum:
        out.append((func.lineno, func.col_offset,
                    "coded_packet_count() no longer returns n + extra "
                    "(Theorem 4.1: n' = n + k with k = 3)"))
    return out


def _check_loss_threshold_shape(tree: ast.Module) -> List[Tuple[int, int, str]]:
    """``QoeLossPolicy.threshold`` must take min(app_threshold, PTO)."""
    cls = None
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "QoeLossPolicy":
            cls = node
            break
    if cls is None:
        return [(1, 0, "QoeLossPolicy (min(app_threshold, PTO) rule, §4.4.1) "
                       "is missing")]
    method = next((n for n in cls.body
                   if isinstance(n, ast.FunctionDef) and n.name == "threshold"), None)
    if method is None:
        return [(cls.lineno, cls.col_offset,
                 "QoeLossPolicy.threshold() is missing — the QoE-aware loss "
                 "rule is min(app_threshold, PTO) (§4.4.1)")]
    has_min = any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "min"
        for node in ast.walk(method))
    if not has_min:
        return [(method.lineno, method.col_offset,
                 "QoeLossPolicy.threshold() no longer takes "
                 "min(app_threshold, PTO) (§4.4.1)")]
    return []


#: The canonical XNC contract.
REGISTRY: Tuple[PaperConstant, ...] = (
    PaperConstant(
        key="t-expire",
        contract="t_expire = 0.7 s",
        paper_ref="§4.4.3",
        bindings=(
            ConstantBinding("t_expire", "0.7", _approx(0.7)),
            ConstantBinding("DEFAULT_EXPIRY", "0.7", _approx(0.7)),
        ),
        anchors=(("repro.core.ranges", "DEFAULT_EXPIRY"),),
    ),
    PaperConstant(
        key="recovery-extra",
        contract="n' = n + 3 (k = 3 extra coded packets)",
        paper_ref="§4.5.1, Theorem 4.1",
        bindings=(
            ConstantBinding("extra_packets", "3", _exactly(3)),
            ConstantBinding("DEFAULT_EXTRA_PACKETS", "3", _exactly(3)),
        ),
        anchors=(("repro.core.recovery", "DEFAULT_EXTRA_PACKETS"),),
    ),
    PaperConstant(
        key="recovery-shape",
        contract="n' = 1 when n == 1, else n + extra",
        paper_ref="§4.5.1",
        structural_module="repro.core.recovery",
        structural=_check_coded_count_shape,
    ),
    PaperConstant(
        key="rho-bound",
        contract="1 < rho < 1.2 (per-path spread cap)",
        paper_ref="§4.5.2",
        bindings=(
            ConstantBinding("rho", "in (1, 1.2)", _open_interval(1.0, 1.2)),
            ConstantBinding("DEFAULT_RHO", "in (1, 1.2)", _open_interval(1.0, 1.2)),
        ),
        anchors=(("repro.core.recovery", "DEFAULT_RHO"),),
    ),
    PaperConstant(
        key="gf-field",
        contract="GF(2^8): order 256, AES polynomial 0x11B, generator 3",
        paper_ref="§4.3.1 (m = 8)",
        bindings=(
            ConstantBinding("GF_ORDER", "256", _exactly(256)),
            ConstantBinding("GF_POLY", "0x11B", _exactly(0x11B)),
            ConstantBinding("GF_GENERATOR", "3", _exactly(3)),
        ),
        anchors=(
            ("repro.core.gf256", "GF_ORDER"),
            ("repro.core.gf256", "GF_POLY"),
            ("repro.core.gf256", "GF_GENERATOR"),
        ),
    ),
    PaperConstant(
        key="xnc-header",
        contract="XNC_Header is 12 bytes: packetCount, randomSeed, startID as u32",
        paper_ref="§4.3.2, Fig. 6",
        bindings=(
            ConstantBinding("XNC_HEADER", "12-byte struct", _exactly(12)),
        ),
        anchors=(("repro.core.frames", "XNC_HEADER"),),
    ),
    PaperConstant(
        key="loss-threshold",
        contract="loss threshold = min(app_threshold, PTO); app_threshold 120 ms",
        paper_ref="§4.4.1",
        bindings=(
            ConstantBinding("app_threshold", "0.120", _approx(0.120)),
        ),
        anchors=(("repro.core.loss_detection", "QoeLossPolicy"),),
        structural_module="repro.core.loss_detection",
        structural=_check_loss_threshold_shape,
    ),
    PaperConstant(
        key="range-borders",
        contract="range borders: r = 10 packets, t = 60 ms span",
        paper_ref="§4.4.2",
        bindings=(
            ConstantBinding("max_packets", "10", _exactly(10)),
            ConstantBinding("DEFAULT_MAX_RANGE_PACKETS", "10", _exactly(10)),
            ConstantBinding("max_span", "0.060", _approx(0.060)),
            ConstantBinding("DEFAULT_MAX_RANGE_SPAN", "0.060", _approx(0.060)),
        ),
        anchors=(
            ("repro.core.ranges", "DEFAULT_MAX_RANGE_PACKETS"),
            ("repro.core.ranges", "DEFAULT_MAX_RANGE_SPAN"),
        ),
    ),
)

#: binding name -> (constant, binding) for fast lookup during the scan.
_BINDING_INDEX: Dict[str, Tuple[PaperConstant, ConstantBinding]] = {}
for _const in REGISTRY:
    for _b in _const.bindings:
        _BINDING_INDEX[_b.name] = (_const, _b)


def _literal_value(node: ast.AST, module_consts: Dict[str, ast.AST]) -> Optional[object]:
    """Evaluate a default-value expression to a comparable constant.

    Handles literals, unary +/-, one hop of name indirection through the
    module's own constants, and ``struct.Struct("...")`` (evaluating to
    its byte size, which is how the XNC_Header width is checked).
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _literal_value(node.operand, module_consts)
        if isinstance(inner, (int, float)):
            return -inner if isinstance(node.op, ast.USub) else inner
        return None
    if isinstance(node, ast.Name):
        target = module_consts.get(node.id)
        if target is not None and not isinstance(target, ast.Name):
            return _literal_value(target, module_consts)
        return None
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "Struct" and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)):
        try:
            return struct.calcsize(node.args[0].value)
        except struct.error:
            return None
    return None


def _module_consts(tree: ast.Module) -> Dict[str, ast.AST]:
    out: Dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    out[tgt.id] = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.value is not None:
                out[node.target.id] = node.value
    return out


def _iter_default_bindings(tree: ast.Module):
    """Yield (name, value-node, anchor-node) for every checked default.

    Covers module-level assignments and class-body (dataclass field)
    defaults.  Call-site keyword arguments are deliberately *not*
    checked: experiments sweep these knobs on purpose (ablations pass
    ``t_expire=0.2``); only *defaults* define the contract.
    """
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    yield tgt.id, node.value, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.value is not None:
                yield node.target.id, node.value, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    if item.value is not None:
                        yield item.target.id, item.value, item
                elif isinstance(item, ast.Assign):
                    for tgt in item.targets:
                        if isinstance(tgt, ast.Name):
                            yield tgt.id, item.value, item


def check_project_constants(project) -> List[Finding]:
    """Cross-check every module in ``project`` against :data:`REGISTRY`."""
    findings: List[Finding] = []
    for rel, info in project.modules.items():
        consts = _module_consts(info.tree)
        for name, value_node, anchor in _iter_default_bindings(info.tree):
            entry = _BINDING_INDEX.get(name)
            if entry is None:
                continue
            const, binding = entry
            value = _literal_value(value_node, consts)
            if value is None:
                continue
            if not binding.predicate(value):
                findings.append(Finding(
                    rel, anchor.lineno, anchor.col_offset,
                    "%s = %r drifts from the paper contract '%s' "
                    "(expected %s, %s)" % (name, value, const.contract,
                                           binding.expected, const.paper_ref)))
    # anchors: the canonical definitions must exist where they live
    for const in REGISTRY:
        for module_name, symbol in const.anchors:
            origin = project.by_name.get(module_name)
            if origin is None:
                continue
            if symbol not in origin.symbols:
                findings.append(Finding(
                    origin.rel, 1, 0,
                    "registry anchor %s.%s for '%s' (%s) is gone — the "
                    "paper contract lost its definition" % (
                        module_name, symbol, const.contract, const.paper_ref)))
        if const.structural is not None and const.structural_module:
            origin = project.by_name.get(const.structural_module)
            if origin is not None:
                for line, col, message in const.structural(origin.tree):
                    findings.append(Finding(origin.rel, line, col, message))
    return findings
