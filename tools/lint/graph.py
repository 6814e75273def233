"""Whole-program infrastructure for the project-level lint rules.

:class:`Project` turns the flat list of parsed modules the engine already
holds into the three structures the cross-module rules in
``tools.lint.xrules`` need:

* a **module map** — repo-relative path -> :class:`ModuleInfo`, with each
  file resolved to its dotted module name (``src/repro/core/ranges.py``
  -> ``repro.core.ranges``, ``tests/test_lint.py`` -> ``tests.test_lint``);
* an **import graph** — directed edges between project modules, split
  into top-level imports (which execute at import time and can deadlock
  in a cycle) and deferred function-body imports (which cannot);
* a **symbol table** — every top-level def/class/assignment per module,
  its ``__all__`` exports, and the cross-module *references*: from-import
  bindings, dotted attribute reads through imported module aliases, and
  star-imports.  Package ``__init__`` re-exports are recorded as aliases
  so that reachability propagates through ``repro -> repro.core ->
  repro.core.ranges`` chains instead of counting the re-export itself as
  a use.

Everything here is derived purely from the ASTs the engine parsed — no
project code is imported, so a broken module cannot break the analyzer.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

__all__ = [
    "module_name_for",
    "ImportEdge",
    "SymbolDef",
    "ModuleInfo",
    "Project",
    "strongly_connected_components",
]

#: Path prefixes stripped when mapping a file to its dotted module name.
_SRC_PREFIXES = ("src/",)


def module_name_for(rel: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/`` is a roots-only directory, so it is stripped; every other
    top-level directory (``tools``, ``tests``, ``benchmarks``, ...) is
    part of the name.  ``__init__.py`` maps to the package itself.
    """
    rel = rel.replace("\\", "/")
    for prefix in _SRC_PREFIXES:
        if rel.startswith(prefix):
            rel = rel[len(prefix):]
            break
    if rel.endswith(".py"):
        rel = rel[:-3]
    if rel.endswith("/__init__"):
        rel = rel[: -len("/__init__")]
    return rel.replace("/", ".")


@dataclass(frozen=True)
class ImportEdge:
    """One import statement linking two project modules."""

    src: str
    dst: str
    line: int
    top_level: bool


@dataclass
class SymbolDef:
    """A top-level binding in one module."""

    name: str
    module: str
    line: int
    col: int
    kind: str  # "function" | "class" | "assign"
    node: ast.AST = field(repr=False, default=None)


class ModuleInfo:
    """Per-module slice of the project symbol table."""

    def __init__(self, rel: str, name: str, source):
        self.rel = rel
        self.name = name
        self.tree: ast.Module = source.tree
        #: The engine's one-walk node and function-def lists
        #: (``ModuleSource.nodes`` / ``.functions``, ``ast.walk`` order).
        self.nodes: List[ast.AST] = source.nodes
        self.functions: List[ast.AST] = source.functions
        self.is_package = rel.endswith("__init__.py")
        #: Top-level bindings by name.
        self.symbols: Dict[str, SymbolDef] = {}
        #: Names listed in ``__all__`` -> the AST node of the list element.
        self.exports: Dict[str, ast.AST] = {}
        #: Local alias -> dotted module name (``import x.y as z``).
        self.module_aliases: Dict[str, str] = {}
        #: Local name -> (source module, source name) from ``from m import n``.
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        #: Modules star-imported by this one.
        self.star_imports: Set[str] = set()

    def package(self) -> str:
        """The package this module lives in (itself, for packages)."""
        if self.is_package:
            return self.name
        return self.name.rsplit(".", 1)[0] if "." in self.name else ""


class Project:
    """The whole-program view: modules, import graph, references.

    ``modules`` maps repo-relative path -> the engine's ``ModuleSource``;
    :attr:`modules` (path -> :class:`ModuleInfo`) iterates in sorted
    path order.
    """

    def __init__(self, modules: Dict[str, "object"]):
        self.sources = dict(modules)
        self.modules: Dict[str, ModuleInfo] = {}
        #: dotted name -> ModuleInfo (reverse of the path map).
        self.by_name: Dict[str, ModuleInfo] = {}
        self.edges: List[ImportEdge] = []
        #: (module, symbol) pairs referenced from *other* modules.
        self.references: Set[Tuple[str, str]] = set()
        #: Re-export aliases: (pkg, name) -> (origin module, origin name).
        self.reexports: Dict[Tuple[str, str], Tuple[str, str]] = {}
        for rel, source in sorted(self.sources.items()):
            info = ModuleInfo(rel, module_name_for(rel), source)
            self.modules[rel] = info
            self.by_name[info.name] = info
        for info in self.modules.values():
            self._collect_symbols(info)
            self._collect_imports(info)
        for info in self.modules.values():
            self._collect_references(info)
        self._propagate_reexports()

    # -- construction ----------------------------------------------------------

    def _collect_symbols(self, info: ModuleInfo) -> None:
        for node in info.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.symbols[node.name] = SymbolDef(
                    node.name, info.name, node.lineno, node.col_offset, "function", node)
            elif isinstance(node, ast.ClassDef):
                info.symbols[node.name] = SymbolDef(
                    node.name, info.name, node.lineno, node.col_offset, "class", node)
            elif isinstance(node, ast.Assign):
                for tgt in node.targets:
                    for name_node in self._target_names(tgt):
                        info.symbols[name_node.id] = SymbolDef(
                            name_node.id, info.name, node.lineno,
                            node.col_offset, "assign", node)
                if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                    if isinstance(node.value, (ast.List, ast.Tuple)):
                        for elt in node.value.elts:
                            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                                info.exports[elt.value] = elt
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                info.symbols[node.target.id] = SymbolDef(
                    node.target.id, info.name, node.lineno, node.col_offset,
                    "assign", node)

    @staticmethod
    def _target_names(tgt: ast.AST) -> Iterator[ast.Name]:
        if isinstance(tgt, ast.Name):
            yield tgt
        elif isinstance(tgt, (ast.Tuple, ast.List)):
            for elt in tgt.elts:
                if isinstance(elt, ast.Name):
                    yield elt

    def _resolve_relative(self, info: ModuleInfo, level: int, module: Optional[str]) -> Optional[str]:
        """Resolve a ``from ...x import y`` to an absolute dotted name."""
        if level == 0:
            return module
        base = info.name.split(".")
        if not info.is_package:
            base = base[:-1]
        drop = level - 1
        if drop > len(base):
            return None
        if drop:
            base = base[:-drop]
        if module:
            base = base + module.split(".")
        return ".".join(base) if base else None

    def _collect_imports(self, info: ModuleInfo) -> None:
        top_level_nodes = set(map(id, info.tree.body))
        for node in info.nodes:
            top = id(node) in top_level_nodes
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target = alias.name
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.asname:
                        info.module_aliases[bound] = target
                    else:
                        # ``import a.b.c`` binds ``a``; dotted reads start there
                        info.module_aliases.setdefault(bound, target.split(".")[0])
                    self._add_edge(info, target, node.lineno, top)
            elif isinstance(node, ast.ImportFrom):
                source = self._resolve_relative(info, node.level, node.module)
                if source is None:
                    continue
                self._add_edge(info, source, node.lineno, top)
                for alias in node.names:
                    if alias.name == "*":
                        if source in self.by_name:
                            info.star_imports.add(source)
                        continue
                    sub = "%s.%s" % (source, alias.name)
                    if sub in self.by_name:
                        # ``from pkg import mod`` — a module binding
                        info.module_aliases[alias.asname or alias.name] = sub
                        self._add_edge(info, sub, node.lineno, top)
                    else:
                        info.from_imports[alias.asname or alias.name] = (source, alias.name)

    def _add_edge(self, info: ModuleInfo, target: str, line: int, top: bool) -> None:
        if target in self.by_name and target != info.name:
            self.edges.append(ImportEdge(info.name, target, line, top))

    def _collect_references(self, info: ModuleInfo) -> None:
        """Record (module, symbol) uses this module makes of other modules."""
        is_reexport_pkg = info.is_package
        for name, (source, orig) in info.from_imports.items():
            if source not in self.by_name:
                continue
            if is_reexport_pkg and name in info.exports:
                # re-export: reachability flows through the package name
                self.reexports[(info.name, name)] = (source, orig)
            else:
                self.references.add((source, orig))
        for source in info.star_imports:
            origin = self.by_name.get(source)
            if origin is not None:
                for exported in origin.exports:
                    self.references.add((source, exported))
        # dotted reads through module aliases: ``alias.attr`` / ``alias.sub.attr``
        for node in info.nodes:
            if not isinstance(node, ast.Attribute):
                continue
            chain = _dotted_chain(node)
            if chain is None or len(chain) < 2:
                continue
            root_target = info.module_aliases.get(chain[0])
            if root_target is None:
                continue
            resolved = root_target.split(".") + list(chain[1:])
            # longest module prefix wins; the next component is the symbol
            for cut in range(len(resolved) - 1, 0, -1):
                mod = ".".join(resolved[:cut])
                if mod in self.by_name and mod != info.name:
                    self.references.add((mod, resolved[cut]))
                    break

    def _propagate_reexports(self) -> None:
        """Close references over ``__init__`` re-export aliases."""
        changed = True
        while changed:
            changed = False
            for (pkg, name), (source, orig) in self.reexports.items():
                if (pkg, name) in self.references and (source, orig) not in self.references:
                    self.references.add((source, orig))
                    changed = True

    # -- queries ---------------------------------------------------------------

    def import_graph(self, top_level_only: bool = True) -> Dict[str, Set[str]]:
        graph: Dict[str, Set[str]] = {name: set() for name in self.by_name}
        for edge in self.edges:
            if top_level_only and not edge.top_level:
                continue
            graph[edge.src].add(edge.dst)
        return graph

    def import_cycles(self) -> List[List[str]]:
        """Cycles among *top-level* imports (sorted, deterministic)."""
        graph = self.import_graph(top_level_only=True)
        cycles = [sorted(scc) for scc in strongly_connected_components(graph)
                  if len(scc) > 1 or (len(scc) == 1 and next(iter(scc)) in graph[next(iter(scc))])]
        return sorted(cycles)

    def edge_line(self, src: str, dst_candidates: Iterable[str]) -> int:
        """Line of the first top-level import from ``src`` into the set."""
        wanted = set(dst_candidates)
        lines = [e.line for e in self.edges
                 if e.src == src and e.top_level and e.dst in wanted]
        return min(lines) if lines else 1

    def is_referenced(self, module: str, symbol: str) -> bool:
        return (module, symbol) in self.references

    def resolve_callee(self, info: ModuleInfo, func: ast.AST) -> Optional[SymbolDef]:
        """Resolve a call target to a project-level function/class def."""
        if isinstance(func, ast.Name):
            local = info.symbols.get(func.id)
            if local is not None and local.kind in ("function", "class"):
                return local
            imported = info.from_imports.get(func.id)
            if imported is not None:
                source, orig = imported
                origin = self.by_name.get(source)
                if origin is not None:
                    return origin.symbols.get(orig)
            return None
        if isinstance(func, ast.Attribute):
            chain = _dotted_chain(func)
            if chain is None or len(chain) < 2:
                return None
            root_target = info.module_aliases.get(chain[0])
            if root_target is None:
                return None
            resolved = root_target.split(".") + list(chain[1:])
            for cut in range(len(resolved) - 1, 0, -1):
                mod = ".".join(resolved[:cut])
                origin = self.by_name.get(mod)
                if origin is not None and cut == len(resolved) - 1:
                    return origin.symbols.get(resolved[cut])
        return None


def _dotted_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def strongly_connected_components(graph: Dict[str, Set[str]]) -> List[Set[str]]:
    """Tarjan's SCC algorithm, iterative (the tree is ~200 modules deep)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    result: List[Set[str]] = []
    counter = [0]

    for root in sorted(graph):
        if root in index:
            continue
        work: List[Tuple[str, Iterator[str]]] = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc: Set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.add(member)
                    if member == node:
                        break
                result.append(scc)
    return result
