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
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "module_name_for",
    "ImportEdge",
    "SymbolDef",
    "ModuleInfo",
    "Project",
    "FuncNode",
    "CallGraph",
    "HOT_SEED_MODULE",
    "HOT_DECORATOR",
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
        #: Lazily-built static call graph (the hot-path rules); see call_graph().
        self._call_graph: Optional["CallGraph"] = None
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

    def call_graph(self) -> "CallGraph":
        """The static call graph + hot set, built once per Project."""
        if self._call_graph is None:
            self._call_graph = CallGraph(self)
        return self._call_graph

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


#: Module whose top-level functions seed the hot set: the bench suites
#: are, by construction, the packet-rate workloads the repo optimises.
HOT_SEED_MODULE = "tools.bench.suites"
#: Decorator name marking an explicit hot-path entry point
#: (``repro.hotpath.hot_path``).  Matched syntactically by its final
#: component so fixtures and vendored copies seed without imports.
HOT_DECORATOR = "hot_path"

#: A call-graph key: (dotted module name, qualname within the module).
FuncKey = Tuple[str, str]


@dataclass
class FuncNode:
    """One function or method in the static call graph.

    ``qualname`` is ``"name"`` for module-level functions and
    ``"Class.name"`` for methods.  Nested defs are not nodes of their
    own: their bodies (and calls) belong to the enclosing top-level
    function, which matches how their cost is paid at runtime.
    """

    module: str
    qualname: str
    rel: str
    node: ast.AST = field(repr=False, default=None)
    cls: Optional[str] = None

    @property
    def key(self) -> FuncKey:
        return (self.module, self.qualname)

    @property
    def dotted(self) -> str:
        return "%s.%s" % (self.module, self.qualname)


class CallGraph:
    """Static call graph over the whole project, with transitive hotness.

    Resolution is def-site, through the structures :class:`Project`
    already holds, and deliberately mirrors the one-hop indirection the
    constants pass tolerates:

    * plain ``f(...)`` calls via the module symbol table and
      ``from m import f`` bindings (one assignment-alias hop allowed);
    * ``self.m(...)`` / ``cls.m(...)`` through the enclosing class and
      its project-internal base classes;
    * ``ClassName.m(...)`` and ``alias.f(...)`` through imported names
      and module aliases;
    * constructor calls ``Cls(...)`` edge to ``Cls.__init__``;
    * one-hop type inference: ``x = Cls(...); x.m()`` and
      ``self.attr = Cls(...); self.attr.m()`` resolve to ``Cls.m``;
    * callback escapes: a function/method *passed as an argument* from a
      hot call site is treated as called (timer and protocol callbacks
      run at packet rate even though the loop invokes them dynamically).

    Unresolvable targets (stdlib, dynamic dispatch) drop off the graph —
    hotness is a reachability under-approximation, never a guess.
    """

    def __init__(self, project: "Project"):
        self.project = project
        #: key -> FuncNode, insertion-sorted by (rel, lineno).
        self.functions: Dict[FuncKey, FuncNode] = {}
        #: caller key -> callee keys.
        self.edges: Dict[FuncKey, Set[FuncKey]] = {}
        #: hot key -> human-readable provenance ("bench entry point ...",
        #: "@hot_path", "called from <dotted>").
        self.hot: Dict[FuncKey, str] = {}
        #: class key (module, ClassName) -> project-internal base keys.
        self._bases: Dict[FuncKey, List[FuncKey]] = {}
        #: class key -> {attr -> class key} from ``self.attr = Cls(...)``.
        self._attr_types: Dict[FuncKey, Dict[str, FuncKey]] = {}
        self._collect()
        self._link()
        self._seed_and_propagate()

    # -- node collection -------------------------------------------------------

    def _collect(self) -> None:
        for rel, info in sorted(self.project.modules.items()):
            for node in info.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = FuncNode(info.name, node.name, rel, node)
                    self.functions[fn.key] = fn
                elif isinstance(node, ast.ClassDef):
                    clskey = (info.name, node.name)
                    self._bases[clskey] = [
                        base for base in
                        (self._class_of_expr(info, b) for b in node.bases)
                        if base is not None]
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            fn = FuncNode(info.name, "%s.%s" % (node.name, item.name),
                                          rel, item, node.name)
                            self.functions[fn.key] = fn
        # self-attr types need every method collected first
        for fn in self.functions.values():
            if fn.cls is None:
                continue
            info = self.project.by_name[fn.module]
            clskey = (fn.module, fn.cls)
            slots = self._attr_types.setdefault(clskey, {})
            for node in ast.walk(fn.node):
                if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                    continue
                tgt = node.targets[0]
                if (isinstance(tgt, ast.Attribute) and isinstance(tgt.value, ast.Name)
                        and tgt.value.id == "self" and isinstance(node.value, ast.Call)):
                    made = self._class_of_expr(info, node.value.func)
                    if made is not None:
                        slots.setdefault(tgt.attr, made)

    def _class_of_expr(self, info: ModuleInfo, expr: ast.AST) -> Optional[FuncKey]:
        """Resolve an expression naming a project class to its key."""
        sd = self.project.resolve_callee(info, expr)
        if sd is not None and sd.kind == "class":
            return (sd.module, sd.name)
        return None

    # -- edge resolution -------------------------------------------------------

    def _link(self) -> None:
        for key, fn in self.functions.items():
            info = self.project.by_name[fn.module]
            out = self.edges.setdefault(key, set())
            var_types = self._infer_locals(info, fn)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = self._resolve_call(info, fn, node.func, var_types)
                if callee is not None:
                    out.add(callee)
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    cb = self._resolve_callback(info, fn, arg)
                    if cb is not None:
                        out.add(cb)

    def _infer_locals(self, info: ModuleInfo, fn: FuncNode) -> Dict[str, FuncKey]:
        """``x = Cls(...)`` bindings whose type is unambiguous within fn."""
        seen: Dict[str, Optional[FuncKey]] = {}
        for node in ast.walk(fn.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            name = node.targets[0].id
            made = (self._class_of_expr(info, node.value.func)
                    if isinstance(node.value, ast.Call) else None)
            if name in seen and seen[name] != made:
                seen[name] = None  # conflicting rebind: refuse to guess
            else:
                seen[name] = made
        return {name: key for name, key in seen.items() if key is not None}

    def _resolve_call(self, info: ModuleInfo, fn: FuncNode, func: ast.AST,
                      var_types: Dict[str, FuncKey]) -> Optional[FuncKey]:
        if isinstance(func, ast.Name):
            return self._resolve_name_call(info, func.id, hops=1)
        if not isinstance(func, ast.Attribute):
            return None
        chain = _dotted_chain(func)
        if chain is not None and len(chain) >= 2:
            head = chain[0]
            if head in ("self", "cls") and fn.cls is not None:
                clskey = (fn.module, fn.cls)
                if len(chain) == 2:
                    return self._resolve_method(clskey, chain[1])
                if len(chain) == 3:
                    attr_cls = self._attr_types.get(clskey, {}).get(chain[1])
                    if attr_cls is not None:
                        return self._resolve_method(attr_cls, chain[2])
                return None
            if head in var_types and len(chain) == 2:
                return self._resolve_method(var_types[head], chain[1])
            if len(chain) == 2:
                # ClassName.method through a local or imported class name
                base = self._class_of_name(info, head)
                if base is not None:
                    return self._resolve_method(base, chain[1])
        sd = self.project.resolve_callee(info, func)
        return self._key_for_symbol(sd)

    def _resolve_name_call(self, info: ModuleInfo, name: str, hops: int) -> Optional[FuncKey]:
        sd = info.symbols.get(name)
        if sd is None and name in info.from_imports:
            source, orig = info.from_imports[name]
            origin = self.project.by_name.get(source)
            sd = origin.symbols.get(orig) if origin is not None else None
        if sd is None:
            return None
        if sd.kind == "assign" and hops > 0:
            # one-hop alias: ``fast_pack = _pack_impl``
            node = sd.node
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            if isinstance(value, ast.Name):
                origin_info = self.project.by_name.get(sd.module)
                if origin_info is not None:
                    return self._resolve_name_call(origin_info, value.id, hops - 1)
            return None
        return self._key_for_symbol(sd)

    def _class_of_name(self, info: ModuleInfo, name: str) -> Optional[FuncKey]:
        sd = info.symbols.get(name)
        if sd is None and name in info.from_imports:
            source, orig = info.from_imports[name]
            origin = self.project.by_name.get(source)
            sd = origin.symbols.get(orig) if origin is not None else None
        if sd is not None and sd.kind == "class":
            return (sd.module, sd.name)
        return None

    def _key_for_symbol(self, sd: Optional[SymbolDef]) -> Optional[FuncKey]:
        if sd is None:
            return None
        if sd.kind == "function":
            key = (sd.module, sd.name)
            return key if key in self.functions else None
        if sd.kind == "class":
            return self._resolve_method((sd.module, sd.name), "__init__")
        return None

    def _resolve_method(self, clskey: FuncKey, method: str) -> Optional[FuncKey]:
        """Look up a method on a class or its project-internal bases."""
        queue, seen = [clskey], set()
        while queue:
            cur = queue.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            key = (cur[0], "%s.%s" % (cur[1], method))
            if key in self.functions:
                return key
            queue.extend(self._bases.get(cur, ()))
        return None

    def _resolve_callback(self, info: ModuleInfo, fn: FuncNode,
                          arg: ast.AST) -> Optional[FuncKey]:
        """A function passed by reference from a call site: treated as called."""
        if isinstance(arg, ast.Name):
            return self._resolve_name_call(info, arg.id, hops=0)
        if isinstance(arg, ast.Attribute):
            chain = _dotted_chain(arg)
            if (chain is not None and len(chain) == 2 and chain[0] == "self"
                    and fn.cls is not None):
                return self._resolve_method((fn.module, fn.cls), chain[1])
        return None

    # -- hotness ---------------------------------------------------------------

    def _seed_and_propagate(self) -> None:
        queue: List[FuncKey] = []
        for key, fn in self.functions.items():
            if fn.module == HOT_SEED_MODULE:
                self.hot[key] = "bench entry point %s" % fn.dotted
                queue.append(key)
            elif self._has_hot_decorator(fn.node):
                self.hot[key] = "@%s" % HOT_DECORATOR
                queue.append(key)
        while queue:
            caller = queue.pop(0)
            for callee in sorted(self.edges.get(caller, ())):
                if callee not in self.hot:
                    self.hot[callee] = "called from %s" % self.functions[caller].dotted
                    queue.append(callee)

    @staticmethod
    def _has_hot_decorator(node: ast.AST) -> bool:
        for deco in getattr(node, "decorator_list", ()):
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name == HOT_DECORATOR:
                return True
        return False

    # -- queries ---------------------------------------------------------------

    def is_hot(self, key: FuncKey) -> bool:
        return key in self.hot

    def hot_reason(self, key: FuncKey) -> str:
        return self.hot.get(key, "")

    def hot_functions(self) -> List[FuncNode]:
        """Hot FuncNodes sorted by (rel, line) for deterministic reports."""
        nodes = [self.functions[key] for key in self.hot]
        return sorted(nodes, key=lambda fn: (fn.rel, fn.node.lineno, fn.qualname))


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
