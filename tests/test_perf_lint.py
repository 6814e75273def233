"""Unit tests for the hot-path perf rules (:mod:`tools.lint.perf`).

The fixture-level guarantees live in ``tests/test_lint.py``; this file
covers the hotness model (bench-suite seeding, ``@hot_path`` seeding,
transitive propagation, method/constructor/callback resolution), the
pragma grammar, each rule's classification edges, and the runtime
registry's agreement with the static analyzer.
"""

from tests.lintkit import REPO_ROOT, make_project
from tests.lintkit import rule_violations as perf_violations
from tools.lint.engine import ModuleSource, all_rules, iter_py_files
from tools.lint.graph import HOT_SEED_MODULE, Project
from tools.lint.perf import hot_ok_pragmas

FIX_DIR = "tests/fixtures/lint/perf"


def call_graph(files):
    return make_project(files).call_graph()


#: Minimal module preamble giving fixtures a syntactic @hot_path.
_HOT = "__all__ = []\ndef hot_path(fn):\n    return fn\n"


def test_cross_module_plant_needs_propagation():
    # the hot_helper.py plant is only reachable through the call edge
    # from hot_caller.drive, while the identically-shaped cold_helper
    # stays cold
    cg = Project({
        rel: ModuleSource(path, rel, path.read_text(encoding="utf-8"))
        for path, rel in iter_py_files(REPO_ROOT, [FIX_DIR])
    }).call_graph()
    module = "tests.fixtures.lint.perf.hot_helper"
    assert cg.is_hot((module, "shift_window"))
    assert not cg.is_hot((module, "cold_helper"))
    assert "called from" in cg.hot_reason((module, "shift_window"))
    assert "%s/hot_helper.py" % FIX_DIR in {f.rel for f in cg.hot_functions()}


class TestHotnessModel:
    def test_bench_module_functions_are_seeds(self):
        files = {"tools/bench/suites.py":
                 "__all__ = []\ndef bench_one():\n    return 1\n"}
        cg = call_graph(files)
        key = (HOT_SEED_MODULE, "bench_one")
        assert cg.is_hot(key)
        assert "bench entry point" in cg.hot_reason(key)

    def test_hot_path_decorator_is_a_seed(self):
        files = {"src/repro/m.py": _HOT + "@hot_path\ndef f():\n    return 1\n"}
        cg = call_graph(files)
        assert cg.is_hot(("repro.m", "f"))
        assert cg.hot_reason(("repro.m", "f")) == "@hot_path"

    def test_hotness_propagates_across_modules(self):
        files = {
            "src/repro/a.py": ("from repro.b import helper\n" + _HOT +
                               "@hot_path\ndef entry(xs):\n"
                               "    for x in xs:\n"
                               "        helper(x)\n"),
            "src/repro/b.py": "__all__ = []\ndef helper(x):\n    return x\n",
        }
        cg = call_graph(files)
        assert cg.is_hot(("repro.b", "helper"))
        assert cg.hot_reason(("repro.b", "helper")) == "called from repro.a.entry"

    def test_self_method_calls_resolve(self):
        src = (_HOT +
               "class Enc:\n"
               "    @hot_path\n"
               "    def encode(self, xs):\n"
               "        for x in xs:\n"
               "            self.step(x)\n"
               "    def step(self, x):\n"
               "        return x\n")
        cg = call_graph({"src/repro/m.py": src})
        assert cg.is_hot(("repro.m", "Enc.encode"))
        assert cg.is_hot(("repro.m", "Enc.step"))

    def test_constructor_and_local_var_inference(self):
        src = (_HOT +
               "class Enc:\n"
               "    def __init__(self):\n"
               "        self.n = 0\n"
               "    def push(self, x):\n"
               "        return x\n"
               "@hot_path\n"
               "def run(xs):\n"
               "    enc = Enc()\n"
               "    for x in xs:\n"
               "        enc.push(x)\n")
        cg = call_graph({"src/repro/m.py": src})
        assert cg.is_hot(("repro.m", "Enc.__init__"))
        assert cg.is_hot(("repro.m", "Enc.push"))

    def test_callback_arguments_escape_into_hotness(self):
        src = (_HOT +
               "def on_tick(t):\n"
               "    return t\n"
               "def cold(t):\n"
               "    return t\n"
               "@hot_path\n"
               "def run(loop):\n"
               "    loop.register(on_tick)\n")
        cg = call_graph({"src/repro/m.py": src})
        assert cg.is_hot(("repro.m", "on_tick"))
        assert not cg.is_hot(("repro.m", "cold"))

    def test_hot_functions_sorted_and_stable(self):
        src = (_HOT +
               "@hot_path\ndef b():\n    return 1\n"
               "@hot_path\ndef a():\n    return 2\n")
        cg = call_graph({"src/repro/m.py": src})
        names = [f.qualname for f in cg.hot_functions()]
        # order is (rel, lineno): definition order within one file
        assert names == ["b", "a"]


class TestHotOkPragma:
    def test_pragma_parse(self):
        lines = [
            "buf = bytearray(64)  # lint: hot-ok(one buffer per call)",
            "x = 1",
            "y = {}  # lint: hot-ok()",
        ]
        got = hot_ok_pragmas(lines)
        assert got == {1: "one buffer per call", 3: ""}

    def test_pragma_with_reason_silences_finding(self):
        src = (_HOT +
               "@hot_path\n"
               "def f(xs, out):\n"
               "    for x in xs:\n"
               "        out.append([x])  # lint: hot-ok(one row per item by contract)\n")
        assert perf_violations({"src/repro/m.py": src},
                               "alloc-in-hot-loop") == []

    def test_empty_reason_is_reported(self):
        src = "__all__ = []\ndef f(n):\n    return bytearray(n)  # lint: hot-ok()\n"
        got = perf_violations({"src/repro/m.py": src}, "alloc-in-hot-loop")
        assert len(got) == 1 and "without a reason" in got[0].message


class TestAllocInHotLoopRule:
    def _hits(self, body):
        src = _HOT + "@hot_path\ndef f(xs, out, emit):\n" + body
        return perf_violations({"src/repro/m.py": src}, "alloc-in-hot-loop")

    def test_cold_function_is_silent(self):
        src = ("__all__ = []\n"
               "def f(xs, out):\n"
               "    for x in xs:\n"
               "        out.append([x])\n")
        assert perf_violations({"src/repro/m.py": src},
                               "alloc-in-hot-loop") == []

    def test_loop_allocation_flagged_with_provenance(self):
        got = self._hits("    for x in xs:\n        out.append([x])\n")
        assert len(got) == 1
        assert "hot function repro.m.f (@hot_path)" in got[0].message

    def test_allocation_outside_loop_is_silent(self):
        got = self._hits("    buf = bytearray(64)\n"
                         "    for x in xs:\n"
                         "        emit(x)\n"
                         "    return buf\n")
        assert got == []

    def test_obs_guarded_block_is_silent(self):
        got = self._hits("    for x in xs:\n"
                         "        if emit.enabled:\n"
                         "            emit('x %d' % x)\n")
        assert got == []

    def test_parallel_unpack_is_silent(self):
        got = self._hits("    for x in xs:\n"
                         "        a, b = x.left, x.right\n"
                         "        x.left, x.right = b, a\n")
        assert got == []


class TestSlowIdiomRule:
    def _hits(self, src_body):
        return perf_violations({"src/repro/m.py": _HOT + src_body},
                               "slow-idiom")

    def test_pop_zero_flagged(self):
        got = self._hits("@hot_path\ndef f(q):\n"
                         "    while q:\n"
                         "        q.pop(0)\n")
        assert len(got) == 1 and "pop(0)" in got[0].message

    def test_pop_last_is_silent(self):
        assert self._hits("@hot_path\ndef f(q):\n"
                          "    while q:\n"
                          "        q.pop()\n") == []

    def test_struct_pack_flagged_struct_struct_silent(self):
        got = self._hits("import struct\n"
                         "@hot_path\ndef f(x):\n"
                         "    return struct.pack('>H', x)\n")
        assert len(got) == 1 and "struct.Struct" in got[0].message
        assert self._hits("import struct\n"
                          "_S = struct.Struct('>H')\n"
                          "@hot_path\ndef f(x):\n"
                          "    return _S.pack(x)\n") == []

    def test_repeated_attribute_chain_flagged(self):
        got = self._hits("@hot_path\ndef f(c, xs, emit):\n"
                         "    for x in xs:\n"
                         "        if x <= c.path.cc.window:\n"
                         "            emit(x)\n"
                         "        if x > c.path.cc.window:\n"
                         "            emit(0)\n")
        assert len(got) == 1 and "c.path.cc.window" in got[0].message

    def test_try_in_loop_flagged(self):
        got = self._hits("@hot_path\ndef f(xs, out):\n"
                         "    for x in xs:\n"
                         "        try:\n"
                         "            out.append(x)\n"
                         "        except ValueError:\n"
                         "            out.append(None)\n")
        assert len(got) == 1 and "try/except" in got[0].message


class TestHiddenQuadraticRule:
    def _hits(self, src_body):
        return perf_violations({"src/repro/m.py": _HOT + src_body},
                               "hidden-quadratic")

    def test_bytes_augassign_flagged(self):
        got = self._hits("@hot_path\ndef f(chunks):\n"
                         "    buf = b''\n"
                         "    for c in chunks:\n"
                         "        buf += c\n"
                         "    return buf\n")
        assert len(got) == 1 and "bytes accumulator" in got[0].message

    def test_int_augassign_silent(self):
        assert self._hits("@hot_path\ndef f(xs):\n"
                          "    n = 0\n"
                          "    for x in xs:\n"
                          "        n += x\n"
                          "    return n\n") == []

    def test_rebinding_add_form_flagged(self):
        got = self._hits("@hot_path\ndef f(xs):\n"
                         "    ids = []\n"
                         "    for x in xs:\n"
                         "        ids = ids + x\n"
                         "    return ids\n")
        assert len(got) == 1 and "list accumulator" in got[0].message

    def test_nested_same_collection_flagged(self):
        got = self._hits("@hot_path\ndef f(xs, emit):\n"
                         "    for a in xs:\n"
                         "        for b in xs:\n"
                         "            emit(a, b)\n")
        assert len(got) == 1 and "O(n^2)" in got[0].message

    def test_nested_different_collections_silent(self):
        assert self._hits("@hot_path\ndef f(xs, ys, emit):\n"
                          "    for a in xs:\n"
                          "        for b in ys:\n"
                          "            emit(a, b)\n") == []


class TestUnguardedHotCallRule:
    def _hits(self, src_body):
        return perf_violations({"src/repro/m.py": _HOT + src_body},
                               "unguarded-hot-call")

    def test_unguarded_span_call_flagged(self):
        got = self._hits("@hot_path\ndef f(xs, spans):\n"
                         "    for x in xs:\n"
                         "        spans.record('x', x)\n")
        assert len(got) == 1 and "spans.record" in got[0].message

    def test_enabled_guard_silences(self):
        assert self._hits("@hot_path\ndef f(xs, spans):\n"
                          "    for x in xs:\n"
                          "        if spans.enabled:\n"
                          "            spans.record('x', x)\n") == []

    def test_is_not_none_guard_silences(self):
        assert self._hits("@hot_path\ndef f(xs, logger):\n"
                          "    if logger is not None:\n"
                          "        for x in xs:\n"
                          "            logger.debug('x %d', x)\n") == []

    def test_non_obs_receiver_silent(self):
        # .record on a non-observability name is not an obs call
        assert self._hits("@hot_path\ndef f(xs, table):\n"
                          "    for x in xs:\n"
                          "        table.record(x)\n") == []

    def test_obs_layer_is_exempt(self):
        rule = {r.id: r for r in all_rules()}["unguarded-hot-call"]
        assert not rule.applies_to_path("src/repro/obs/spans.py")
        assert rule.applies_to_path("src/repro/transport/base.py")


class TestHotRegistryRuntime:
    def test_decorator_is_a_runtime_no_op(self):
        from repro.hotpath import hot_path, hot_registry

        def probe(x):
            return x + 1

        decorated = hot_path(probe)
        assert decorated is probe
        key = "%s.%s" % (probe.__module__, probe.__qualname__)
        assert hot_registry()[key] is probe

    def test_registry_agrees_with_static_analyzer(self):
        # every function the runtime registry knows must be hot in the
        # static call graph under the same dotted name (decorators run
        # at import time; the analyzer matches them syntactically)
        import repro.core.rlnc  # noqa: F401
        import repro.quic.wire  # noqa: F401
        import repro.transport.base  # noqa: F401
        from repro.hotpath import hot_registry

        modules = {}
        for path, rel in iter_py_files(REPO_ROOT, ["src/repro"]):
            modules[rel] = ModuleSource(
                path, rel, path.read_text(encoding="utf-8"))
        cg = Project(modules).call_graph()
        hot_dotted = {f.dotted for f in cg.hot_functions()}
        registered = {k for k in hot_registry() if k.startswith("repro.")}
        assert registered, "no @hot_path functions registered at import"
        missing = registered - hot_dotted
        assert not missing, "registry/analyzer disagree on: %s" % sorted(missing)
