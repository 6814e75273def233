"""Unit tests for the whole-program lint infrastructure.

The fixture-level guarantees (tree lints clean, every planted violation
found, violation text pinned) live in ``tests/test_lint.py``; this file
covers what the cross-module rules are built on: the import graph /
symbol table (:mod:`tools.lint.graph`), the units-of-measure lattice
(:mod:`tools.lint.dataflow`), and the paper-constants registry
(:mod:`tools.lint.constants`) — including the acceptance check that a
perturbed default is caught.
"""

import pytest

from tests.lintkit import make_project
from tools.lint.constants import REGISTRY, check_project_constants
from tools.lint.dataflow import (
    BYTES,
    GF_SYMBOLS,
    MILLISECONDS,
    MIXED,
    PACKETS,
    SECONDS,
    UNIT_ANNOTATIONS,
    UNKNOWN,
    analyze_module_units,
    join,
    unit_of_name,
)
from tools.lint.graph import module_name_for, strongly_connected_components


class TestImportGraph:
    def test_module_name_for(self):
        assert module_name_for("src/repro/core/ranges.py") == "repro.core.ranges"
        assert module_name_for("src/repro/__init__.py") == "repro"
        assert module_name_for("tools/lint/engine.py") == "tools.lint.engine"
        assert module_name_for("tests/test_lint.py") == "tests.test_lint"

    def test_edges_aliases_and_references(self):
        p = make_project({
            "src/repro/__init__.py": "",
            "src/repro/a.py": ("from .b import helper\n"
                               "import repro.c as rc\n"
                               "__all__ = []\n"
                               "X = helper() + rc.VALUE\n"),
            "src/repro/b.py": "__all__ = ['helper']\n\ndef helper():\n    return 1\n",
            "src/repro/c.py": "__all__ = ['VALUE']\nVALUE = 3\n",
        })
        graph = p.import_graph(top_level_only=True)
        assert graph["repro.a"] == {"repro.b", "repro.c"}
        assert p.is_referenced("repro.b", "helper")
        assert p.is_referenced("repro.c", "VALUE")
        assert p.modules["src/repro/a.py"].module_aliases["rc"] == "repro.c"

    def test_relative_import_resolution(self):
        p = make_project({
            "src/repro/core/util.py": "__all__ = ['f']\n\ndef f():\n    return 0\n",
            "src/repro/sub/mod.py": "from ..core.util import f\n__all__ = []\nY = f()\n",
        })
        info = p.modules["src/repro/sub/mod.py"]
        assert info.from_imports["f"] == ("repro.core.util", "f")
        assert p.is_referenced("repro.core.util", "f")

    def test_deferred_import_is_not_a_cycle(self):
        p = make_project({
            "src/repro/a.py": "import repro.b\n__all__ = []\n",
            "src/repro/b.py": ("__all__ = []\n"
                               "def late():\n"
                               "    import repro.a\n"
                               "    return repro.a\n"),
        })
        tops = p.import_graph(top_level_only=True)
        assert tops["repro.b"] == set()        # the deferred edge is exempt
        assert p.import_graph(top_level_only=False)["repro.b"] == {"repro.a"}
        assert p.import_cycles() == []

    def test_top_level_cycle_detected(self):
        p = make_project({
            "src/repro/a.py": "import repro.b\n__all__ = []\n",
            "src/repro/b.py": "import repro.a\n__all__ = []\n",
        })
        assert p.import_cycles() == [["repro.a", "repro.b"]]

    def test_reexport_reachability_propagates_to_origin(self):
        p = make_project({
            "src/repro/pkg/__init__.py": ("from .impl import alive\n"
                                          "__all__ = ['alive']\n"),
            "src/repro/pkg/impl.py": ("__all__ = ['alive', 'ghost']\n\n"
                                      "def alive():\n    return 1\n\n"
                                      "def ghost():\n    return 2\n"),
            "src/repro/user.py": "from repro.pkg import alive\n__all__ = []\nZ = alive()\n",
        })
        # the consumer touches only the package name, but reachability
        # flows through the __init__ alias to the defining module
        assert p.is_referenced("repro.pkg.impl", "alive")
        assert not p.is_referenced("repro.pkg.impl", "ghost")

    def test_scc_algorithm(self):
        graph = {"a": {"b"}, "b": {"a"}, "c": {"a"}, "d": set()}
        sccs = strongly_connected_components(graph)
        assert {"a", "b"} in sccs
        assert {"c"} in sccs and {"d"} in sccs


class TestUnitsLattice:
    def test_join_identities(self):
        assert join(UNKNOWN, SECONDS) == SECONDS
        assert join(SECONDS, UNKNOWN) == SECONDS
        assert join(SECONDS, SECONDS) == SECONDS
        assert join(SECONDS, MILLISECONDS) == MIXED
        assert join(UNKNOWN, UNKNOWN) is UNKNOWN

    def test_suffix_conventions(self):
        assert unit_of_name("delay_ms") == MILLISECONDS
        assert unit_of_name("frame_bytes") == BYTES
        assert unit_of_name("n_pkts") == PACKETS
        assert unit_of_name("coeff_symbols") == GF_SYMBOLS
        assert unit_of_name("x") is UNKNOWN
        assert unit_of_name("_ms") is UNKNOWN  # a bare suffix is not a unit

    def test_time_vocabulary_reads_as_seconds(self):
        for name in ("now", "deadline", "timeout", "send_time",
                     "expires_at", "smoothed_rtt", "t_expire"):
            assert unit_of_name(name) == SECONDS, name

    def test_annotation_table_overrides_heuristics(self):
        # the explicit table wins over the _ms suffix, per-module
        assert unit_of_name("length") == BYTES          # "*" table entry
        assert unit_of_name("delay_ms") == MILLISECONDS
        UNIT_ANNOTATIONS["tests.fake"] = {"delay_ms": PACKETS}
        try:
            assert unit_of_name("delay_ms", "tests.fake") == PACKETS
            assert unit_of_name("delay_ms", "repro.core.frames") == MILLISECONDS
        finally:
            del UNIT_ANNOTATIONS["tests.fake"]

    def _conflicts(self, source):
        p = make_project({"src/repro/m.py": source})
        return analyze_module_units(p, p.modules["src/repro/m.py"])

    def test_assignment_propagates_units(self):
        got = self._conflicts("def f(delay_ms, deadline):\n"
                              "    x = delay_ms\n"
                              "    return x + deadline\n")
        assert len(got) == 1
        assert got[0].kind == "arith"
        assert {got[0].left, got[0].right} == {MILLISECONDS, SECONDS}

    def test_multiplication_erases_units(self):
        # * changes dimension, so the product must not keep milliseconds
        assert self._conflicts("def f(delay_ms, deadline):\n"
                               "    scaled = delay_ms * 2\n"
                               "    return scaled + deadline\n") == []

    def test_unknown_never_conflicts(self):
        assert self._conflicts("def f(x, deadline):\n"
                               "    return x + deadline\n") == []

    def test_comparison_conflict(self):
        got = self._conflicts("def f(size_bytes, budget_packets):\n"
                              "    return size_bytes > budget_packets\n")
        assert [c.kind for c in got] == ["compare"]

    def test_cross_module_call_argument(self):
        p = make_project({
            "src/repro/a.py": ("from .b import wait_for\n"
                               "__all__ = []\n\n"
                               "def f(delay_ms):\n"
                               "    wait_for(delay_ms)\n"),
            "src/repro/b.py": "__all__ = ['wait_for']\n\ndef wait_for(timeout):\n    return timeout\n",
        })
        got = analyze_module_units(p, p.modules["src/repro/a.py"])
        assert [c.kind for c in got] == ["call-arg"]
        assert {got[0].left, got[0].right} == {SECONDS, MILLISECONDS}


class TestConstantsRegistry:
    def test_registry_covers_the_xnc_contract(self):
        keys = {c.key for c in REGISTRY}
        assert {"t-expire", "recovery-extra", "rho-bound", "gf-field",
                "xnc-header", "loss-threshold", "range-borders"} <= keys
        assert len(REGISTRY) >= 6
        assert all(c.paper_ref for c in REGISTRY)

    @pytest.mark.parametrize("source,fragment", [
        ("DEFAULT_EXPIRY = 0.5\n", "t_expire = 0.7 s"),
        ("from dataclasses import dataclass\n"
         "@dataclass\nclass C:\n    rho: float = 1.5\n", "rho"),
        ("import struct\nXNC_HEADER = struct.Struct('!IIII')\n", "12 bytes"),
        ("DEFAULT_MAX_RANGE_PACKETS = 12\n", "r = 10"),
        ("from dataclasses import dataclass\n"
         "@dataclass\nclass C:\n    extra_packets: int = 2\n", "n + 3"),
        ("from dataclasses import dataclass\n"
         "@dataclass\nclass C:\n    app_threshold: float = 0.25\n",
         "min(app_threshold, PTO)"),
    ])
    def test_perturbed_default_is_detected(self, source, fragment):
        p = make_project({"src/repro/core/mod.py": "__all__ = []\n" + source})
        findings = check_project_constants(p)
        assert findings, "perturbation went undetected: %r" % source
        assert any(fragment in f.message for f in findings)

    def test_contract_matching_defaults_pass(self):
        p = make_project({"src/repro/core/mod.py": (
            "__all__ = []\n"
            "DEFAULT_EXPIRY = 0.7\n"
            "DEFAULT_RHO = 1.1\n"
            "DEFAULT_EXTRA_PACKETS = 3\n"
            "DEFAULT_MAX_RANGE_PACKETS = 10\n"
            "DEFAULT_MAX_RANGE_SPAN = 0.060\n")})
        assert check_project_constants(p) == []

    def test_name_indirection_cannot_hide_drift(self):
        p = make_project({"src/repro/core/mod.py": (
            "__all__ = []\nRHO_VALUE = 1.5\nDEFAULT_RHO = RHO_VALUE\n")})
        findings = check_project_constants(p)
        assert any("DEFAULT_RHO" in f.message for f in findings)

    def test_missing_anchor_reported(self):
        # a module that *is* repro.core.ranges but lost DEFAULT_EXPIRY:
        # the registry must refuse to lose its subject silently
        p = make_project({"src/repro/core/ranges.py": "__all__ = []\n"})
        findings = check_project_constants(p)
        assert any("registry anchor" in f.message
                   and "DEFAULT_EXPIRY" in f.message for f in findings)

    def test_structural_shape_checks(self):
        recovery = ("__all__ = []\n"
                    "DEFAULT_EXTRA_PACKETS = 3\n"
                    "DEFAULT_RHO = 1.1\n"
                    "def coded_packet_count(n, extra):\n"
                    "    return n + extra\n")
        p = make_project({"src/repro/core/recovery.py": recovery})
        findings = check_project_constants(p)
        assert any("n == 1" in f.message for f in findings)

        loss = ("__all__ = []\n"
                "class QoeLossPolicy:\n"
                "    app_threshold = 0.120\n"
                "    def threshold(self, pto):\n"
                "        return self.app_threshold\n")
        p = make_project({"src/repro/core/loss_detection.py": loss})
        findings = check_project_constants(p)
        assert any("min(app_threshold, PTO)" in f.message for f in findings)
