"""Unit tests for the shard-safety rules (:mod:`tools.lint.shard`).

The fixture-level guarantees live in ``tests/test_lint.py``; this file
covers the pragma grammar and the four rules' classification edges
(bounded vs unbounded memos, taint through constructor arguments,
derivation-path checks, nested-def payloads).
"""

from tests.lintkit import rule_violations as shard_violations
from tools.lint.engine import all_rules
from tools.lint.shard import shard_safe_pragmas


class TestShardSafePragma:
    def test_pragma_parse(self):
        lines = [
            "_CACHE = {}  # lint: shard-safe(pure memo; bounded)",
            "_X = {}",
            "_Y = {}  # lint: shard-safe()",
        ]
        got = shard_safe_pragmas(lines)
        assert got == {1: "pure memo; bounded", 3: ""}

    def test_pragma_with_reason_silences_global(self):
        src = ("__all__ = []\n"
               "_MEMO = {}  # lint: shard-safe(pure memo)\n"
               "def f(k, v):\n"
               "    _MEMO[k] = v\n")
        assert shard_violations({"src/repro/m.py": src},
                                "shard-mutable-global") == []

    def test_empty_reason_is_reported(self):
        src = "__all__ = []\n_MEMO = {}  # lint: shard-safe()\n"
        got = shard_violations({"src/repro/m.py": src},
                               "shard-mutable-global")
        assert len(got) == 1 and "without a reason" in got[0].message


class TestMutableGlobalRule:
    def _hits(self, src):
        return shard_violations({"src/repro/m.py": "__all__ = []\n" + src},
                                "shard-mutable-global")

    def test_read_only_global_is_silent(self):
        assert self._hits("_TABLE = {1: 2}\n"
                          "def f(k):\n"
                          "    return _TABLE.get(k)\n") == []

    def test_local_shadow_is_not_a_write(self):
        # a local variable of the same name must not count as a mutation
        assert self._hits("_CACHE = {}\n"
                          "def f(k):\n"
                          "    _CACHE = {}\n"
                          "    _CACHE[k] = 1\n"
                          "    return _CACHE\n") == []

    def test_bounded_lru_cache_is_auto_safe(self):
        assert self._hits("import functools\n"
                          "@functools.lru_cache(maxsize=64)\n"
                          "def f(x):\n"
                          "    return x\n") == []
        assert self._hits("import functools\n"
                          "@functools.lru_cache\n"
                          "def f(x):\n"
                          "    return x\n") == []

    def test_functools_cache_is_unbounded(self):
        got = self._hits("import functools\n"
                         "@functools.cache\n"
                         "def f(x):\n"
                         "    return x\n")
        assert len(got) == 1 and "functools.cache" in got[0].message

    def test_global_rebinding_counts_as_write(self):
        got = self._hits("_STATE = {}\n"
                         "def reset():\n"
                         "    global _STATE\n"
                         "    _STATE = {}\n")
        assert len(got) == 1 and "_STATE" in got[0].message

    def test_mutator_method_counts_as_write(self):
        got = self._hits("_SEEN = set()\n"
                         "def note(x):\n"
                         "    _SEEN.add(x)\n")
        assert len(got) == 1 and "_SEEN" in got[0].message

    def test_cross_module_write_reported_at_write_site(self):
        files = {
            "src/repro/owner.py": "__all__ = []\nREG = {}\n",
            "src/repro/writer.py": ("import repro.owner as owner\n"
                                    "__all__ = []\n"
                                    "def f(k, v):\n"
                                    "    owner.REG[k] = v\n"),
        }
        got = shard_violations(files, "shard-mutable-global")
        assert len(got) == 1
        assert got[0].path == "src/repro/writer.py" and got[0].line == 4
        assert "repro.owner.REG" in got[0].message

    def test_cross_module_write_respects_owner_pragma(self):
        files = {
            "src/repro/owner.py": ("__all__ = []\n"
                                   "REG = {}  # lint: shard-safe(append-only registry)\n"),
            "src/repro/writer.py": ("import repro.owner as owner\n"
                                    "__all__ = []\n"
                                    "def f(k, v):\n"
                                    "    owner.REG[k] = v\n"),
        }
        assert shard_violations(files, "shard-mutable-global") == []


class TestLoopOwnershipRule:
    def _hits(self, src):
        return shard_violations({"src/repro/m.py": "__all__ = []\n" + src},
                                "shard-loop-ownership")

    def test_taint_through_constructor_args(self):
        got = self._hits("_W = None\n"
                         "class Wheel:\n"
                         "    def __init__(self, loop):\n"
                         "        self.loop = loop\n"
                         "def setup(loop):\n"
                         "    w = Wheel(loop)\n"
                         "    global _W\n"
                         "    _W = w\n")
        assert len(got) == 1 and "_W" in got[0].message

    def test_local_use_is_clean(self):
        assert self._hits("def run(loop):\n"
                          "    t = loop.call_later(1.0, lambda: None)\n"
                          "    return t\n") == []

    def test_container_store_flagged(self):
        got = self._hits("_CACHE = {}\n"
                         "def keep(loop):\n"
                         "    _CACHE['main'] = loop\n")
        assert any(v.rule == "shard-loop-ownership" for v in got)

    def test_taint_in_nested_block_precedes_later_store(self):
        # the taint pass walks statements in source order: a tainting
        # assignment inside an if-body must be seen before the store
        # that follows the block (BFS visited it after, masking this)
        got = self._hits("_W = None\n"
                         "class Wheel:\n"
                         "    def __init__(self, loop):\n"
                         "        self.loop = loop\n"
                         "def setup(loop, cond):\n"
                         "    global _W\n"
                         "    if cond:\n"
                         "        w = Wheel(loop)\n"
                         "    _W = w\n")
        assert len(got) == 1 and "_W" in got[0].message

    def test_reassignment_untaints_in_source_order(self):
        got = self._hits("_W = None\n"
                         "class Wheel:\n"
                         "    def __init__(self, loop):\n"
                         "        self.loop = loop\n"
                         "def setup(loop):\n"
                         "    global _W\n"
                         "    w = Wheel(loop)\n"
                         "    w = None\n"
                         "    _W = w\n")
        assert got == []


class TestRngProvenanceRule:
    def _hits(self, src):
        header = "from repro.determinism import seeded_rng\n__all__ = []\n"
        return shard_violations({"src/repro/m.py": header + src},
                                "shard-rng-provenance")

    def test_string_label_passes(self):
        assert self._hits("def f(seed, i):\n"
                          "    return seeded_rng(seed, 'uplink', i)\n") == []

    def test_bare_seed_flagged(self):
        got = self._hits("def f(seed):\n"
                         "    return seeded_rng(seed)\n")
        assert len(got) == 1 and "no derivation path" in got[0].message

    def test_numeric_components_flagged(self):
        got = self._hits("def f(seed, i):\n"
                         "    return seeded_rng(seed, i)\n")
        assert len(got) == 1 and "string label" in got[0].message

    def test_determinism_module_is_exempt(self):
        rule = {r.id: r for r in all_rules()}["shard-rng-provenance"]
        assert not rule.applies_to_path("src/repro/determinism.py")

    def test_reseed_of_rng_receiver_flagged(self):
        got = self._hits("def f(rng):\n"
                         "    rng.seed(1)\n")
        assert len(got) == 1 and "re-seeding" in got[0].message


class TestSpawnSafetyRule:
    def _hits(self, src):
        return shard_violations({"src/repro/m.py": "__all__ = []\n" + src},
                                "shard-spawn-safety")

    def test_module_level_target_is_clean(self):
        assert self._hits("def work(x):\n"
                          "    return x\n"
                          "def go(pool, xs):\n"
                          "    return pool.map(work, xs)\n") == []

    def test_lambda_argument_flagged_anywhere_in_payload(self):
        got = self._hits("def go(executor, xs):\n"
                         "    return executor.submit(sorted, key=lambda x: x)\n")
        assert len(got) == 1 and "lambda" in got[0].message

    def test_non_executor_receiver_ignored(self):
        # .map on a non-executor-ish name is not a process boundary
        assert self._hits("def go(series, f):\n"
                          "    return series.map(f)\n") == []
