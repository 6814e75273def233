"""Tests for the module-state leak guard (``repro.sanitizer.stateguard``).

The guard is the dynamic oracle behind the static shard-safety pass:
every ``# lint: shard-safe(...)`` pragma has a registry entry here, and
a guarded run fails if the state drifts against its declared policy.
Covers the three policies (frozen / bounded-memo / volatile), the
null-singleton resolution, the ``run_stream`` integration — including
the required "mutate a registered global mid-run and the diff fires"
case — and the acceptance criterion that armed seeded runs stay
byte-identical across back-to-back in-process reruns.
"""

import sys
import types

import pytest

from repro.experiments.runner import run_stream
from repro.sanitizer import SanitizerViolation
from repro.sanitizer import stateguard
from repro.sanitizer.core import ProtocolSanitizer
from repro.sanitizer.stateguard import (
    NULL_STATE_GUARD,
    GuardedGlobal,
    NullStateGuard,
    StateDrift,
    StateLeakGuard,
    register_global,
    registered_globals,
    state_guard_or_default,
)

_MOD = "tests._stateguard_target"


@pytest.fixture
def target():
    """A fabricated module holding one guarded global."""
    mod = types.ModuleType(_MOD)
    mod._STATE = {"a": 1}
    sys.modules[_MOD] = mod
    yield mod
    stateguard._REGISTRY.pop((_MOD, "_STATE"), None)
    del sys.modules[_MOD]


def _guard_for(policy, bound=None):
    register_global(_MOD, "_STATE", policy, bound=bound)
    return StateLeakGuard(registry=[GuardedGlobal(_MOD, "_STATE",
                                                  policy, bound)])


class TestPolicies:
    def test_frozen_clean_run_passes(self, target):
        guard = _guard_for("frozen")
        before = guard.snapshot()
        guard.verify(before)
        assert guard.verifications == 1

    def test_frozen_mutation_fires(self, target):
        guard = _guard_for("frozen")
        before = guard.snapshot()
        target._STATE["a"] = 2  # the mid-run mutation
        with pytest.raises(SanitizerViolation) as ei:
            guard.verify(before)
        assert ei.value.invariant == "state-leak"
        (key, policy, detail), = ei.value.context["drifts"]
        assert key == "%s._STATE" % _MOD and policy == "frozen"

    def test_frozen_addition_fires(self, target):
        guard = _guard_for("frozen")
        before = guard.snapshot()
        target._STATE["new"] = 9
        with pytest.raises(SanitizerViolation):
            guard.verify(before)

    def test_bounded_memo_growth_within_bound_passes(self, target):
        guard = _guard_for("bounded-memo", bound=8)
        before = guard.snapshot()
        target._STATE["b"] = 2
        guard.verify(before)

    def test_bounded_memo_mutation_fires(self, target):
        guard = _guard_for("bounded-memo", bound=8)
        before = guard.snapshot()
        target._STATE["a"] = 99  # existing entry changed: not a pure memo
        with pytest.raises(SanitizerViolation, match="not a pure memo"):
            guard.verify(before)

    def test_bounded_memo_removal_fires(self, target):
        guard = _guard_for("bounded-memo", bound=8)
        before = guard.snapshot()
        del target._STATE["a"]
        with pytest.raises(SanitizerViolation, match="not append-only"):
            guard.verify(before)

    def test_bounded_memo_bound_exceeded_fires(self, target):
        guard = _guard_for("bounded-memo", bound=2)
        before = guard.snapshot()
        target._STATE.update({"b": 2, "c": 3})
        with pytest.raises(SanitizerViolation, match="past its declared bound"):
            guard.verify(before)

    def test_volatile_drift_passes(self, target):
        guard = _guard_for("volatile")
        before = guard.snapshot()
        target._STATE["a"] = 2
        target._STATE["b"] = 3
        guard.verify(before)

    def test_missing_module_is_tolerated(self):
        guard = StateLeakGuard(registry=[
            GuardedGlobal("tests._no_such_module", "_X", "frozen")])
        before = guard.snapshot()
        assert before["tests._no_such_module._X"]["kind"] == "missing"
        guard.verify(before)


class TestRegistry:
    def test_default_registry_mirrors_the_pragmas(self):
        keys = {g.key for g in registered_globals()}
        assert "repro.core.gf256._TRANSLATE_TABLES" in keys
        assert "repro.sanitizer.core._TOTALS" in keys
        by_key = {g.key: g for g in registered_globals()}
        memo = by_key["repro.core.gf256._TRANSLATE_TABLES"]
        assert memo.policy == "bounded-memo" and memo.bound == 256
        assert by_key["repro.sanitizer.core._TOTALS"].policy == "volatile"

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            register_global("x", "y", "sometimes")

    def test_bounded_memo_requires_bound(self):
        with pytest.raises(ValueError, match="explicit bound"):
            register_global("x", "y", "bounded-memo")

    def test_drift_record_shape(self):
        d = StateDrift("m._X", "frozen", "drifted")
        assert (d.key, d.policy, d.detail) == ("m._X", "frozen", "drifted")


class TestResolution:
    def test_explicit_booleans(self):
        assert state_guard_or_default(False) is NULL_STATE_GUARD
        assert isinstance(state_guard_or_default(True), StateLeakGuard)

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert state_guard_or_default(None) is NULL_STATE_GUARD
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert isinstance(state_guard_or_default(None), StateLeakGuard)

    def test_guard_instances_pass_through(self):
        guard = StateLeakGuard(registry=[])
        assert state_guard_or_default(guard) is guard
        assert state_guard_or_default(NULL_STATE_GUARD) is NULL_STATE_GUARD

    def test_sanitizer_handle_inherits_switch(self):
        assert isinstance(state_guard_or_default(ProtocolSanitizer()),
                          StateLeakGuard)

    def test_null_guard_is_inert(self):
        assert NullStateGuard.enabled is False
        assert NULL_STATE_GUARD.snapshot() is None
        NULL_STATE_GUARD.verify(None)  # must not raise


class TestRunStreamIntegration:
    def test_sanitized_run_verifies_clean(self):
        # the default registry must hold over a real seeded session
        result = run_stream("cellfusion", duration=1.0, seed=11,
                            sanitize=True)
        assert result.frames_sent > 0

    def test_registered_global_mutated_mid_run_fires(self):
        # tighten the sanitizer counters to frozen: the run itself
        # mutates them mid-flight, so the diff must fire at verify time
        register_global("repro.sanitizer.core", "_TOTALS", "frozen")
        try:
            with pytest.raises(SanitizerViolation) as ei:
                run_stream("cellfusion", duration=1.0, seed=11,
                           sanitize=True)
            assert ei.value.invariant == "state-leak"
            assert "repro.sanitizer.core._TOTALS" in str(ei.value)
        finally:
            register_global("repro.sanitizer.core", "_TOTALS", "volatile")

    def test_unsanitized_run_skips_the_guard(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        register_global("repro.sanitizer.core", "_TOTALS", "frozen")
        try:
            run_stream("cellfusion", duration=0.5, seed=11, sanitize=False)
        finally:
            register_global("repro.sanitizer.core", "_TOTALS", "volatile")


class TestArmedRunsStayDeterministic:
    def test_back_to_back_sanitized_reruns_byte_identical(self):
        # acceptance criterion: arming the state-leak guard must not
        # perturb the seeded run (fingerprinting is read-only)
        a = run_stream("cellfusion", duration=1.5, seed=7, sanitize=True)
        b = run_stream("cellfusion", duration=1.5, seed=7, sanitize=True)
        assert a.digest() == b.digest()

    def test_guard_does_not_change_the_stream(self):
        # armed vs unarmed runs produce identical traffic
        armed = run_stream("cellfusion", duration=1.5, seed=7, sanitize=True)
        bare = run_stream("cellfusion", duration=1.5, seed=7, sanitize=False)
        assert armed.digest() == bare.digest()
