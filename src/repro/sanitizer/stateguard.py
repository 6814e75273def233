"""Module-state snapshot/diff guard: the dynamic oracle for shard safety.

The static shard-safety rules (``repro lint``, ``shard-*``) classify
every module-level mutable global as either a leak hazard or shard-safe
(pure memo, derivable, bounded) via ``# lint: shard-safe(<reason>)``
pragmas.  This module keeps those classifications honest at run time:
every pragma-justified global is **registered** here with the policy its
justification claims, and a guarded run fingerprints the registered
globals before and after the seeded session, failing with a
``state-leak`` :class:`~repro.sanitizer.core.SanitizerViolation` on any
drift the policy does not allow.

Policies mirror the static classification:

* ``frozen`` — the fingerprint must be identical: no new entries, no
  mutated entries, no removals.  For state that claims to be read-only.
* ``bounded-memo`` — a pure memo may *grow* (new keys) up to ``bound``
  entries, but an existing entry changing or disappearing means the
  "memo" is not pure, and growth past the bound means it is not bounded
  — both fail.
* ``volatile`` — diagnostic state (activation counters) expected to
  drift; tracked and reported, never fatal.

The guard follows the sanitizer's null-singleton pattern: a disabled
run holds :data:`NULL_STATE_GUARD` (``enabled`` False, every method a
no-op) so the unguarded path costs one attribute load and a branch —
the same contract ``tools/check_overhead.py`` gates under 5%.
Fingerprints are pure reads over ``repr``-stable digests; taking one
cannot perturb RNG streams, so seeded runs stay byte-identical with the
guard armed.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .core import SanitizerViolation, env_enabled

__all__ = [
    "GuardedGlobal",
    "StateDrift",
    "StateLeakGuard",
    "NullStateGuard",
    "NULL_STATE_GUARD",
    "register_global",
    "registered_globals",
    "state_guard_or_default",
]

_POLICIES = ("frozen", "bounded-memo", "volatile")


@dataclass(frozen=True)
class GuardedGlobal:
    """One registered module global and the drift policy it claims."""

    module: str
    attr: str
    policy: str
    bound: Optional[int] = None

    @property
    def key(self) -> str:
        return "%s.%s" % (self.module, self.attr)


@dataclass(frozen=True)
class StateDrift:
    """One observed policy breach, carried into the violation context."""

    key: str
    policy: str
    detail: str


#: The process-wide registry of guarded globals.  Populated at import
#: time below (and by tests via register_global); every entry mirrors a
#: shard-safe pragma in the tree.
_REGISTRY: Dict[Tuple[str, str], GuardedGlobal] = {}  # lint: shard-safe(guard registry: write-once at import time per entry; identical in every shard by construction)


def register_global(module: str, attr: str, policy: str,
                    bound: Optional[int] = None) -> GuardedGlobal:
    """Register a module global for snapshot/diff guarding.

    ``policy`` is one of ``frozen`` / ``bounded-memo`` / ``volatile``;
    ``bounded-memo`` requires ``bound``.  Re-registering the same
    ``module.attr`` replaces the entry (tests use this to tighten a
    policy temporarily).
    """
    if policy not in _POLICIES:
        raise ValueError("unknown policy %r (want one of %s)"
                         % (policy, ", ".join(_POLICIES)))
    if policy == "bounded-memo" and bound is None:
        raise ValueError("bounded-memo needs an explicit bound")
    entry = GuardedGlobal(module, attr, policy, bound)
    _REGISTRY[(module, attr)] = entry
    return entry


def registered_globals() -> List[GuardedGlobal]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "replace")).hexdigest()[:16]


def _fingerprint(value) -> dict:
    """A stable, diffable summary of one global's current state.

    Mappings keep per-key digests (so memo growth is distinguishable
    from mutation); sequences and sets digest per element; anything
    else digests its ``repr``.  Reads only — never mutates the value.
    """
    if isinstance(value, dict):
        return {"kind": "mapping",
                "items": {repr(k): _digest(repr(v)) for k, v in value.items()}}
    if isinstance(value, (list, tuple)):
        return {"kind": "sequence",
                "items": [_digest(repr(v)) for v in value]}
    if isinstance(value, (set, frozenset)):
        return {"kind": "set",
                "items": sorted(_digest(repr(v)) for v in value)}
    return {"kind": "scalar", "items": _digest(repr(value))}


def _diff_entry(entry: GuardedGlobal, before: dict,
                after: dict) -> List[StateDrift]:
    """Policy-aware drift between two fingerprints of one global."""
    drifts: List[StateDrift] = []
    if before == after:
        return drifts
    if entry.policy == "volatile":
        return drifts
    if entry.policy == "frozen":
        drifts.append(StateDrift(
            entry.key, entry.policy,
            "frozen global drifted during the run"))
        return drifts
    # bounded-memo: growth ok within bound; mutation/removal never is
    if before.get("kind") != "mapping" or after.get("kind") != "mapping":
        drifts.append(StateDrift(
            entry.key, entry.policy,
            "memo changed shape (%s -> %s)"
            % (before.get("kind"), after.get("kind"))))
        return drifts
    old_items, new_items = before["items"], after["items"]
    mutated = sorted(k for k in old_items
                     if k in new_items and new_items[k] != old_items[k])
    removed = sorted(k for k in old_items if k not in new_items)
    if mutated:
        drifts.append(StateDrift(
            entry.key, entry.policy,
            "existing memo entries mutated (%s) — not a pure memo"
            % ", ".join(mutated[:3])))
    if removed:
        drifts.append(StateDrift(
            entry.key, entry.policy,
            "memo entries removed (%s) — not append-only"
            % ", ".join(removed[:3])))
    if entry.bound is not None and len(new_items) > entry.bound:
        drifts.append(StateDrift(
            entry.key, entry.policy,
            "memo grew to %d entries, past its declared bound of %d"
            % (len(new_items), entry.bound)))
    return drifts


class NullStateGuard:
    """Disabled guard: ``enabled`` False, snapshot/verify are no-ops."""

    enabled = False

    def snapshot(self):
        return None

    def verify(self, before) -> None:
        pass


#: The shared disabled handle (the telemetry/sanitizer singleton pattern).
NULL_STATE_GUARD = NullStateGuard()


class StateLeakGuard:
    """Snapshot/diff checker over the registered module globals."""

    enabled = True

    def __init__(self, registry: Optional[List[GuardedGlobal]] = None):
        self.registry = (list(registry) if registry is not None
                         else registered_globals())
        self.verifications = 0

    def snapshot(self) -> Dict[str, dict]:
        """Fingerprint every registered global as it stands now."""
        out: Dict[str, dict] = {}
        for entry in self.registry:
            try:
                module = importlib.import_module(entry.module)
                value = getattr(module, entry.attr)
            except (ImportError, AttributeError):
                out[entry.key] = {"kind": "missing", "items": None}
                continue
            out[entry.key] = _fingerprint(value)
        return out

    def verify(self, before: Dict[str, dict]) -> None:
        """Diff current state against ``before``; fail-stop on a leak."""
        self.verifications += 1
        after = self.snapshot()
        drifts: List[StateDrift] = []
        for entry in self.registry:
            drifts.extend(_diff_entry(entry, before.get(entry.key, {}),
                                      after.get(entry.key, {})))
        if drifts:
            worst = drifts[0]
            raise SanitizerViolation(
                "state-leak",
                "%d registered module global(s) drifted against policy; "
                "first: %s [%s] %s"
                % (len(drifts), worst.key, worst.policy, worst.detail),
                drifts=[(d.key, d.policy, d.detail) for d in drifts])


def state_guard_or_default(explicit=None):
    """Resolve a run's state guard, mirroring ``sanitizer_or_default``.

    ``True``/``False`` force; ``None`` defers to ``REPRO_SANITIZE``; an
    object with ``enabled`` passes through.
    """
    if explicit is None:
        explicit = env_enabled()
    if isinstance(explicit, bool):
        return StateLeakGuard() if explicit else NULL_STATE_GUARD
    if hasattr(explicit, "enabled"):
        if isinstance(explicit, (StateLeakGuard, NullStateGuard)):
            return explicit
        # a ProtocolSanitizer (or compatible) handle: inherit its switch
        return StateLeakGuard() if explicit.enabled else NULL_STATE_GUARD
    return NULL_STATE_GUARD


# -- default registrations: one per shard-safe pragma in the tree -------------

#: ``repro.core.gf256`` memoises 256-byte translate tables, one per
#: coefficient — a pure memo of ``_MUL_TABLE`` rows, at most 256 entries.
register_global("repro.core.gf256", "_TRANSLATE_TABLES",
                "bounded-memo", bound=256)

#: ``repro.sanitizer.core`` keeps process-wide activation counters for
#: the overhead gate; diagnostics only, expected to move every run.
register_global("repro.sanitizer.core", "_TOTALS", "volatile")
