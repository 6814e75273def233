"""Protocol sanitizer: opt-in runtime invariant checks for the XNC stack.

Off by default (endpoints hold the shared :data:`NULL_SANITIZER`); enable
with ``repro run --sanitize`` or ``REPRO_SANITIZE=1``.  Arming it also
arms the module-state leak guard (:mod:`repro.sanitizer.stateguard`),
the dynamic oracle behind the static ``shard-*`` lint rules'
classification.  See ``docs/static-analysis.md`` for the invariant
catalogue with paper references.
"""

from .core import (
    NULL_SANITIZER,
    NullSanitizer,
    ProtocolSanitizer,
    SanitizerViolation,
    env_enabled,
    reset_totals,
    sanitizer_or_default,
    totals,
)
from .stateguard import (
    NULL_STATE_GUARD,
    GuardedGlobal,
    NullStateGuard,
    StateLeakGuard,
    register_global,
    registered_globals,
    state_guard_or_default,
)

__all__ = [
    "NULL_SANITIZER",
    "NullSanitizer",
    "ProtocolSanitizer",
    "SanitizerViolation",
    "env_enabled",
    "reset_totals",
    "sanitizer_or_default",
    "totals",
    "NULL_STATE_GUARD",
    "GuardedGlobal",
    "NullStateGuard",
    "StateLeakGuard",
    "register_global",
    "registered_globals",
    "state_guard_or_default",
]
