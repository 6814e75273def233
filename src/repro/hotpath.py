"""Explicit hot-path registry — the static seed for the hot-path lint rules.

CellFusion's data plane must sustain per-packet encode/recode/decode at
line rate (§5): any allocation churn or slow idiom on these paths is a
throughput bug even when it is semantically correct.  Decorating a
function with :func:`hot_path` declares "this runs at packet rate":

* the hot-path lint rules (``tools/lint/perf.py``) seed their call-graph
  hotness propagation from every ``@hot_path`` function (recognised
  *syntactically*, by decorator name, so analysis never imports project
  code) in addition to the bench-suite entry points, and analyze
  everything transitively reachable;
* at runtime the decorator is a no-op apart from recording the function
  in :func:`hot_registry`, which tests use to assert the registry and
  the analyzer agree on what is hot.

Keep the registry small and honest: decorate packet-rate *entry points*
(the tunnel send/receive path, codec push/encode), not every helper they
call — propagation covers the callees.
"""

from __future__ import annotations

from typing import Callable, Dict, TypeVar

__all__ = ["hot_path", "hot_registry"]

FuncT = TypeVar("FuncT", bound=Callable)

#: qualname -> function, in decoration order.  Import-time only writes.
_REGISTRY: Dict[str, Callable] = {}  # lint: shard-safe(populated once at import time by decorators; identical in every worker)


def hot_path(func: FuncT) -> FuncT:
    """Mark ``func`` as a packet-rate hot path (runtime no-op).

    The original function object is returned unchanged — no wrapper, no
    call overhead — so decorating a hot function costs nothing on the
    path it declares hot.
    """
    _REGISTRY["%s.%s" % (func.__module__, func.__qualname__)] = func
    return func


def hot_registry() -> Dict[str, Callable]:
    """Snapshot of registered hot functions: dotted qualname -> function."""
    return dict(_REGISTRY)
