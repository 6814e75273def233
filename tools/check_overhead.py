#!/usr/bin/env python3
"""Verify that every switched-off instrumentation layer stays under 5 %.

Telemetry, spans, the protocol sanitizer (with the state-leak guard it
arms) and the fault-injection hook all make the same promise: when off, an
instrumented call site costs one attribute load plus a branch against a
null singleton (``if tel.enabled:``) or a ``None`` field
(``if fault is not None:``).  This script turns the promise into one
regression gate, with the same procedure for every layer in
:data:`GATES`:

1. **micro-benchmark** the guard pattern against a bare loop: ns/site;
2. **count activations**: run the stream once with the layer armed and
   read off how many guarded sites fired;
3. **bound the disabled cost**: activations x guard cost as a share of
   the best-of-N wall time of the plain run.  Exit 1 above
   :data:`THRESHOLD_PCT`.

The armed wall time is printed for information only; armed runs are
CI/debug tools, not the benchmark path.

Usage::

    PYTHONPATH=src python tools/check_overhead.py
    PYTHONPATH=src python tools/check_overhead.py --duration 2 --runs 2
"""

import argparse
import sys
import time
from typing import Callable, Dict, NamedTuple

from repro.experiments.runner import StreamRunResult, run_stream
from repro.faults import random_plan
from repro.obs import NULL_SPANS, NULL_TELEMETRY
from repro.sanitizer import NULL_SANITIZER, reset_totals, totals

#: The one disabled-overhead budget every layer promises, in percent.
THRESHOLD_PCT = 5.0

_ITERATIONS = 2_000_000


def _bare(n):
    acc = 0
    for i in range(n):
        acc += i
    return acc


def enabled_guard(handle) -> Callable[[int], int]:
    """The ``if handle.enabled:`` pattern against a null singleton."""
    def guarded(n):
        acc = 0
        for i in range(n):
            acc += i
            if handle.enabled:
                acc -= 1
        return acc
    return guarded


class _Link:
    __slots__ = ("fault",)

    def __init__(self):
        self.fault = None


def fault_guard(n):
    """The link ``_drain`` pattern: one load, then the per-stage branches."""
    link = _Link()
    acc = 0
    for i in range(n):
        acc += i
        fault = link.fault
        if fault is not None:
            acc += 1
        if fault is not None:
            acc += 1
        if fault is not None:
            acc += 1
    return acc


def measure_guard_ns(guarded: Callable[[int], int]) -> float:
    """Per-site cost of a guard loop over the bare loop, in nanoseconds."""
    guarded(_ITERATIONS // 10)  # warm up
    _bare(_ITERATIONS // 10)
    t0 = time.perf_counter()
    guarded(_ITERATIONS)
    with_guard = time.perf_counter() - t0
    t0 = time.perf_counter()
    _bare(_ITERATIONS)
    without = time.perf_counter() - t0
    return max(0.0, (with_guard - without) / _ITERATIONS * 1e9)


def _telemetry_sites(armed: StreamRunResult, plain: StreamRunResult) -> int:
    # every trace event and metric update is one guarded site that fired
    # (event sites usually also bump a counter, so this overestimates)
    tel = armed.telemetry
    hits = tel.trace.emitted
    for metric in tel.metrics.snapshot():
        # counters report their sum; histograms their sample count; each
        # gauge set is at least one hit per recorded update
        hits += int(metric.get("count", metric.get("value", 1)) or 1)
    return hits + sum(len(samples) for samples in tel.timelines.values())


def _span_sites(armed: StreamRunResult, plain: StreamRunResult) -> int:
    # every open pairs with a close, and binds/annotates at most once
    # each per open in the current wiring: 4x opens bounds the sites
    return 4 * armed.telemetry.spans.opened


def _sanitizer_sites(armed: StreamRunResult, plain: StreamRunResult) -> int:
    fired = totals()
    if fired["violations"]:
        raise SystemExit("sanitizer reported %d violations during the "
                         "calibration run" % fired["violations"])
    # each check is one guarded site; ``sanitize=True`` also arms the
    # state-leak guard, the same null-singleton pattern at two more sites
    # (the ``state_guard.enabled`` tests around snapshot() and verify())
    return fired["checks"] + 2


def _fault_sites(armed: StreamRunResult, plain: StreamRunResult) -> int:
    # every wire packet drained on either link direction of the *plain*
    # run evaluates the guard once (uplink data + downlink ACKs)
    stats = plain.client_stats
    return (stats.first_tx_packets + stats.retx_packets
            + stats.recovery_packets + stats.duplicate_packets
            + stats.probe_packets + stats.acks_received)


class Gate(NamedTuple):
    guard: Callable[[int], int]
    #: (armed result, plain result) -> guarded sites that fire per run
    sites: Callable[[StreamRunResult, StreamRunResult], int]
    #: run_stream kwargs that arm the layer, given (seed, duration)
    armed: Callable[[int, float], dict]


GATES: Dict[str, Gate] = {
    "telemetry": Gate(enabled_guard(NULL_TELEMETRY), _telemetry_sites,
                      lambda seed, duration: {"telemetry": True}),
    "spans": Gate(enabled_guard(NULL_SPANS), _span_sites,
                  lambda seed, duration: {"spans": True}),
    "sanitizer": Gate(enabled_guard(NULL_SANITIZER), _sanitizer_sites,
                      lambda seed, duration: {"sanitize": True}),
    "fault hook": Gate(fault_guard, _fault_sites,
                       lambda seed, duration: {
                           "faults": random_plan(seed, duration),
                           "fault_seed": seed}),
}


def _timed_run(duration: float, seed: int, **kwargs):
    t0 = time.perf_counter()
    result = run_stream("cellfusion", duration=duration, seed=seed, **kwargs)
    return result, time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=4.0,
                        help="seconds of simulated streaming per run")
    parser.add_argument("--seed", type=int, default=1, help="trace seed")
    parser.add_argument("--runs", type=int, default=3,
                        help="best-of-N plain runs (min filters scheduler noise)")
    args = parser.parse_args(argv)

    plain, off = min((_timed_run(args.duration, args.seed, sanitize=False)
                      for _ in range(args.runs)), key=lambda pair: pair[1])
    print("plain run: %.3fs wall for %.0fs of streaming" % (off, args.duration))

    failed = []
    for name, gate in GATES.items():
        guard_ns = measure_guard_ns(gate.guard)
        reset_totals()
        armed, on = _timed_run(args.duration, args.seed,
                               **gate.armed(args.seed, args.duration))
        sites = gate.sites(armed, plain)
        reset_totals()
        bound_pct = sites * guard_ns * 1e-9 / off * 100.0
        verdict = "OK" if bound_pct <= THRESHOLD_PCT else "FAIL"
        print("%s: disabled %s bound %d sites x %.0f ns = %.2f%% of %.3fs "
              "(limit %.1f%%; armed run %+.1f%%, informational)"
              % (verdict, name, sites, guard_ns, bound_pct, off,
                 THRESHOLD_PCT, (on - off) / off * 100.0))
        if verdict == "FAIL":
            failed.append(name)
    if failed:
        print("FAIL: disabled overhead above %.1f%% for: %s"
              % (THRESHOLD_PCT, ", ".join(failed)))
        return 1
    print("OK: all %d disabled-overhead bounds within %.1f%%"
          % (len(GATES), THRESHOLD_PCT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
