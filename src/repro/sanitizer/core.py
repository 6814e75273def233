"""Runtime protocol sanitizer: machine-checked XNC invariants (ASan-style).

The paper states invariants the code historically never verified at run
time: systematic Q-RLNC (``n = 1`` means uncoded, §4.3.2), the one-shot
recovery budget ``n' = n + 3`` with every path strictly below the
``rho * n'`` cap (§4.5.1–§4.5.2), the range lifecycle formed →
recovered | expired with no re-recovery (§4.4.3, §4.5.2), full
GF(2^8) coefficient-matrix rank at decode (Theorem 4.1), per-path QUIC
packet-number monotonicity, congestion-window send discipline, and
legal path-health transitions.

This module is the checking layer.  It follows the telemetry
null-singleton pattern exactly: endpoints hold either the shared
:data:`NULL_SANITIZER` (``enabled`` is False; the hot path pays one
attribute load and a branch) or their own :class:`ProtocolSanitizer`
instance.  Violations raise :class:`SanitizerViolation` immediately with
the invariant name and full context — fail-stop, like ASan.

Enabling it:

* ``repro run --sanitize`` (one CLI run), or
* ``REPRO_SANITIZE=1`` in the environment — every endpoint constructed
  without an explicit sanitizer picks it up, which is how CI runs the
  unmodified integration suite with checks on.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Deque, Dict, Iterable, Optional, Set

__all__ = [
    "SanitizerViolation",
    "ProtocolSanitizer",
    "NullSanitizer",
    "NULL_SANITIZER",
    "env_enabled",
    "sanitizer_or_default",
    "totals",
    "reset_totals",
]

#: Truthy spellings accepted for the env hook.
_ENV_VAR = "REPRO_SANITIZE"
_FALSY = ("", "0", "false", "no", "off")

#: Bound on remembered recovered/expired packet IDs (IDs are monotone, so
#: pruning the oldest cannot mask a genuine re-recovery of recent video).
_ID_MEMORY = 65536

#: Process-wide activation counters (for the overhead gate and tests).
_TOTALS = {"checks": 0, "violations": 0}  # lint: shard-safe(diagnostic counters only; never read by sim logic and reset per run via reset_totals)


def totals() -> dict:
    """Process-wide sanitizer activation counters."""
    return dict(_TOTALS)


def reset_totals() -> None:
    _TOTALS["checks"] = 0
    _TOTALS["violations"] = 0


def env_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` asks for checks (read per call so test
    fixtures can flip it)."""
    return os.environ.get(_ENV_VAR, "").strip().lower() not in _FALSY


class SanitizerViolation(AssertionError):
    """A protocol invariant failed.  ``invariant`` names the check;
    ``context`` carries the offending values."""

    def __init__(self, invariant: str, message: str, **context):
        self.invariant = invariant
        self.context = dict(context)
        detail = ", ".join("%s=%r" % kv for kv in sorted(context.items()))
        super().__init__("[%s] %s%s" % (invariant, message,
                                        (" (%s)" % detail) if detail else ""))


class NullSanitizer:
    """Disabled sanitizer: ``enabled`` False, every method a no-op.

    Shared as :data:`NULL_SANITIZER`.  Call sites guard with
    ``if san.enabled:`` before building check arguments, so the disabled
    hot path never allocates — the same contract the telemetry layer's
    ``NULL_TELEMETRY`` makes, enforced by the same overhead gate style
    (``tools/check_overhead.py``).
    """

    enabled = False

    def check_transmit(self, path, pn, size, window_disciplined=True):
        pass

    def check_scheduler_targets(self, targets, size, now):
        pass

    def check_ack_plausible(self, path, largest):
        pass

    def check_ranges(self, ranges, policy):
        pass

    def check_queue_post_expire(self, entries, now, t_expire):
        pass

    def check_plan(self, n_lost, plan, policy):
        pass

    def check_range_recovery(self, rng, now, t_expire):
        pass

    def check_decode_complete(self, range_decoder):
        pass

    def check_path_transition(self, path_id, old, new, allowed):
        pass


#: The shared disabled handle every endpoint defaults to.
NULL_SANITIZER = NullSanitizer()


class ProtocolSanitizer:
    """Live invariant checker for one endpoint (or one shared run).

    State (last packet numbers, recovered-range memory) is per-instance;
    endpoints construct their own so concurrent tunnels in one process
    cannot cross-contaminate.
    """

    enabled = True

    def __init__(self, label: str = ""):
        self.label = label
        self.checks_run = 0
        self.violations = 0
        self._last_pn: Dict[int, int] = {}
        self._recovered_ids: Set[int] = set()
        self._recovered_order: Deque[int] = deque()

    # -- plumbing ---------------------------------------------------------------

    def _tick(self) -> None:
        self.checks_run += 1
        _TOTALS["checks"] += 1

    def _fail(self, invariant: str, message: str, **context):
        self.violations += 1
        _TOTALS["violations"] += 1
        if self.label:
            context.setdefault("endpoint", self.label)
        raise SanitizerViolation(invariant, message, **context)

    # -- transport level (transport/base.py) -------------------------------------

    def check_transmit(self, path, pn: int, size: int,
                       window_disciplined: bool = True) -> None:
        """Per-path packet-number monotonicity + cwnd send discipline.

        Packet numbers must be strictly increasing per path (each path is
        its own number space under the multipath draft).  When the client
        class promises window discipline, a send may only be initiated
        with the window open: after accounting the send,
        ``inflight - size <= cwnd`` must hold (the standard one-packet
        window-edge straddle is allowed; creep beyond it is not).
        """
        self._tick()
        last = self._last_pn.get(path.path_id, -1)
        if pn <= last:
            self._fail("pn-monotonic",
                       "packet number regressed on path %d" % path.path_id,
                       path=path.path_id, pn=pn, last_pn=last)
        self._last_pn[path.path_id] = pn
        if window_disciplined and path.cc.bytes_in_flight - size > path.cc.cwnd:
            self._fail("inflight-cwnd",
                       "send initiated with congestion window already full",
                       path=path.path_id, pn=pn, size=size,
                       inflight=path.cc.bytes_in_flight, cwnd=path.cc.cwnd)

    def check_scheduler_targets(self, targets, size: int, now: float) -> None:
        """Scheduler contract: distinct, usable paths with window for size."""
        self._tick()
        seen = set()
        for path in targets:
            if path.path_id in seen:
                self._fail("scheduler-distinct",
                           "scheduler returned path %d twice" % path.path_id,
                           path=path.path_id)
            seen.add(path.path_id)
            if not path.is_usable(now):
                self._fail("scheduler-usable",
                           "scheduler selected an unusable path",
                           path=path.path_id, now=now)
            if not path.can_send(size):
                self._fail("scheduler-window",
                           "scheduler selected a path without window",
                           path=path.path_id, size=size,
                           inflight=path.cc.bytes_in_flight, cwnd=path.cc.cwnd)

    def check_ack_plausible(self, path, largest: int) -> None:
        """An ACK may not acknowledge a packet number never sent."""
        self._tick()
        next_pn = path._next_packet_number
        if largest >= next_pn:
            self._fail("ack-unsent",
                       "ACK acknowledges pn %d but only %d packets were sent "
                       "on path %d" % (largest, next_pn, path.path_id),
                       path=path.path_id, largest=largest, next_pn=next_pn)

    # -- encode ranges (core/ranges.py) -------------------------------------------

    def check_ranges(self, ranges, policy) -> None:
        """§4.4.2 border rules on build_ranges output: every range is
        non-empty, within the r-packet cap, and ranges are disjoint and
        ordered by packet ID."""
        self._tick()
        prev_end = None
        for rng in ranges:
            if rng.count < 1:
                self._fail("range-nonempty", "empty encode range",
                           start=rng.start_id, count=rng.count)
            if rng.count > policy.max_packets:
                self._fail("range-rcap",
                           "range exceeds the r-packet border cap (§4.4.2)",
                           start=rng.start_id, count=rng.count,
                           max_packets=policy.max_packets)
            if prev_end is not None and rng.start_id < prev_end:
                self._fail("range-disjoint",
                           "encode ranges overlap or are unordered",
                           start=rng.start_id, prev_end=prev_end)
            prev_end = rng.end_id

    def check_queue_post_expire(self, entries, now: float, t_expire: float) -> None:
        """After expire(now), nothing older than t_expire may remain (§4.4.3)."""
        self._tick()
        for pkt in entries:
            if now - pkt.sent_time > t_expire:
                self._fail("expire-complete",
                           "stale packet survived queue expiry",
                           packet_id=pkt.packet_id, age=now - pkt.sent_time,
                           t_expire=t_expire)

    # -- one-shot recovery (core/recovery.py via core/endpoint.py) ----------------

    def check_plan(self, n_lost: int, plan, policy) -> None:
        """Recovery-plan budget invariants (§4.5.1–§4.5.2).

        The expected coded count is recomputed here from the paper's
        formula — independently of :func:`repro.core.recovery.coded_packet_count`
        — so a regression in either copy trips the check:

        * ``n' = 1`` when ``n == 1`` (systematic: a single original needs
          no decoding);
        * ``n' = n + k`` otherwise (k = 3 deployed, Theorem 4.1);
        * every per-path allocation stays strictly below ``rho * n'``;
        * the shot carries at least ``n'`` packets in total (and for
          ``n == 1``, exactly one copy per allocated path).
        """
        self._tick()
        expected = 1 if n_lost == 1 else n_lost + policy.extra_packets
        if plan.n_lost != n_lost:
            self._fail("plan-n", "plan built for a different range size",
                       n_lost=n_lost, plan_n=plan.n_lost)
        if plan.n_coded != expected:
            self._fail("plan-nprime",
                       "coded-packet budget violates n' = n + %d"
                       % policy.extra_packets,
                       n_lost=n_lost, n_coded=plan.n_coded, expected=expected)
        total = 0
        for alloc in plan.allocations:
            total += alloc.packets
            if alloc.packets < 1:
                self._fail("plan-alloc-positive",
                           "plan allocates zero packets to a path",
                           path=alloc.path_id)
            if n_lost > 1 and not alloc.packets < policy.rho * plan.n_coded:
                self._fail("plan-rho-cap",
                           "per-path allocation reaches rho * n' (§4.5.2)",
                           path=alloc.path_id, packets=alloc.packets,
                           rho=policy.rho, n_coded=plan.n_coded,
                           cap=policy.rho * plan.n_coded)
            if n_lost == 1 and alloc.packets != 1:
                self._fail("plan-single",
                           "n = 1 recovery must send exactly one copy per path",
                           path=alloc.path_id, packets=alloc.packets)
        if total < plan.n_coded:
            self._fail("plan-budget",
                       "shot carries fewer than n' coded packets",
                       total=total, n_coded=plan.n_coded)

    def check_range_recovery(self, rng, now: float, t_expire: float) -> None:
        """Range lifecycle: formed → recovered | expired, never re-recovered.

        Called at shot execution: every packet in the range must be fresh
        (recovering past ``t_expire`` wastes bandwidth newer frames need,
        §4.4.3) and must not have been part of an earlier one-shot
        (recovery forgets the range, §4.5.2 — a second shot is a
        lifecycle violation).  Records the IDs afterwards.
        """
        self._tick()
        if now - rng.last_sent_time > t_expire:
            self._fail("recover-expired",
                       "one-shot recovery of an expired range (§4.4.3)",
                       start=rng.start_id, count=rng.count,
                       age=now - rng.last_sent_time, t_expire=t_expire)
        for pid in rng.packet_ids():
            if pid in self._recovered_ids:
                self._fail("recover-once",
                           "packet recovered twice; one-shot recovery must "
                           "forget the range (§4.5.2)",
                           packet_id=pid, start=rng.start_id, count=rng.count)
        for pid in rng.packet_ids():
            self._recovered_ids.add(pid)
            self._recovered_order.append(pid)
        while len(self._recovered_order) > _ID_MEMORY:
            self._recovered_ids.discard(self._recovered_order.popleft())

    # -- decoder (core/rlnc.py) ----------------------------------------------------

    def check_decode_complete(self, range_decoder) -> None:
        """Theorem 4.1 exit condition: the coefficient matrix is genuinely
        full rank and in reduced row-echelon form.

        A complete range must hold exactly ``count`` pivots, one per
        column, and each stored coefficient vector must be the unit vector
        of its pivot column (full-rank RREF is the identity).  Anything
        else means Gaussian elimination corrupted state and the
        "recovered" payloads are garbage — the silent-QoE-degradation
        failure mode coding bugs produce.
        """
        self._tick()
        count = range_decoder.count
        pivots = range_decoder._pivots
        if len(pivots) != count:
            self._fail("decode-rank",
                       "range declared complete at rank %d < %d"
                       % (len(pivots), count),
                       start=range_decoder.start_id, count=count,
                       rank=len(pivots))
        if sorted(pivots.keys()) != list(range(count)):
            self._fail("decode-pivots",
                       "pivot columns are not exactly 0..n-1",
                       start=range_decoder.start_id,
                       pivots=sorted(pivots.keys()))
        for col, (vec, _row) in pivots.items():
            if int(vec[col]) != 1 or int(vec.sum()) != 1:
                self._fail("decode-rref",
                           "pivot row %d is not a unit vector; elimination "
                           "state corrupt" % col,
                           start=range_decoder.start_id, col=col,
                           vec=[int(v) for v in vec])

    # -- path health machine (multipath/path.py) -----------------------------------

    def check_path_transition(self, path_id: int, old: str, new: str, allowed) -> None:
        """Path-health lifecycle edges must be in the allowed set
        (``ACTIVE -> DEGRADED -> SUSPENDED -> PROBING -> ACTIVE``); a
        skipped or reversed edge means the degradation machine is
        corrupting state (e.g. un-suspending without a probe verdict)."""
        self._tick()
        if (old, new) not in allowed:
            self._fail("path-health-edge",
                       "illegal path-health transition %s -> %s on path %d"
                       % (old, new, path_id),
                       path=path_id, old=old, new=new)

    # -- reporting -------------------------------------------------------------------


def sanitizer_or_default(explicit=None, label: str = ""):
    """Resolve an endpoint's sanitizer.

    * a :class:`ProtocolSanitizer` (or anything with ``enabled``) passes
      through unchanged — callers may share one across endpoints;
    * ``True``/``False`` force-enables/disables;
    * ``None`` defers to the ``REPRO_SANITIZE`` env hook, constructing a
      fresh per-endpoint instance when on.
    """
    if explicit is None:
        explicit = env_enabled()
    if isinstance(explicit, bool):
        return ProtocolSanitizer(label=label) if explicit else NULL_SANITIZER
    return explicit
