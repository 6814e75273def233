"""Per-path transport state for multipath QUIC.

Following the IETF multipath draft the paper builds on, each path has its
own packet-number space, RTT estimator, and congestion controller.  The
:class:`PathState` bundles those for the schedulers and the recovery
planner; :class:`PathManager` owns the set.

Beyond the instantaneous ``potentially_failed`` heuristic, every path
carries an explicit **health state machine** (see docs/robustness.md)::

    ACTIVE -> DEGRADED -> SUSPENDED -> PROBING -> ACTIVE
                 \\-> ACTIVE            \\-> SUSPENDED (probe lost, backoff x2)

driven by ACK silence measured in PTOs and a per-path loss-rate EWMA.
``SUSPENDED``/``PROBING`` paths are excluded from scheduling and from the
recovery planner's ``rho``-capped spread (both go through
:meth:`PathState.is_usable`), so the budget re-normalises over surviving
paths.  Probes are scheduled with exponential backoff plus seeded jitter
by :class:`PathHealthMonitor`; the transport sends them (one PingFrame
per probe window) and the ACK — or its absence — drives the next edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..determinism import seeded_rng
from ..quic.cc.base import CongestionController
from ..quic.cc.bbr import BbrController
from ..quic.rtt import RttEstimator

__all__ = [
    "HEALTH_ACTIVE",
    "HEALTH_DEGRADED",
    "HEALTH_SUSPENDED",
    "HEALTH_PROBING",
    "ALLOWED_HEALTH_TRANSITIONS",
    "PathHealthConfig",
    "PathHealthMonitor",
    "PathState",
    "PathManager",
]

#: A path with no ACK for this many PTOs is considered potentially failed
#: and deprioritised for first transmissions.
PATH_FAILURE_PTOS = 3.0

# -- path health state machine ------------------------------------------------

HEALTH_ACTIVE = "active"        #: normal service
HEALTH_DEGRADED = "degraded"    #: lossy/quiet but still schedulable
HEALTH_SUSPENDED = "suspended"  #: excluded from scheduling, awaiting probe
HEALTH_PROBING = "probing"      #: one probe in flight, awaiting verdict

#: The only legal health edges; anything else is a sanitizer violation
#: (``path-health-edge``).
ALLOWED_HEALTH_TRANSITIONS = frozenset([
    (HEALTH_ACTIVE, HEALTH_DEGRADED),
    (HEALTH_DEGRADED, HEALTH_ACTIVE),
    (HEALTH_DEGRADED, HEALTH_SUSPENDED),
    (HEALTH_SUSPENDED, HEALTH_PROBING),
    (HEALTH_PROBING, HEALTH_ACTIVE),
    (HEALTH_PROBING, HEALTH_SUSPENDED),
])


@dataclass
class PathHealthConfig:
    """Thresholds and probe schedule of the health state machine.

    Silence thresholds are in PTOs (scale with the path's own RTT); loss
    thresholds apply to the per-path EWMA over ack/lost outcomes.
    """

    #: EWMA weight of one ack/lost sample.
    ewma_alpha: float = 0.1
    #: ACTIVE -> DEGRADED when ACK silence exceeds this many PTOs
    #: (matches the legacy ``potentially_failed`` deprioritisation).
    degrade_silence_ptos: float = PATH_FAILURE_PTOS
    #: DEGRADED -> SUSPENDED when silence exceeds this many PTOs.
    suspend_silence_ptos: float = 8.0
    #: ACTIVE -> DEGRADED when the loss EWMA reaches this.
    degrade_loss: float = 0.5
    #: DEGRADED -> ACTIVE needs the loss EWMA back at or below this.
    recover_loss: float = 0.2
    #: First SUSPENDED dwell before a probe, in seconds.
    probe_backoff_initial: float = 0.5
    #: Backoff multiplier applied after every failed probe.
    probe_backoff_factor: float = 2.0
    #: Backoff ceiling in seconds.
    probe_backoff_max: float = 10.0
    #: Uniform jitter fraction added to each backoff (from the seeded RNG).
    probe_jitter: float = 0.25
    #: PROBING -> SUSPENDED when no ACK arrives within this many PTOs.
    probe_timeout_ptos: float = 3.0

    def __post_init__(self):
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must lie in (0, 1]")
        if self.suspend_silence_ptos <= self.degrade_silence_ptos:
            raise ValueError("suspend_silence_ptos must exceed degrade_silence_ptos")
        if not 0.0 <= self.recover_loss <= self.degrade_loss <= 1.0:
            raise ValueError("need 0 <= recover_loss <= degrade_loss <= 1")
        if self.probe_backoff_initial <= 0 or self.probe_backoff_max < self.probe_backoff_initial:
            raise ValueError("probe backoff bounds are inconsistent")
        if self.probe_backoff_factor < 1.0:
            raise ValueError("probe_backoff_factor must be >= 1")
        if self.probe_jitter < 0:
            raise ValueError("probe_jitter must be >= 0")


class PathState:
    """Sender-side state of one path (one cellular interface)."""

    def __init__(
        self,
        path_id: int,
        name: str = "",
        cc: Optional[CongestionController] = None,
        initial_rtt: float = 0.1,
    ):
        self.path_id = path_id
        self.name = name or ("path-%d" % path_id)
        self.cc = cc if cc is not None else BbrController()
        self.rtt = RttEstimator(initial_rtt=initial_rtt)
        self._next_packet_number = 0
        self.last_ack_time = 0.0
        self.last_send_time = 0.0
        #: Sim time of the very first transmission; anchors ACK-silence
        #: measurements for paths that have never been ACKed (a path added
        #: mid-run must not measure its quiet time from t=0).
        self.first_send_time = -1.0
        self.packets_sent = 0
        self.packets_acked = 0
        self.packets_lost = 0
        self.bytes_sent = 0
        self.enabled = True
        # -- health state machine (driven by PathHealthMonitor) ----------
        self.health = HEALTH_ACTIVE
        #: Sim time of the last health transition.
        self.health_since = 0.0
        #: EWMA over per-packet outcomes (ack=0, lost=1).
        self.loss_ewma = 0.0
        #: Set on SUSPENDED -> PROBING; the transport sends one probe and
        #: clears it.
        self.probe_pending = False
        #: Monitor-managed probe schedule (absolute time / current backoff).
        self.probe_next_time = 0.0
        self.probe_backoff = 0.0
        self.probes_sent = 0
        #: EWMA weight; PathHealthMonitor overwrites from its config.
        self.loss_ewma_alpha = 0.1

    def next_packet_number(self) -> int:
        n = self._next_packet_number
        self._next_packet_number += 1
        return n

    @property
    def smoothed_rtt(self) -> float:
        return self.rtt.smoothed_rtt

    def on_sent(self, size: int, now: float) -> None:
        self.cc.on_sent(size, now)
        if self.first_send_time < 0.0:
            self.first_send_time = now
        self.last_send_time = now
        self.packets_sent += 1
        self.bytes_sent += size

    def on_acked(self, sizes: Sequence[int], rtts: Sequence[float], now: float,
                 ack_delay: Optional[float] = None) -> None:
        """One ACK frame's newly acknowledged packets: their sizes and RTTs
        (parallel sequences) in the order the congestion controller is to
        replay them.

        When the frame's largest-acknowledged packet is among them it
        comes first and ``ack_delay`` is given: it is the RTT sample and
        the delivery outcome the loss EWMA folds in.
        """
        if ack_delay is not None:
            self.rtt.update(rtts[0], ack_delay)
            self.loss_ewma += self.loss_ewma_alpha * (0.0 - self.loss_ewma)
        self.cc.on_ack(sizes, rtts, now)
        self.last_ack_time = now
        self.packets_acked += len(sizes)

    def on_lost(self, size: int, now: float) -> None:
        self.cc.on_loss(size, now)
        self.packets_lost += 1
        self.loss_ewma += self.loss_ewma_alpha * (1.0 - self.loss_ewma)

    @property
    def loss_rate(self) -> float:
        """Fraction of sent packets declared lost so far (timeline metric)."""
        return self.packets_lost / self.packets_sent if self.packets_sent else 0.0

    def ack_silence(self, now: float) -> float:
        """Seconds since the last ACK while data is outstanding (0 when
        nothing is waiting for one).

        A path that has sent but never been ACKed measures from its
        *first transmission*, not from t=0 — otherwise a path added
        mid-run is instantly declared failed (the cold-start bug).
        """
        if self.packets_sent == 0:
            return 0.0
        last_ack = self.last_ack_time
        if self.cc.bytes_in_flight <= 0 and self.last_send_time <= last_ack:
            return 0.0
        return now - (last_ack if last_ack > 0.0 else self.first_send_time)

    def potentially_failed(self, now: float) -> bool:
        """Heuristic liveness: no ACK for several PTOs while data was sent."""
        quiet = self.ack_silence(now)
        return quiet > 0.0 and quiet > PATH_FAILURE_PTOS * self.rtt.pto()

    def is_usable(self, now: float) -> bool:
        """Usable for transmission: enabled, in service, not apparently dead.

        ``SUSPENDED`` and ``PROBING`` paths are out of service: schedulers
        skip them and the recovery planner's rho-capped spread
        re-normalises over the remaining paths.  Probe traffic bypasses
        this check deliberately.
        """
        if not self.enabled or self.health in (HEALTH_SUSPENDED, HEALTH_PROBING):
            return False
        return not self.potentially_failed(now)

    def can_send(self, size: int) -> bool:
        return self.enabled and self.cc.can_send(size)


class PathManager:
    """The sender's set of paths."""

    def __init__(self, paths: Optional[List[PathState]] = None):
        self._paths: Dict[int, PathState] = {}
        # id-sorted view, rebuilt only when the path set changes — these
        # accessors run on every scheduling decision and tick
        self._sorted: List[PathState] = []
        for p in paths or []:
            self.add(p)

    def add(self, path: PathState) -> None:
        if path.path_id in self._paths:
            raise ValueError("duplicate path id %d" % path.path_id)
        self._paths[path.path_id] = path
        self._sorted = sorted(self._paths.values(), key=lambda p: p.path_id)

    def get(self, path_id: int) -> PathState:
        return self._paths[path_id]

    def __iter__(self):
        return iter(self._sorted)

    def all(self) -> List[PathState]:
        # callers may reorder the returned list (schedulers do), so hand
        # out a copy of the cached view
        return list(self._sorted)

    def usable(self, now: float) -> List[PathState]:
        """The paths in service at ``now``, in id order: what a scheduler
        chooses among (a fresh list; the transport edits it in place)."""
        return [p for p in self._sorted if p.is_usable(now)]


class PathHealthMonitor:
    """Drives every path's health state machine off the transport tick.

    One monitor per tunnel client.  :meth:`tick` evaluates each path
    against :class:`PathHealthConfig` thresholds and applies at most one
    legal edge per path per tick, returning the transitions so the
    transport can act on them (send a probe on ``SUSPENDED -> PROBING``).
    Probe backoff is exponential with jitter drawn from the seeded RNG,
    so reruns are byte-identical for a given seed.  Every edge is emitted
    as a ``path_health`` telemetry event and validated against
    :data:`ALLOWED_HEALTH_TRANSITIONS` by the sanitizer when armed.
    """

    def __init__(self, paths: PathManager, config: Optional[PathHealthConfig] = None,
                 seed: int = 0, telemetry=None, sanitizer=None):
        if telemetry is None:
            from ..obs import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        if sanitizer is None:
            from ..sanitizer import NULL_SANITIZER

            sanitizer = NULL_SANITIZER
        self.paths = paths
        self.config = config if config is not None else PathHealthConfig()
        self.telemetry = telemetry
        self.sanitizer = sanitizer
        self.transitions = 0
        self._rng = seeded_rng(seed, "path-health")
        for p in paths:
            p.loss_ewma_alpha = self.config.ewma_alpha

    # -- schedule helpers --------------------------------------------------

    def _next_probe_delay(self, backoff: float) -> float:
        return backoff * (1.0 + self.config.probe_jitter * self._rng.random())

    def _transition(self, path: PathState, new: str, now: float, reason: str) -> None:
        old = path.health
        if self.sanitizer.enabled:
            self.sanitizer.check_path_transition(
                path.path_id, old, new, ALLOWED_HEALTH_TRANSITIONS)
        path.health = new
        path.health_since = now
        self.transitions += 1
        tel = self.telemetry
        if tel.enabled:
            tel.event(now, "path_health", path_id=path.path_id,
                      old=old, new=new, reason=reason,
                      loss_ewma=round(path.loss_ewma, 4),
                      silence=round(path.ack_silence(now), 6))
            tel.count("path.health.%s" % new)
            sp = tel.spans
            if sp.enabled:
                sp.instant("health", now, path=path.path_id,
                           old=old, new=new, reason=reason)

    # -- the machine -------------------------------------------------------

    def _evaluate(self, path: PathState, now: float) -> Optional[Tuple[PathState, str, str]]:
        cfg = self.config
        old = path.health
        if old == HEALTH_ACTIVE:
            silence = path.ack_silence(now)
            if silence > cfg.degrade_silence_ptos * path.rtt.pto():
                self._transition(path, HEALTH_DEGRADED, now, "ack_silence")
            elif path.loss_ewma >= cfg.degrade_loss:
                self._transition(path, HEALTH_DEGRADED, now, "loss_ewma")
            else:
                return None
        elif old == HEALTH_DEGRADED:
            silence = path.ack_silence(now)
            pto = path.rtt.pto()
            if silence > cfg.suspend_silence_ptos * pto:
                path.probe_backoff = cfg.probe_backoff_initial
                path.probe_next_time = now + self._next_probe_delay(path.probe_backoff)
                self._transition(path, HEALTH_SUSPENDED, now, "ack_silence")
            elif (silence <= cfg.degrade_silence_ptos * pto
                  and path.loss_ewma <= cfg.recover_loss):
                self._transition(path, HEALTH_ACTIVE, now, "recovered")
            else:
                return None
        elif old == HEALTH_SUSPENDED:
            if now >= path.probe_next_time:
                path.probe_pending = True
                self._transition(path, HEALTH_PROBING, now, "probe_due")
            else:
                return None
        else:  # HEALTH_PROBING
            if path.last_ack_time > path.health_since:
                # the probe (or any straggler) was ACKed: back in service
                path.probe_pending = False
                path.loss_ewma = 0.0
                path.probe_backoff = 0.0
                self._transition(path, HEALTH_ACTIVE, now, "probe_acked")
            elif now - path.health_since > self.config.probe_timeout_ptos * path.rtt.pto():
                path.probe_pending = False
                path.probe_backoff = min(
                    path.probe_backoff * cfg.probe_backoff_factor,
                    cfg.probe_backoff_max)
                path.probe_next_time = now + self._next_probe_delay(path.probe_backoff)
                self._transition(path, HEALTH_SUSPENDED, now, "probe_timeout")
            else:
                return None
        return (path, old, path.health)

    def tick(self, now: float) -> List[Tuple[PathState, str, str]]:
        """Evaluate every path; returns the transitions applied."""
        out: List[Tuple[PathState, str, str]] = []
        for path in self.paths:
            if not path.enabled:
                continue
            moved = self._evaluate(path, now)
            if moved is not None:
                out.append(moved)
        return out
