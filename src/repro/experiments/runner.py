"""End-to-end experiment harness.

One call — :func:`run_stream` — builds the whole §8.3.1 testbed: synthetic
cellular traces, the 4-path emulator, a tunnel client/server pair for the
chosen transport, a video source feeding the client, and a video receiver
behind the server.  It runs the event loop for the session and returns a
:class:`StreamRunResult` with the QoE triple, the packet-delay
distribution, and the redundancy accounting the figures need.

Transports are selected by name; the registry covers every comparison arm
in the paper:

===============  ==============================================================
name             configuration
===============  ==============================================================
``cellfusion``   XNC: QoE loss detection + Q-RLNC one-shot recovery, minRTT,
                 BBR (aliases: ``xnc``)
``mpquic``       reliable in-order multipath QUIC, minRTT, BBR
``mptcp``        reliable in-order, minRTT, NewReno
``bonding``      5-tuple-hash single-interface UDP with failover
``minRTT``       reliable in-order, minRTT scheduler, BBR (Fig. 11 arm)
``RE``           reliable, fully redundant duplication (Fig. 11 arm)
``XLINK``        reliable, QoE-driven reinjection scheduler (Fig. 11 arm)
``ECF``          reliable, earliest-completion-first (Fig. 11 arm)
``pluribus``     proactive block erasure coding (Fig. 12 arm)
``fec``          proactive fixed-rate FEC, no feedback (the §4.1 strawman)
``xnc-no-rlnc``  XNC ablation: retransmit originals, no coding (Fig. 13a)
``xnc-pto-only`` XNC ablation: PTO-only loss detection (Fig. 13b)
===============  ==============================================================
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..baselines.bonding import BondingTunnelClient, build_bonding_paths
from ..baselines.pluribus import PluribusConfig, PluribusTunnelClient
from ..baselines.quic_fec import FecConfig, FecTunnelClient
from ..baselines.reliable import (
    InOrderTunnelServer,
    ReliableTunnelClient,
    UnorderedTunnelServer,
)
from ..core.endpoint import XncConfig, XncTunnelClient, XncTunnelServer
from ..core.loss_detection import QoeLossPolicy
from ..determinism import digest
from ..emulation.cellular import generate_fleet_traces
from ..emulation.emulator import MultipathEmulator
from ..emulation.events import EventLoop
from ..emulation.trace import LinkTrace
from ..multipath.path import PathManager, PathState
from ..multipath.scheduler.ecf import EcfScheduler
from ..multipath.scheduler.minrtt import MinRttScheduler
from ..multipath.scheduler.redundant import RedundantScheduler
from ..multipath.scheduler.xlink import XlinkScheduler
from ..obs import Telemetry
from ..quic.cc.bbr import BbrController
from ..quic.cc.newreno import NewRenoController
from ..video.qoe import QoeReport, _frame_status, analyze_qoe
from ..video.receiver import VideoReceiver
from ..video.source import VideoConfig, VideoSource

__all__ = [
    "TRANSPORT_NAMES",
    "StreamRunResult",
    "build_paths",
    "make_transport",
    "run_stream",
    "run_single_link_stream",
]

logger = logging.getLogger(__name__)


@dataclass
class StreamRunResult:
    """Everything the benchmarks read off one streaming session."""

    transport: str
    qoe: QoeReport
    packet_delays: List[float]
    redundancy_ratio: float
    frames_sent: int
    packets_sent: int
    packets_received: int
    client_stats: object
    uplink_loss_rates: Dict[int, float]
    duration: float
    #: Per-frame delivery status ("normal"/"corrupt"/"missing"), frame order.
    frame_statuses: List[str] = field(default_factory=list)
    #: Per-frame fraction of packets that never arrived (1.0 = frame gone).
    frame_loss_fractions: List[float] = field(default_factory=list)
    #: The run's :class:`~repro.obs.Telemetry` when enabled, else None.
    telemetry: Optional[Telemetry] = None
    #: Set when the client's stream watchdog declared a terminal stall.
    terminal_error: Optional[str] = None
    #: Fault-injection accounting when a plan was armed (applied/lifted/
    #: nat_flushes/active_end plus health-machine counters), else None.
    fault_summary: Optional[dict] = None

    @property
    def delivery_ratio(self) -> float:
        return self.packets_received / self.packets_sent if self.packets_sent else 0.0

    def digest(self) -> str:
        """Canonical content hash of what the session did
        (:func:`repro.determinism.digest`): every packet delay, the QoE
        triple, the packet totals, every client counter, the per-frame
        statuses and the terminal error."""
        return digest({
            "delays": self.packet_delays,
            "qoe": [self.qoe.avg_fps, self.qoe.stall_ratio, self.qoe.ssim],
            "packets": [self.packets_sent, self.packets_received],
            "stats": self.client_stats.as_dict(),
            "frames": self.frame_statuses,
            "terminal_error": self.terminal_error,
        })

    def censored_packet_delays(self, penalty: float = 1.0) -> List[float]:
        """Delay distribution with never-delivered packets censored at
        ``penalty`` seconds.

        Comparing raw delivered-only delays between transports with
        different delivery ratios is survivorship-biased: a transport that
        silently drops its slowest packets looks "faster".  Censoring
        charges each undelivered packet the deadline it missed.
        """
        missing = max(0, self.packets_sent - self.packets_received)
        return list(self.packet_delays) + [penalty] * missing


def build_paths(emulator: MultipathEmulator, cc_factory: Callable, names: Optional[Sequence[str]] = None) -> PathManager:
    """One PathState per emulator channel with the given controller."""
    manager = PathManager()
    for pid in emulator.path_ids():
        name = names[pid] if names else emulator.channels[pid].name
        manager.add(PathState(pid, name=name, cc=cc_factory(), initial_rtt=0.05))
    return manager


def _xnc_client(ablate: Optional[Callable[[XncConfig], XncConfig]] = None) -> Callable:
    """XNC client factory.  ``ablate`` must return a *copy* of the
    caller's config (``dataclasses.replace``), so an ablation arm never
    leaks into a later run that reuses the same ``XncConfig`` object."""
    def make(loop, emulator, paths, cfg, **obs):
        cfg = cfg or XncConfig()
        return XncTunnelClient(loop, emulator, paths,
                               ablate(cfg) if ablate else cfg, **obs)
    return make


def _reliable_client(scheduler_cls, rto_min: Optional[float] = None) -> Callable:
    def make(loop, emulator, paths, cfg, **obs):
        client = ReliableTunnelClient(loop, emulator, paths, scheduler_cls(), **obs)
        if rto_min is not None:
            client.rto_min = rto_min
        return client
    return make


def _make_bonding(loop, emulator, paths, cfg, **obs):
    return BondingTunnelClient(loop, emulator, **obs)


def _make_pluribus(loop, emulator, paths, cfg, **obs):
    return PluribusTunnelClient(loop, emulator, paths, PluribusConfig(), **obs)


def _make_fec(loop, emulator, paths, cfg, **obs):
    return FecTunnelClient(loop, emulator, paths, FecConfig(), **obs)


#: name -> (congestion controller per path, or None for a client that
#: builds its own paths; client factory; server class).
_TRANSPORTS: Dict[str, Tuple[Optional[type], Callable, type]] = {
    "cellfusion": (BbrController, _xnc_client(), XncTunnelServer),
    "xnc": (BbrController, _xnc_client(), XncTunnelServer),
    "mpquic": (BbrController, _reliable_client(MinRttScheduler), InOrderTunnelServer),
    # kernel TCP RTO_min
    "mptcp": (NewRenoController, _reliable_client(MinRttScheduler, rto_min=0.200),
              InOrderTunnelServer),
    "bonding": (None, _make_bonding, UnorderedTunnelServer),
    "minRTT": (BbrController, _reliable_client(MinRttScheduler), InOrderTunnelServer),
    "RE": (BbrController, _reliable_client(RedundantScheduler), InOrderTunnelServer),
    "XLINK": (BbrController, _reliable_client(XlinkScheduler), InOrderTunnelServer),
    "ECF": (BbrController, _reliable_client(EcfScheduler), InOrderTunnelServer),
    "pluribus": (BbrController, _make_pluribus, XncTunnelServer),
    "fec": (BbrController, _make_fec, XncTunnelServer),
    "xnc-no-rlnc": (
        BbrController,
        _xnc_client(lambda cfg: replace(cfg, coding_enabled=False)),
        XncTunnelServer),
    "xnc-pto-only": (
        BbrController,
        _xnc_client(lambda cfg: replace(
            cfg, loss_policy=QoeLossPolicy(app_threshold=None))),
        XncTunnelServer),
}

TRANSPORT_NAMES = tuple(_TRANSPORTS)


def make_transport(
    name: str,
    loop: EventLoop,
    emulator: MultipathEmulator,
    receiver_sink: Callable[[int, bytes, float], None],
    xnc_config: Optional[XncConfig] = None,
    telemetry: Optional[Telemetry] = None,
    sanitize=None,
) -> Tuple[object, object]:
    """Instantiate (client, server) for a registry name.

    ``sanitize`` follows :func:`repro.sanitizer.sanitizer_or_default`
    semantics: ``None`` defers to the ``REPRO_SANITIZE`` env hook,
    ``True``/``False`` force it, and a sanitizer instance is shared.
    """
    try:
        cc_class, make_client, server_class = _TRANSPORTS[name]
    except KeyError:
        raise ValueError("unknown transport %r (choose from %s)"
                         % (name, ", ".join(TRANSPORT_NAMES))) from None
    paths = build_paths(emulator, cc_class) if cc_class is not None else None
    client = make_client(loop, emulator, paths, xnc_config,
                         telemetry=telemetry, sanitizer=sanitize)
    server = server_class(loop, emulator, receiver_sink,
                          telemetry=telemetry, sanitizer=sanitize)
    return client, server


def run_stream(
    transport: str,
    uplink_traces: Optional[Sequence[LinkTrace]] = None,
    video: Optional[VideoConfig] = None,
    duration: float = 30.0,
    seed: int = 0,
    xnc_config: Optional[XncConfig] = None,
    drain_time: float = 1.5,
    telemetry: Union[bool, Telemetry] = False,
    sanitize=None,
    faults=None,
    fault_seed: int = 0,
    spans: bool = False,
) -> StreamRunResult:
    """Run one streaming session end to end and analyse it.

    ``uplink_traces`` defaults to a fresh 2x5G + 2xLTE fleet for ``seed``.
    The loop runs ``duration`` seconds of streaming plus ``drain_time`` for
    stragglers, then QoE is computed over the emitted frames.

    ``telemetry`` opts into the observability layer: pass ``True`` for a
    fresh :class:`~repro.obs.Telemetry` (or a pre-configured instance) and
    the result's ``telemetry`` field carries the lifecycle trace, metrics,
    and per-path timelines of the run.  The default ``False`` threads the
    shared no-op handle through, costing one branch per instrumented site.

    ``sanitize`` arms the runtime protocol sanitizer
    (:mod:`repro.sanitizer`): ``True`` gives each endpoint a fresh
    checker that raises :class:`~repro.sanitizer.SanitizerViolation` on
    the first invariant breach; the default ``None`` defers to the
    ``REPRO_SANITIZE`` environment hook; ``False`` forces it off.
    Arming it also arms the module-state leak guard
    (:mod:`repro.sanitizer.stateguard`): registered module globals are
    fingerprinted before the session and verified after it, so drift
    that would diverge worker shards fails the run with a
    ``state-leak`` violation.

    ``faults`` arms deterministic fault injection: pass a
    :class:`~repro.faults.FaultPlan` and the events are compiled onto
    the loop before streaming starts (randomness drawn from
    ``fault_seed``, independent of the trace RNGs).  The result's
    ``fault_summary`` then carries the injector and health-machine
    accounting.

    ``spans`` arms causal span tracing on top of telemetry (implying
    ``telemetry=True`` when it was off): every frame, packet,
    transmission, coding range, and decode event becomes a
    sim-clock span with parent/cause links, readable off
    ``result.telemetry.spans`` (export with
    :meth:`~repro.obs.SpanRecorder.export_jsonl` /
    :meth:`~repro.obs.SpanRecorder.export_chrome_trace`).
    """
    from ..sanitizer.stateguard import state_guard_or_default

    state_guard = state_guard_or_default(sanitize)
    state_before = state_guard.snapshot() if state_guard.enabled else None
    loop = EventLoop()
    tel: Optional[Telemetry]
    if telemetry is True or (spans and not telemetry):
        tel = Telemetry()
    elif telemetry:
        tel = telemetry
    else:
        tel = None
    if tel is not None:
        tel.bind_clock(loop)
        if spans:
            tel.enable_spans()
    if uplink_traces is None:
        uplink_traces = generate_fleet_traces(duration=duration, seed=seed)
    emulator = MultipathEmulator(loop, uplink_traces, seed=seed, telemetry=tel)
    receiver = VideoReceiver(telemetry=tel)
    client, server = make_transport(
        transport, loop, emulator, receiver.on_app_packet, xnc_config,
        telemetry=tel, sanitize=sanitize,
    )
    if tel is not None:
        tel.start_sampling(loop, client.paths, emulator=emulator)
    injector = None
    if faults is not None:
        from ..faults.engine import FaultInjector

        injector = FaultInjector(loop, emulator, faults, seed=fault_seed, telemetry=tel)
        injector.arm()
    logger.debug("run_stream transport=%s duration=%.1fs seed=%d telemetry=%s faults=%d",
                 transport, duration, seed, tel is not None,
                 len(faults) if faults is not None else 0)

    video_cfg = video or VideoConfig()
    source = VideoSource(loop, client.send_app_burst, video_cfg, telemetry=tel)
    source.start(first_delay=0.01)

    loop.run_until(duration)
    source.stop()
    loop.run_until(duration + drain_time)
    client.close()
    server.close()
    if state_guard.enabled:
        state_guard.verify(state_before)
    if tel is not None and tel.spans.enabled:
        tel.spans.finish(loop.now)
    if tel is not None:
        tel.stop_sampling()
        tel.observe_many("e2e.packet_delay", receiver.packet_delays)
        tel.record_stats("client", client.stats)
        if hasattr(server, "decoder"):
            tel.record_stats("decode", server.decoder.stats)
        for pid, s in emulator.uplink_stats().items():
            tel.record_stats("link.up.%d" % pid, s)
        for pid, s in emulator.downlink_stats().items():
            tel.record_stats("link.down.%d" % pid, s)

    frames = receiver.frame_records(total_frames=source.frames_emitted)
    qoe = analyze_qoe(frames, video_cfg.fps, duration=duration)
    statuses = [_frame_status(f) for f in frames]
    frame_loss = [
        (1.0 - f.received_fraction) if f.expected_packets else 1.0 for f in frames
    ]
    uplink_loss = {pid: s.loss_rate for pid, s in emulator.uplink_stats().items()}
    fault_summary = None
    if injector is not None:
        fault_summary = {
            "applied": injector.applied,
            "lifted": injector.lifted,
            "nat_flushes": injector.nat_flushes,
            "active_end": injector.active_count(),
            "health_transitions": getattr(getattr(client, "health", None),
                                          "transitions", 0),
            "final_health": [getattr(p, "health", "active")
                             for p in getattr(client, "paths", [])],
        }
    return StreamRunResult(
        transport=transport,
        qoe=qoe,
        packet_delays=receiver.packet_delays,
        redundancy_ratio=client.stats.redundancy_ratio,
        frames_sent=source.frames_emitted,
        packets_sent=source.packets_emitted,
        packets_received=receiver.packets_received,
        client_stats=client.stats,
        uplink_loss_rates=uplink_loss,
        duration=duration,
        frame_statuses=statuses,
        frame_loss_fractions=frame_loss,
        telemetry=tel,
        terminal_error=getattr(client, "terminal_error", None),
        fault_summary=fault_summary,
    )


def run_single_link_stream(
    trace: LinkTrace,
    video: Optional[VideoConfig] = None,
    duration: float = 30.0,
    seed: int = 0,
) -> StreamRunResult:
    """Stream over one cellular link only (the §2.2 / Fig. 3 setup).

    Uses the plain-UDP bonding client pinned to the single path — i.e. the
    'today's single-carrier connectivity' baseline.
    """
    return run_stream("bonding", [trace], video=video, duration=duration, seed=seed)
