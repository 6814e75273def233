"""Per-vehicle simulation: one seeded tunnel session -> one payload dict.

A vehicle's entire behaviour is a pure function of its
:class:`VehicleSpec` (itself derived from the fleet seed as
``derive_seed(fleet_seed, "vehicle", vid)``) and the
:class:`~repro.fleet.config.FleetConfig`.  Nothing here reads fleet
state: the control plane already baked placement into the spec, so a
vehicle simulates identically whether it runs inline, in shard 0 of 2,
or in shard 3 of 4 — the property the shard-invariance suite pins.

Two fidelities (``config.mode``):

* ``tunnel`` — a full :func:`~repro.experiments.runner.run_stream`
  session: real XNC/RLNC tunnel, 4-path cellular emulator, video
  source, optional per-vehicle fault plan.
* ``lite`` — a closed-form seeded QoE draw with no event loop, ~1000x
  cheaper, for 1k-10k-vehicle scale runs.  Same payload shape, same
  aggregation pipeline.

The payload is plain JSON-able data (the shard boundary is a process
boundary): a lossless :class:`~repro.obs.RunAggregate` state plus the
scalar summary row the fleet report prints.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Optional, Tuple

from ..determinism import derive_seed, seeded_rng
from ..obs.aggregate import RunAggregate

__all__ = [
    "UNPLACED_ACCESS_DELAY",
    "VehicleSpec",
    "simulate_vehicle",
]

#: Access delay charged to vehicles the controller could not place (no
#: PoP capacity): the long-haul fallback path, far worse than any PoP.
UNPLACED_ACCESS_DELAY = 0.030

#: Lite-mode synthetic stream shape.
LITE_FPS = 30.0
LITE_PACKETS_PER_FRAME = 4


@dataclass
class VehicleSpec:
    """One vehicle's placement-time identity, fixed by the control plane."""

    vid: int
    #: run_stream seed: ``derive_seed(fleet_seed, "vehicle", vid)``.
    seed: int
    device_id: str
    join_time: float
    location: Tuple[float, float]
    #: Chosen PoP (None when the controller had no capacity anywhere).
    pop_id: Optional[str]
    #: One-way vehicle->PoP delay, added onto tunnel delays end to end.
    access_delay: float
    #: Whether this vehicle streams under a seeded random fault plan.
    faulted: bool = False
    fault_seed: int = 0


def _lite_payload(spec: VehicleSpec, config) -> dict:
    """Closed-form seeded vehicle: no event loop, same payload shape."""
    rng = seeded_rng(spec.seed, "lite")
    frames = max(1, int(config.duration * LITE_FPS))
    # per-vehicle radio quality: loss probability and delay scale drawn
    # once, then per-packet outcomes drawn from the same stream
    loss_p = 0.004 + 0.045 * rng.random()
    if spec.faulted:
        loss_p = min(0.9, loss_p * (2.0 + 3.0 * seeded_rng(
            spec.fault_seed, "lite-fault", spec.vid).random()))
    base_delay = 0.012 + 0.010 * rng.random()
    sent = 0
    received = 0
    delays = []
    status_counts = {"normal": 0, "corrupt": 0, "missing": 0}
    for _ in range(frames):
        lost = 0
        for _ in range(LITE_PACKETS_PER_FRAME):
            sent += 1
            if rng.random() < loss_p:
                lost += 1
            else:
                received += 1
                delays.append(base_delay + rng.expovariate(120.0))
        if lost == 0:
            status_counts["normal"] += 1
        elif lost < LITE_PACKETS_PER_FRAME:
            status_counts["corrupt"] += 1
        else:
            status_counts["missing"] += 1

    agg = RunAggregate("lite")
    agg.runs = 1
    agg.duration = config.duration
    agg.frames_sent = frames
    agg.frame_status = {k: v for k, v in status_counts.items() if v}
    agg.packets_sent = sent
    agg.packets_received = received
    censored = delays + [1.0] * (sent - received)
    agg.metrics.observe_many("delay.packet", censored)
    agg.metrics.observe_many("delay.e2e",
                             [d + spec.access_delay for d in censored])
    ok = status_counts["normal"] + status_counts["corrupt"]
    qoe = {
        "avg_fps": LITE_FPS * ok / frames,
        "stall_ratio": status_counts["missing"] / frames,
        "ssim": max(0.0, 0.99 - 0.4 * status_counts["corrupt"] / frames
                    - 0.9 * status_counts["missing"] / frames),
    }
    return {
        "vid": spec.vid,
        "pop": spec.pop_id,
        "access_delay": spec.access_delay,
        "qoe": qoe,
        "frames_sent": frames,
        "packets_sent": sent,
        "packets_received": received,
        "terminal_error": None,
        "faults_applied": 1 if spec.faulted else 0,
        "aggregate": agg.state_dict(),
    }


def _tunnel_payload(spec: VehicleSpec, config) -> dict:
    """Full seeded run_stream session for one vehicle."""
    from ..experiments.runner import run_stream
    from ..video.source import VideoConfig

    plan = None
    if spec.faulted:
        from ..faults.plan import random_plan

        # random_plan needs >1 s of room; clamp for very short samples
        plan = random_plan(spec.fault_seed,
                           duration=max(1.25, config.duration))
    result = run_stream(
        config.transport,
        duration=config.duration,
        seed=spec.seed,
        video=VideoConfig(bitrate_mbps=config.bitrate_mbps,
                          seed=derive_seed(spec.seed, "video")),
        sanitize=True if config.sanitize else None,
        faults=plan,
        fault_seed=spec.fault_seed,
    )
    # The finished session (endpoints <-> emulator <-> event loop) is one
    # reference cycle that refcounting cannot free.  Collect it before the
    # next vehicle: a shard's peak memory is then one session, not however
    # many the allocation-count heuristic lets pile up.
    gc.collect()
    agg = RunAggregate().add_result(result)
    agg.metrics.observe_many(
        "delay.e2e",
        [d + spec.access_delay for d in result.censored_packet_delays()])
    return {
        "vid": spec.vid,
        "pop": spec.pop_id,
        "access_delay": spec.access_delay,
        "qoe": {
            "avg_fps": result.qoe.avg_fps,
            "stall_ratio": result.qoe.stall_ratio,
            "ssim": result.qoe.ssim,
        },
        "frames_sent": result.frames_sent,
        "packets_sent": result.packets_sent,
        "packets_received": result.packets_received,
        "terminal_error": result.terminal_error,
        "faults_applied": (result.fault_summary or {}).get("applied", 0),
        "aggregate": agg.state_dict(),
    }


def simulate_vehicle(spec: VehicleSpec, config) -> dict:
    """Simulate one vehicle; returns its JSON-able payload.

    Pure in (spec, config): no module state read or written, no RNG
    shared with any other vehicle — safe to run in any process, in any
    order.
    """
    if config.mode == "lite":
        return _lite_payload(spec, config)
    return _tunnel_payload(spec, config)
