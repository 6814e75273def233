"""Compile a :class:`~repro.faults.plan.FaultPlan` onto the event loop.

The :class:`FaultInjector` owns every piece of mutable fault state so the
data plane stays clean: links expose one ``fault`` attribute (``None``
when healthy — see :class:`repro.emulation.link.LinkFaultState`), NAT
tables expose :meth:`~repro.cloud.nat.SnatTable.flush`, and the injector
schedules begin/end callbacks that maintain them.

Overlapping windows compose on each link through the usual independence
algebra — loss ``1-∏(1-lᵢ)``, delay ``Σ``, bandwidth ``∏ scaleᵢ``,
reorder jitter ``max``, duplication ``1-∏(1-pᵢ)`` — recomputed whenever
an event begins or ends, so lifting one brownout under a blackout leaves
the blackout intact.

Fault randomness draws from per-link streams seeded by
``(fault_seed, "link", path_id, direction)``: arming a plan never
perturbs the trace-loss RNGs, and the same ``--fault-seed`` replays the
same adversity byte for byte.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..determinism import seeded_rng
from ..emulation.emulator import MultipathEmulator
from ..emulation.events import EventLoop
from ..emulation.link import EmulatedLink, LinkFaultState
from .plan import FaultEvent, FaultPlan

__all__ = [
    "FaultInjector",
]


class _Effect:
    """One event's contribution to one link, alive while the window is."""

    __slots__ = ("loss", "delay", "bw_scale", "jitter", "dup")

    def __init__(self, loss=0.0, delay=0.0, bw_scale=1.0, jitter=0.0, dup=0.0):
        self.loss = loss
        self.delay = delay
        self.bw_scale = bw_scale
        self.jitter = jitter
        self.dup = dup


def _effect_for(event: FaultEvent) -> Optional[_Effect]:
    """The link-level effect of one event; None for pure middlebox kinds."""
    k = event.kind
    if k in ("blackout", "ack_blackout", "pop_handover"):
        return _Effect(loss=1.0)
    if k in ("brownout", "burst_loss"):
        return _Effect(loss=event.severity)
    if k == "rtt_spike":
        return _Effect(delay=event.delay)
    if k == "bandwidth_cliff":
        return _Effect(bw_scale=event.scale)
    if k == "reorder":
        return _Effect(jitter=event.jitter)
    if k == "duplicate":
        return _Effect(dup=event.prob)
    return None  # nat_rebind


class FaultInjector:
    """Applies a fault plan to a :class:`MultipathEmulator`.

    Build it after the emulator, then :meth:`arm` before running the
    loop.  Counters (``applied``/``lifted``/``nat_flushes``) and
    :meth:`active_count` let soak harnesses assert the overlay drains
    back to nothing.
    """

    def __init__(
        self,
        loop: EventLoop,
        emulator: MultipathEmulator,
        plan: FaultPlan,
        seed: int = 0,
        telemetry=None,
    ):
        if telemetry is None:
            from ..obs import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self.loop = loop
        self.emulator = emulator
        self.plan = plan
        self.seed = seed
        self.telemetry = telemetry
        self.applied = 0
        self.lifted = 0
        self.nat_flushes = 0
        self._armed = False
        self._active: Dict[EmulatedLink, List[_Effect]] = {}
        self._states: Dict[EmulatedLink, LinkFaultState] = {}
        # the live _Effect of each in-window event, keyed by event identity
        # (begin and end receive the same FaultEvent instance from arm())
        self._event_effects: Dict[int, _Effect] = {}
        # open causal fault span per in-window event, same key
        self._event_spans: Dict[int, int] = {}
        plan.validate(path_count=emulator.path_count)

    def arm(self) -> None:
        """Schedule every plan event's begin (and end) on the loop."""
        if self._armed:
            raise RuntimeError("fault injector is already armed")
        self._armed = True
        for event in self.plan:
            self.loop.schedule(event.start, self._begin, event)
            if event.duration > 0.0:
                self.loop.schedule(event.end, self._end, event)

    def active_count(self) -> int:
        """Currently-applied windowed effects across all links."""
        return sum(len(v) for v in self._active.values())

    # -- internals -------------------------------------------------------

    def _links_for(self, event: FaultEvent) -> List[EmulatedLink]:
        if event.kind == "ack_blackout":
            return self.emulator.links_for(event.path_id, "down")
        if event.kind == "pop_handover":
            return self.emulator.links_for(-1, "both")
        return self.emulator.links_for(event.path_id, event.direction)

    def _state_for(self, link: EmulatedLink) -> LinkFaultState:
        state = self._states.get(link)
        if state is None:
            rng = seeded_rng(self.seed, "link", link.path_id, link.direction)
            state = LinkFaultState(rng)
            self._states[link] = state
        return state

    def _recompute(self, link: EmulatedLink) -> None:
        effects = self._active.get(link)
        if not effects:
            link.fault = None
            return
        state = self._state_for(link)
        keep_loss = 1.0
        keep_dup = 1.0
        delay = 0.0
        bw = 1.0
        jitter = 0.0
        for e in effects:
            keep_loss *= 1.0 - e.loss
            keep_dup *= 1.0 - e.dup
            delay += e.delay
            bw *= e.bw_scale
            if e.jitter > jitter:
                jitter = e.jitter
        state.loss_prob = 1.0 - keep_loss
        state.dup_prob = 1.0 - keep_dup
        state.extra_delay = delay
        state.bw_scale = bw
        state.reorder_jitter = jitter
        link.fault = state

    def _flush_nats(self) -> int:
        """Count a NAT rebind; returns the mappings dropped, which is 0:
        no SNAT table is wired to the injector."""
        self.nat_flushes += 1
        return 0

    def _emit(self, event: FaultEvent, phase: str, **extra) -> None:
        tel = self.telemetry
        if tel.enabled:
            tel.event(self.loop.now, "fault", path_id=event.path_id,
                      fault=event.kind, phase=phase, direction=event.direction,
                      **extra)
            tel.count("fault.%s.%s" % (event.kind, phase))

    def _begin(self, event: FaultEvent) -> None:
        self.applied += 1
        if event.kind in ("nat_rebind", "pop_handover"):
            dropped = self._flush_nats()
            self._emit(event, "begin", nat_mappings_dropped=dropped)
        else:
            self._emit(event, "begin")
        tel = self.telemetry
        if tel.enabled:
            sp = tel.spans
            if sp.enabled:
                attrs = {"fault": event.kind, "direction": event.direction}
                if event.path_id >= 0:
                    attrs["path"] = event.path_id
                if event.duration > 0.0:
                    self._event_spans[id(event)] = sp.open(
                        "fault", self.loop.now, **attrs)
                else:
                    sp.instant("fault", self.loop.now, **attrs)
        effect = _effect_for(event)
        if effect is None:
            return
        self._event_effects[id(event)] = effect
        for link in self._links_for(event):
            self._active.setdefault(link, []).append(effect)
            self._recompute(link)

    def _end(self, event: FaultEvent) -> None:
        self.lifted += 1
        touched = 0
        effect = self._event_effects.pop(id(event), None)
        if effect is not None:
            for link in self._links_for(event):
                effects = self._active.get(link)
                if effects is None:
                    continue
                effects[:] = [e for e in effects if e is not effect]
                if not effects:
                    del self._active[link]
                self._recompute(link)
                touched += 1
        self._emit(event, "end", links=touched)
        sid = self._event_spans.pop(id(event), 0)
        if sid:
            self.telemetry.spans.close(sid, self.loop.now, lifted=True)
