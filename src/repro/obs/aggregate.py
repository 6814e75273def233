"""Mergeable run aggregates and span-tree delay decomposition.

Fleet-scale analysis (ROADMAP item 1) cannot ship raw per-packet streams
to one place; it ships *aggregates* and folds them.  The primitive that
makes the fold honest is an associative ``merge`` — provided by the
metrics layer (:meth:`repro.obs.metrics.Histogram.merge` is exact on the
shared geometric grid) and lifted here to whole runs:

* :class:`RunAggregate` — QoE frame counts, delivery accounting, and the
  delay histograms of one run (or of any merged set of runs).  Merging
  per-vehicle aggregates in any pairwise order equals aggregating the
  fleet in one pass; the property tests pin this.
* :func:`decompose_spans` — walks the causal span tree of a run
  (:mod:`repro.obs.spans`) and splits each completed frame's
  capture-to-complete delay along its critical path: the **packetise**,
  **queue**, **recovery**, and **flight** stages sum to the frame total,
  so "why was this frame late?" has a numeric answer per frame.
* :func:`worst_frames` — the frames the report's span waterfall shows:
  largest total delay first.

Everything is plain data in, plain dicts out — the HTML report renders
these, and ``state_dict``/``from_state`` round-trips keep aggregates
shippable as JSON between shards (``as_dict`` stays the lossy summary
view reports print).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .metrics import MetricsRegistry

__all__ = [
    "STAGES",
    "decompose_spans",
    "worst_frames",
    "RunAggregate",
]

#: Critical-path stages, in lifecycle order; per frame they sum to the
#: capture-to-complete total.
STAGES = ("packetise", "queue", "recovery", "flight")


def decompose_spans(spans) -> List[dict]:
    """Per-frame critical-path delay decomposition from a span recorder.

    The frame completes when its slowest packet is delivered, so the
    split follows that packet:

    * ``packetise`` — frame capture to the packet entering the tunnel;
    * ``queue`` — tunnel ingress to its first wire transmission;
    * ``recovery`` — first transmission to the start of the transmission
      that delivered (zero unless loss forced retransmit/recovery);
    * ``flight`` — the delivering transmission to packet delivery.

    Frames force-closed at end of run (``cut``) never completed — they
    are reported with ``complete: False`` and no stage split.  Each
    entry also carries ``retx`` (extra transmissions beyond one per
    packet across the whole frame) and ``faults`` (fault spans from the
    PR 5 engine overlapping the frame's interval).
    """
    frames = spans.spans("frame")
    if not frames:
        return []
    packets_by_parent: Dict[int, List] = {}
    for p in spans.spans("packet"):
        packets_by_parent.setdefault(p.parent_id, []).append(p)
    tx_by_cause: Dict[int, List] = {}
    for t in spans.spans("tx"):
        cause = (t.attrs or {}).get("cause", 0)
        if cause:
            tx_by_cause.setdefault(cause, []).append(t)
    faults = spans.spans("fault")
    out: List[dict] = []
    for f in frames:
        attrs = f.attrs or {}
        entry = {
            "frame_id": attrs.get("frame", f.span_id),
            "t0": f.start,
            "total": f.duration,
            "complete": not attrs.get("cut", False),
            "keyframe": bool(attrs.get("keyframe", False)),
        }
        pkts = packets_by_parent.get(f.span_id, [])
        entry["packets"] = len(pkts)
        entry["retx"] = sum(
            max(0, len(tx_by_cause.get(p.span_id, ())) - 1) for p in pkts)
        entry["faults"] = sum(
            1 for fs in faults
            if fs.start < f.end and (fs.end is None or fs.end > f.start))
        delivered = [p for p in pkts
                     if p.end is not None and not (p.attrs or {}).get("cut")]
        if entry["complete"] and delivered:
            worst = max(delivered, key=lambda p: (p.end, p.span_id))
            txs = sorted(tx_by_cause.get(worst.span_id, ()),
                         key=lambda t: (t.start, t.span_id))
            first_tx = txs[0].start if txs else worst.start
            last_tx = txs[-1].start if txs else worst.start
            entry["packetise"] = max(0.0, worst.start - f.start)
            entry["queue"] = max(0.0, first_tx - worst.start)
            entry["recovery"] = max(0.0, last_tx - first_tx)
            entry["flight"] = max(0.0, worst.end - last_tx)
            entry["worst_packet"] = (worst.attrs or {}).get("packet",
                                                           worst.span_id)
        out.append(entry)
    return out


def worst_frames(decomposition: Iterable[dict], k: int = 5) -> List[dict]:
    """The ``k`` completed frames with the largest total delay."""
    done = [e for e in decomposition if e.get("complete") and "flight" in e]
    done.sort(key=lambda e: (-e["total"], e["frame_id"]))
    return done[:k]


class RunAggregate:
    """Mergeable summary of one or many streaming runs.

    Construction is cheap and empty; :meth:`add_result` folds a
    :class:`~repro.experiments.runner.StreamRunResult` in, and
    :meth:`merge` folds another aggregate.  Both operations commute and
    associate, so shard-then-merge equals one global pass.
    """

    def __init__(self, label: str = ""):
        self.labels: List[str] = [label] if label else []
        self.runs = 0
        self.duration = 0.0
        self.frames_sent = 0
        self.frame_status: Dict[str, int] = {}
        self.packets_sent = 0
        self.packets_received = 0
        self.metrics = MetricsRegistry()

    # -- folding ----------------------------------------------------------

    def add_result(self, result, censor_penalty: Optional[float] = 1.0) -> "RunAggregate":
        """Fold one StreamRunResult in."""
        self.runs += 1
        label = getattr(result, "transport", "")
        if label and label not in self.labels:
            self.labels.append(label)
            self.labels.sort()
        self.duration += result.duration
        self.frames_sent += result.frames_sent
        for status in result.frame_statuses:
            self.frame_status[status] = self.frame_status.get(status, 0) + 1
        self.packets_sent += result.packets_sent
        self.packets_received += result.packets_received
        delays = (result.censored_packet_delays(censor_penalty)
                  if censor_penalty is not None else result.packet_delays)
        self.metrics.observe_many("delay.packet", delays)
        return self

    def merge(self, other: "RunAggregate") -> "RunAggregate":
        """Fold another aggregate in (associative + commutative)."""
        for label in other.labels:
            if label not in self.labels:
                self.labels.append(label)
        self.labels.sort()
        self.runs += other.runs
        self.duration += other.duration
        self.frames_sent += other.frames_sent
        for status, n in other.frame_status.items():
            self.frame_status[status] = self.frame_status.get(status, 0) + n
        self.packets_sent += other.packets_sent
        self.packets_received += other.packets_received
        self.metrics.merge(other.metrics)
        return self

    # -- derived views ----------------------------------------------------

    @property
    def delivery_ratio(self) -> float:
        return (self.packets_received / self.packets_sent
                if self.packets_sent else 0.0)

    # -- (de)serialisation -------------------------------------------------

    def state_dict(self) -> dict:
        """Exact, mergeable state (lossless histograms, JSON-safe).

        Unlike :meth:`as_dict` — whose metric snapshot keeps only summary
        quantiles — this round-trips through :meth:`from_state` with the
        sparse bucket tables intact, so an aggregate shipped back from a
        shard worker merges exactly as if the runs had been folded
        locally."""
        return {
            "labels": list(self.labels),
            "runs": self.runs,
            "duration": self.duration,
            "frames_sent": self.frames_sent,
            "frame_status": dict(sorted(self.frame_status.items())),
            "packets_sent": self.packets_sent,
            "packets_received": self.packets_received,
            "metrics": self.metrics.state_dict(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "RunAggregate":
        agg = cls()
        agg.labels = sorted(state.get("labels", ()))
        agg.runs = int(state["runs"])
        agg.duration = float(state["duration"])
        agg.frames_sent = int(state["frames_sent"])
        agg.frame_status = {str(k): int(v)
                            for k, v in state["frame_status"].items()}
        agg.packets_sent = int(state["packets_sent"])
        agg.packets_received = int(state["packets_received"])
        agg.metrics = MetricsRegistry.from_state(state["metrics"])
        return agg
