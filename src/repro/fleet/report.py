"""Fleet report: the merged, digest-carrying result of a fleet run.

A :class:`FleetReport` is plain data — the config, one summary row per
vehicle, the control-plane accounting, and the *lossless* merged
:class:`~repro.obs.RunAggregate` state — plus a canonical content
digest.  The digest is the determinism contract: it is computed over a
canonical JSON document in which every float is rendered with
``float.hex()`` (bit-exact, no formatting ambiguity), keys are sorted,
and run-shape-only fields (``shards``, ``sanitize``, wall time) are
excluded.  Two runs agree on the digest iff they agree on every bit of
every result — the shard-invariance suite pins digest equality across
shard counts, and ``repro fleet --check-digest`` re-runs a saved
config and verifies the stored digest still reproduces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from ..determinism import digest, hex_floats
from ..obs.aggregate import RunAggregate
from .config import FleetConfig

__all__ = [
    "FleetReport",
    "hex_floats",
]

#: Config fields that change how a run executes but never what it
#: computes; the digest must ignore them.
_SHAPE_ONLY_CONFIG = ("shards", "sanitize", "shard_retries")


@dataclass
class FleetReport:
    """Everything a fleet run produced, JSON-able and digest-stable."""

    config: dict
    #: One summary row per vehicle (sorted by vid): placement, QoE,
    #: delivery counts — everything except the bulky aggregate state.
    vehicles: List[dict]
    #: Control-plane accounting from :func:`~repro.fleet.runner.plan_fleet`.
    control: dict
    #: Lossless merged fleet aggregate (``RunAggregate.state_dict()``).
    aggregate_state: dict
    #: Informational wall-clock seconds; excluded from the digest.
    wall: float = 0.0
    meta: dict = field(default_factory=dict)

    @classmethod
    def build(cls, config: FleetConfig, plan, payloads: List[dict],
              fleet_agg: RunAggregate, wall: float) -> "FleetReport":
        rows = []
        for payload, spec in zip(payloads, plan.vehicles):
            row = {k: v for k, v in payload.items() if k != "aggregate"}
            row["join_time"] = spec.join_time
            row["faulted"] = spec.faulted
            rows.append(row)
        return cls(
            config=config.as_dict(),
            vehicles=rows,
            control=plan.control,
            aggregate_state=fleet_agg.state_dict(),
            wall=wall,
        )

    # -- derived views -----------------------------------------------------

    def fleet_aggregate(self) -> RunAggregate:
        """The merged aggregate, rehydrated (lossless)."""
        return RunAggregate.from_state(self.aggregate_state)

    def qoe_summary(self) -> Dict[str, float]:
        """Fleet-mean QoE over placed-or-not vehicles."""
        n = len(self.vehicles)
        if not n:
            return {"avg_fps": 0.0, "stall_ratio": 0.0, "ssim": 0.0}
        return {
            "avg_fps": sum(v["qoe"]["avg_fps"] for v in self.vehicles) / n,
            "stall_ratio": sum(v["qoe"]["stall_ratio"] for v in self.vehicles) / n,
            "ssim": sum(v["qoe"]["ssim"] for v in self.vehicles) / n,
        }

    def summary_table(self) -> str:
        """Human-readable fleet summary (ASCII)."""
        from ..analysis.report import format_table

        qoe = self.qoe_summary()
        agg = self.fleet_aggregate()
        ctl = self.control
        rows = [
            ["vehicles", "%d" % len(self.vehicles)],
            ["unplaced", "%d" % ctl["controller"]["unplaced"]],
            ["failovers", "%d" % ctl["controller"]["failovers"]],
            ["peak concurrency", "%d" % ctl["concurrency"]["peak_total"]],
            ["autoscaler up/down", "%d/%d" % (ctl["autoscaler"]["ups"],
                                              ctl["autoscaler"]["downs"])],
            ["snat peak/ports", "%d/%d" % (ctl["snat"]["peak_live"],
                                           ctl["snat"]["port_count"])],
            ["snat denials", "%d" % ctl["snat"]["denials"]],
            ["mean fps", "%.2f" % qoe["avg_fps"]],
            ["mean stall", "%.2f%%" % (qoe["stall_ratio"] * 100)],
            ["mean ssim", "%.3f" % qoe["ssim"]],
            ["delivery", "%.2f%%" % (agg.delivery_ratio * 100)],
            ["digest", self.digest[:16]],
        ]
        return format_table(["metric", "value"], rows,
                            title="fleet run (%d vehicles, seed %d)"
                            % (len(self.vehicles), self.config.get("seed", 0)))

    # -- digest ------------------------------------------------------------

    def digest_document(self) -> dict:
        """The canonical document the digest is computed over.

        Excludes run-shape knobs (``shards``, ``sanitize``) and wall
        time; everything else — including every per-vehicle float and
        every histogram bucket — participates.
        """
        config = {k: v for k, v in self.config.items()
                  if k not in _SHAPE_ONLY_CONFIG}
        return {
            "config": config,
            "vehicles": self.vehicles,
            "control": self.control,
            "aggregate": self.aggregate_state,
        }

    @property
    def digest(self) -> str:
        return digest(self.digest_document())

    # -- (de)serialisation -------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "type": "fleet-report",
            "config": self.config,
            "vehicles": self.vehicles,
            "control": self.control,
            "aggregate_state": self.aggregate_state,
            "wall": self.wall,
            "meta": self.meta,
            "digest": self.digest,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "FleetReport":
        with open(path) as fh:
            d = json.load(fh)
        report = cls(config=d["config"], vehicles=d["vehicles"],
                     control=d["control"],
                     aggregate_state=d["aggregate_state"],
                     wall=d.get("wall", 0.0), meta=d.get("meta", {}))
        stored = d.get("digest")
        if stored is not None and stored != report.digest:
            raise ValueError("fleet report digest mismatch: file says %s..., "
                             "content hashes to %s..."
                             % (stored[:12], report.digest[:12]))
        return report
