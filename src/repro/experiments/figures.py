"""One harness per paper figure (§2.2 and §8).

Each ``fig*`` function runs the corresponding experiment at a configurable
scale and returns structured results; the ``benchmarks/`` tree wraps them
in pytest-benchmark targets and prints the same rows the paper reports.

Scale note: the paper's numbers come from 5000 km of driving and 100
traces per controlled experiment.  The defaults here are laptop-sized
(tens of simulated seconds, a handful of trace seeds); pass larger
``duration`` / ``seeds`` for tighter confidence intervals.  Shapes — who
wins, by roughly what factor — are stable at the default scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.stats import SeriesSummary, reduction_pct, tail_percentiles
from ..emulation.cellular import generate_cellular_trace, generate_fleet_traces
from ..video.source import VideoConfig
from .runner import StreamRunResult, run_single_link_stream, run_stream

__all__ = [
    "fig3_single_link",
    "fig8_frame_timeline",
    "compare_transports",
    "fig9_road_test",
    "fig10a_delay_cdf",
    "fig10b_redundancy",
    "fig11_schedulers",
    "fig12_pluribus",
    "fig13a_qrlnc_ablation",
    "fig13b_loss_detection_ablation",
]

DEFAULT_DURATION = 15.0
DEFAULT_SEEDS = (0, 1, 2)


# ---------------------------------------------------------------------------
# Fig. 3 — single-link characterisation (§2.2)
# ---------------------------------------------------------------------------


@dataclass
class SingleLinkResult:
    """One (technology, bitrate) cell of Fig. 3."""

    label: str
    tech: str
    bitrate_mbps: float
    rf_times: np.ndarray
    rsrp_dbm: np.ndarray
    sinr_db: np.ndarray
    loss_rate: float
    delay_p50: float
    delay_p99: float
    delay_max: float
    qoe: object


def fig3_single_link(
    duration: float = DEFAULT_DURATION, seed: int = 0
) -> Dict[str, SingleLinkResult]:
    """Fig. 3: stream 10/30 Mbps over a single LTE or 5G link.

    Returns one entry per configuration (LTE-10, LTE-30, 5G-10, 5G-30) with
    the RF series (3a), loss (3b), delay (3c), and QoE (3d).
    """
    out: Dict[str, SingleLinkResult] = {}
    for tech in ("LTE", "5G"):
        cell = generate_cellular_trace(tech=tech, carrier=0, duration=duration, seed=seed)
        link = cell.to_link_trace()
        times, rsrp, sinr = cell.rf_per_second()
        for bitrate in (10.0, 30.0):
            label = "%s-%d" % (tech, int(bitrate))
            result = run_single_link_stream(
                link,
                video=VideoConfig(bitrate_mbps=bitrate, seed=seed + 1),
                duration=duration,
                seed=seed,
            )
            delays = np.array(result.packet_delays) if result.packet_delays else np.array([duration])
            out[label] = SingleLinkResult(
                label=label,
                tech=tech,
                bitrate_mbps=bitrate,
                rf_times=times,
                rsrp_dbm=rsrp,
                sinr_db=sinr,
                loss_rate=1.0 - result.delivery_ratio,
                delay_p50=float(np.percentile(delays, 50)),
                delay_p99=float(np.percentile(delays, 99)),
                delay_max=float(delays.max()),
                qoe=result.qoe,
            )
    return out


# ---------------------------------------------------------------------------
# Fig. 8 — received-frame timeline sample
# ---------------------------------------------------------------------------


@dataclass
class FrameTimeline:
    """Per-frame status stream for one transport (Fig. 8's film strip)."""

    transport: str
    statuses: List[str]  # "normal" / "corrupt" / "missing" per frame
    stall_ratio: float

    @property
    def lost_frames(self) -> int:
        return sum(1 for s in self.statuses if s == "missing")

    @property
    def blocky_frames(self) -> int:
        return sum(1 for s in self.statuses if s == "corrupt")


def fig8_frame_timeline(
    duration: float = DEFAULT_DURATION, seed: int = 1
) -> Dict[str, FrameTimeline]:
    """Fig. 8: aligned frame-status traces, MPQUIC vs CellFusion."""
    out: Dict[str, FrameTimeline] = {}
    traces = generate_fleet_traces(duration=duration, seed=seed)
    for transport in ("mpquic", "cellfusion"):
        result = run_stream(transport, uplink_traces=traces, duration=duration, seed=seed)
        out[transport] = FrameTimeline(transport, result.frame_statuses, result.qoe.stall_ratio)
    return out


# ---------------------------------------------------------------------------
# Fig. 9 — end-to-end road-test QoE
# ---------------------------------------------------------------------------


@dataclass
class ComparisonResult:
    """QoE summary across seeds for a set of transports."""

    transports: List[str]
    stall: Dict[str, SeriesSummary]
    fps: Dict[str, SeriesSummary]
    ssim: Dict[str, SeriesSummary]
    redundancy: Dict[str, SeriesSummary]
    runs: Dict[str, List[StreamRunResult]] = field(default_factory=dict)

    def stall_reduction_vs(self, ours: str, baseline: str) -> float:
        return reduction_pct(self.stall[baseline].mean, self.stall[ours].mean)


def compare_transports(
    transports: Sequence[str],
    duration: float = DEFAULT_DURATION,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    bitrate_mbps: float = 30.0,
) -> ComparisonResult:
    """Run each transport over the same traces (fair comparison, §8.1.2)."""
    runs: Dict[str, List[StreamRunResult]] = {t: [] for t in transports}
    for seed in seeds:
        traces = generate_fleet_traces(duration=duration, seed=seed)
        for t in transports:
            runs[t].append(
                run_stream(
                    t,
                    uplink_traces=traces,
                    video=VideoConfig(bitrate_mbps=bitrate_mbps, seed=seed + 1),
                    duration=duration,
                    seed=seed,
                )
            )
    return ComparisonResult(
        transports=list(transports),
        stall={t: SeriesSummary.of([r.qoe.stall_ratio for r in rs]) for t, rs in runs.items()},
        fps={t: SeriesSummary.of([r.qoe.avg_fps for r in rs]) for t, rs in runs.items()},
        ssim={t: SeriesSummary.of([r.qoe.ssim for r in rs]) for t, rs in runs.items()},
        redundancy={t: SeriesSummary.of([r.redundancy_ratio for r in rs]) for t, rs in runs.items()},
        runs=runs,
    )


def fig9_road_test(
    duration: float = DEFAULT_DURATION, seeds: Sequence[int] = DEFAULT_SEEDS
) -> ComparisonResult:
    """Fig. 9: MPQUIC vs MPTCP vs BONDING vs CellFusion."""
    return compare_transports(["mpquic", "mptcp", "bonding", "cellfusion"], duration, seeds)


# ---------------------------------------------------------------------------
# Fig. 10(a) — deployment packet-delay CDF
# ---------------------------------------------------------------------------


@dataclass
class DelayCdfResult:
    """CDFs and tail percentiles of video packet delay (Fig. 10a)."""

    delays: Dict[str, List[float]]
    percentiles: Dict[str, Dict[str, float]]

    def reduction_vs(self, baseline: str, ours: str = "cellfusion") -> Dict[str, float]:
        return {
            k: reduction_pct(self.percentiles[baseline][k], self.percentiles[ours][k])
            for k in self.percentiles[ours]
        }


def fig10a_delay_cdf(
    duration: float = DEFAULT_DURATION, seeds: Sequence[int] = DEFAULT_SEEDS
) -> DelayCdfResult:
    """Fig. 10(a): CellFusion vs LTE-only vs 5G-only packet delays."""
    delays: Dict[str, List[float]] = {"cellfusion": [], "5G-only": [], "LTE-only": []}
    for seed in seeds:
        traces = generate_fleet_traces(duration=duration, seed=seed)
        r = run_stream("cellfusion", uplink_traces=traces, duration=duration, seed=seed)
        delays["cellfusion"].extend(r.packet_delays)
        for label, trace in (("5G-only", traces[0]), ("LTE-only", traces[2])):
            r = run_single_link_stream(trace, duration=duration, seed=seed)
            delays[label].extend(r.packet_delays)
    percentiles = {
        k: tail_percentiles(v) if v else {} for k, v in delays.items()
    }
    return DelayCdfResult(delays, percentiles)


# ---------------------------------------------------------------------------
# Fig. 10(b) — daily traffic redundancy
# ---------------------------------------------------------------------------


def fig10b_redundancy(
    days: int = 10, duration: float = 10.0, base_seed: int = 100
) -> List[Tuple[int, float]]:
    """Fig. 10(b): daily redundancy cost of a deployed vehicle.

    Each "day" is a run under a different seed (the vehicle drives a
    different route through different network conditions).  The paper's
    trace varies between 1 % and 9 %.
    """
    out = []
    for day in range(days):
        r = run_stream("cellfusion", duration=duration, seed=base_seed + day * 13)
        out.append((day, r.redundancy_ratio))
    return out


# ---------------------------------------------------------------------------
# Fig. 11 / Fig. 12 — controlled benchmarks
# ---------------------------------------------------------------------------


def fig11_schedulers(
    duration: float = DEFAULT_DURATION, seeds: Sequence[int] = DEFAULT_SEEDS
) -> ComparisonResult:
    """Fig. 11: XNC vs minRTT / RE / XLINK / ECF."""
    return compare_transports(["minRTT", "RE", "XLINK", "ECF", "cellfusion"], duration, seeds)


def fig12_pluribus(
    duration: float = DEFAULT_DURATION, seeds: Sequence[int] = DEFAULT_SEEDS
) -> ComparisonResult:
    """Fig. 12: XNC vs Pluribus."""
    return compare_transports(["pluribus", "cellfusion"], duration, seeds)


# ---------------------------------------------------------------------------
# Fig. 13 — ablations
# ---------------------------------------------------------------------------


@dataclass
class AblationResult:
    """Residual-loss and delay comparisons for the Fig. 13 ablations."""

    metric_a: Dict[str, List[float]]
    summary: Dict[str, Dict[str, float]]


def fig13a_qrlnc_ablation(
    duration: float = DEFAULT_DURATION, seeds: Sequence[int] = DEFAULT_SEEDS
) -> AblationResult:
    """Fig. 13(a): residual loss with vs without Q-RLNC.

    The ablation arm retransmits original packets instead of coded ones
    (same budget, no rateless protection), so the loss of a retransmission
    is unrecoverable within the shot.
    """
    losses: Dict[str, List[float]] = {"Q-RLNC": [], "w/o Q-RLNC": []}
    for seed in seeds:
        traces = generate_fleet_traces(duration=duration, seed=seed)
        with_rlnc = run_stream("cellfusion", uplink_traces=traces, duration=duration, seed=seed)
        without = run_stream("xnc-no-rlnc", uplink_traces=traces, duration=duration, seed=seed)
        # per-frame residual loss pooled across seeds: the CDF of Fig. 13(a)
        losses["Q-RLNC"].extend(with_rlnc.frame_loss_fractions)
        losses["w/o Q-RLNC"].extend(without.frame_loss_fractions)
    summary = {}
    for k, v in losses.items():
        arr = np.array(v)
        summary[k] = {
            "mean": float(arr.mean()),
            "p95": float(np.percentile(arr, 95)),
            "p99": float(np.percentile(arr, 99)),
            "max": float(arr.max()),
        }
    return AblationResult(losses, summary)


def fig13b_loss_detection_ablation(
    duration: float = DEFAULT_DURATION, seeds: Sequence[int] = DEFAULT_SEEDS
) -> Dict[str, Dict[str, float]]:
    """Fig. 13(b): packet-delay percentiles, QoE-aware vs PTO-only.

    Returns percentiles for both arms plus the per-percentile reduction.
    """
    delays: Dict[str, List[float]] = {"qoe-aware": [], "pto-only": []}
    for seed in seeds:
        traces = generate_fleet_traces(duration=duration, seed=seed)
        a = run_stream("cellfusion", uplink_traces=traces, duration=duration, seed=seed)
        b = run_stream("xnc-pto-only", uplink_traces=traces, duration=duration, seed=seed)
        # censored delays: a packet that never arrives is charged the 1 s
        # deadline it missed — otherwise the slower detector "wins" by
        # silently expiring its worst packets
        delays["qoe-aware"].extend(a.censored_packet_delays())
        delays["pto-only"].extend(b.censored_packet_delays())
    pcts = {}
    for arm, values in delays.items():
        arr = np.array(values)
        pcts[arm] = {
            "p25": float(np.percentile(arr, 25)),
            "p50": float(np.percentile(arr, 50)),
            "p75": float(np.percentile(arr, 75)),
            "p90": float(np.percentile(arr, 90)),
            "p99": float(np.percentile(arr, 99)),
        }
    pcts["reduction_pct"] = {
        k: reduction_pct(pcts["pto-only"][k], pcts["qoe-aware"][k]) for k in pcts["qoe-aware"]
    }
    return pcts
