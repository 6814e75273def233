"""Synthetic cellular drive-trace generator.

The paper's evaluation replays traces collected from real drives (Appx. D).
Without access to those traces we synthesise statistically similar ones,
calibrated to the envelope of Fig. 3:

* RSRP/SINR fluctuating more than 30 dB within seconds, 5G swinging harder
  than LTE (smaller cells, higher frequency);
* heavy bursty loss — outage "dead spots" where loss hits 100 % and can
  persist for tens of seconds;
* latency spikes up to seconds (these *emerge* in the emulator from queue
  build-up when capacity collapses, so the generator only has to produce
  realistic capacity collapses);
* geographical carrier diversity — each carrier has an independent tower
  grid, so outages across carriers are largely uncorrelated.

The physical model is deliberately simple and documented: a vehicle moves
at constant speed along a line; each carrier has towers on a jittered grid;
RSRP = reference power − log-distance path loss + shadow fading (an
Ornstein–Uhlenbeck process); SINR follows RSRP minus an interference term;
capacity maps from SINR through a clipped Shannon curve scaled to the
technology's peak uplink rate; random loss rises steeply once SINR drops
below a decode threshold; hard outages (tunnels/blockage) zero the capacity
outright.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .trace import LinkTrace, LossProcess, opportunities_from_capacity

__all__ = [
    "PROFILE_5G",
    "PROFILE_LTE",
    "PROFILE_LEO_SAT",
    "profile_for",
    "generate_cellular_trace",
    "generate_fleet_traces",
    "generate_downlink_trace",
]

#: Sampling interval for the RF processes (seconds).
RF_SAMPLE_INTERVAL = 0.1


@dataclass
class TechnologyProfile:
    """Radio-technology parameters for trace synthesis.

    The 5G profile has higher peak rate but smaller cells, stronger
    shadowing, and more frequent outages — reproducing the paper's finding
    that 5G loss/delay can be *worse* than LTE while driving (§2.2).
    """

    name: str
    peak_uplink_mbps: float
    tower_spacing_m: float
    shadow_sigma_db: float
    shadow_tau_s: float
    pathloss_exponent: float
    ref_power_dbm: float
    outage_rate_per_min: float
    outage_mean_s: float
    sinr_decode_threshold_db: float
    base_delay: float

    def __post_init__(self):
        if self.peak_uplink_mbps <= 0:
            raise ValueError("peak_uplink_mbps must be positive")
        if self.tower_spacing_m <= 0:
            raise ValueError("tower_spacing_m must be positive")


#: Appx. D sets the probe rates to 100 Mbps (5G) and 50 Mbps (LTE uplink).
PROFILE_5G = TechnologyProfile(
    name="5G",
    peak_uplink_mbps=100.0,
    tower_spacing_m=450.0,
    shadow_sigma_db=9.0,
    shadow_tau_s=4.0,
    pathloss_exponent=3.6,
    ref_power_dbm=-55.0,
    outage_rate_per_min=1.1,
    outage_mean_s=6.0,
    sinr_decode_threshold_db=3.0,
    base_delay=0.016,
)

PROFILE_LTE = TechnologyProfile(
    name="LTE",
    peak_uplink_mbps=50.0,
    tower_spacing_m=1100.0,
    shadow_sigma_db=6.0,
    shadow_tau_s=6.0,
    pathloss_exponent=2.9,
    ref_power_dbm=-52.0,
    outage_rate_per_min=0.6,
    outage_mean_s=5.0,
    sinr_decode_threshold_db=1.0,
    base_delay=0.025,
)


#: LEO satellite uplink (§10, "venturing beyond cellular"): coverage is
#: position-independent, so the cell geometry is made effectively flat
#: (huge spacing, tiny path-loss slope); instead the link has a high
#: propagation delay and brief but regular outages at satellite handover.
PROFILE_LEO_SAT = TechnologyProfile(
    name="LEO-SAT",
    peak_uplink_mbps=20.0,
    tower_spacing_m=1e7,
    shadow_sigma_db=3.0,
    shadow_tau_s=8.0,
    pathloss_exponent=0.01,
    ref_power_dbm=-78.0,
    outage_rate_per_min=0.4,  # satellite handovers
    outage_mean_s=1.5,
    sinr_decode_threshold_db=2.0,
    base_delay=0.045,
)


def profile_for(tech: str) -> TechnologyProfile:
    """Look up the built-in profile for a technology name."""
    table = {"5G": PROFILE_5G, "LTE": PROFILE_LTE, "LEO-SAT": PROFILE_LEO_SAT}
    if tech not in table:
        raise ValueError("unknown technology %r (use '5G', 'LTE' or 'LEO-SAT')" % tech)
    return table[tech]


@dataclass
class CellularTrace:
    """A synthesised link trace plus its underlying RF observables."""

    tech: str
    carrier: int
    times: np.ndarray
    rsrp_dbm: np.ndarray
    sinr_db: np.ndarray
    capacity_mbps: np.ndarray
    loss_prob: np.ndarray
    outage_mask: np.ndarray
    duration: float
    base_delay: float

    def to_link_trace(self, name: Optional[str] = None) -> LinkTrace:
        """Convert to the emulator's delivery-opportunity representation."""
        opportunities = opportunities_from_capacity(self.times, self.capacity_mbps, self.duration)
        return LinkTrace(
            name=name or ("%s-carrier%d" % (self.tech, self.carrier)),
            opportunities=opportunities,
            duration=self.duration,
            base_delay=self.base_delay,
            loss=LossProcess(self.times, self.loss_prob),
        )

    def rf_per_second(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(times, RSRP, SINR) downsampled to 1 Hz — the Fig. 3(a) series."""
        step = max(1, int(round(1.0 / RF_SAMPLE_INTERVAL)))
        return self.times[::step], self.rsrp_dbm[::step], self.sinr_db[::step]


def _ou_process(n: int, sigma: float, tau: float, dt: float, rng: np.random.Generator) -> np.ndarray:
    """Ornstein–Uhlenbeck shadow-fading samples (mean 0, std sigma)."""
    x = np.zeros(n)
    alpha = math.exp(-dt / tau)
    noise_scale = sigma * math.sqrt(max(1e-12, 1 - alpha * alpha))
    x[0] = rng.normal(0, sigma)
    white = rng.normal(0, 1, n)
    for i in range(1, n):
        x[i] = alpha * x[i - 1] + noise_scale * white[i]
    return x


def _outage_mask(
    n: int, dt: float, rate_per_min: float, mean_s: float, rng: np.random.Generator
) -> np.ndarray:
    """Boolean mask of hard-outage samples (dead spots, tunnels)."""
    mask = np.zeros(n, dtype=bool)
    t = 0.0
    duration = n * dt
    while True:
        gap = rng.exponential(60.0 / rate_per_min) if rate_per_min > 0 else float("inf")
        t += gap
        if t >= duration:
            break
        length = rng.exponential(mean_s)
        start = int(t / dt)
        end = min(n, int((t + length) / dt) + 1)
        mask[start:end] = True
        t += length
    return mask


def generate_cellular_trace(
    tech: str = "5G",
    carrier: int = 0,
    duration: float = 180.0,
    speed_mps: float = 14.0,
    seed: int = 0,
    profile: Optional[TechnologyProfile] = None,
) -> CellularTrace:
    """Synthesise one carrier's uplink as seen from a moving vehicle.

    ``carrier`` shifts the tower grid, giving each carrier independent
    coverage geometry — the geographical diversity CellFusion exploits.
    """
    prof = profile or profile_for(tech)
    # zlib.crc32, not hash(): str hashes are randomised per process and
    # would make "same seed" mean different traces across runs
    name_tag = zlib.crc32(prof.name.encode()) & 0xFFFF
    rng = np.random.default_rng((seed * 1_000_003 + carrier * 7919 + name_tag) & 0xFFFFFFFF)
    dt = RF_SAMPLE_INTERVAL
    n = int(round(duration / dt))
    times = np.arange(n) * dt

    # vehicle path and serving-tower distance (nearest tower on a jittered
    # grid; the grid offset is carrier-specific)
    positions = times * speed_mps
    grid_offset = rng.uniform(0, prof.tower_spacing_m)
    tower_jitter = rng.uniform(-0.25, 0.25) * prof.tower_spacing_m
    within_cell = np.abs(
        ((positions + grid_offset + tower_jitter) % prof.tower_spacing_m) - prof.tower_spacing_m / 2
    )
    distance = np.maximum(within_cell, 20.0)

    # RSRP: log-distance path loss + OU shadowing
    shadow = _ou_process(n, prof.shadow_sigma_db, prof.shadow_tau_s, dt, rng)
    rsrp = prof.ref_power_dbm - 10 * prof.pathloss_exponent * np.log10(distance / 20.0) + shadow

    # interference fluctuates independently; SINR tracks the SNR implied
    # by RSRP over the noise-plus-interference floor
    interference = _ou_process(n, 4.0, 2.0, dt, rng)
    noise_floor = -102.0
    sinr = (rsrp - noise_floor) + interference - 3.0
    sinr = np.clip(sinr, -10.0, 32.0)

    # hard outages crush both observables
    outage = _outage_mask(n, dt, prof.outage_rate_per_min, prof.outage_mean_s, rng)
    rsrp = np.where(outage, np.minimum(rsrp, -115.0), np.clip(rsrp, -125.0, -50.0))
    sinr = np.where(outage, np.minimum(sinr, -8.0), sinr)

    # clipped-Shannon capacity mapping scaled to the technology peak
    spectral = np.log2(1.0 + np.power(10.0, sinr / 10.0))
    spectral_max = math.log2(1.0 + 10.0 ** (30.0 / 10.0))
    capacity = prof.peak_uplink_mbps * np.clip(spectral / spectral_max, 0.0, 1.0)
    capacity = np.where(outage, 0.0, capacity)

    # random loss: negligible at good SINR, steep once below the decode
    # threshold; outages are 100 %
    margin = prof.sinr_decode_threshold_db - sinr
    loss = 0.6 / (1.0 + np.exp(-margin / 0.8))
    loss = np.clip(loss, 0.0, 0.6)
    loss[sinr > prof.sinr_decode_threshold_db + 2.0] = 0.0
    loss = np.where(outage, 1.0, loss)

    return CellularTrace(
        tech=prof.name,
        carrier=carrier,
        times=times,
        rsrp_dbm=rsrp,
        sinr_db=sinr,
        capacity_mbps=capacity,
        loss_prob=loss,
        outage_mask=outage,
        duration=duration,
        base_delay=prof.base_delay,
    )


def generate_fleet_traces(
    duration: float = 60.0, seed: int = 0, speed_mps: float = 14.0
) -> List[LinkTrace]:
    """The CellFusion CPE's four links: 2x5G + 2xLTE across carriers (§1)."""
    configs = [("5G", 0), ("5G", 1), ("LTE", 1), ("LTE", 2)]
    traces = []
    for idx, (tech, carrier) in enumerate(configs):
        cell = generate_cellular_trace(
            tech=tech, carrier=carrier, duration=duration, speed_mps=speed_mps, seed=seed + idx * 101
        )
        traces.append(cell.to_link_trace())
    return traces


def generate_downlink_trace(
    uplink: LinkTrace, rate_scale: float = 2.0, loss_scale: float = 0.4, seed: int = 0
) -> LinkTrace:
    """A matching downlink (ACK path) for an uplink trace.

    Cellular downlinks are faster and cleaner than uplinks but share the
    same coverage, so outages persist while random loss shrinks.
    """
    rng = np.random.default_rng(seed)
    if uplink.opportunities.size:
        reps = max(1, int(round(rate_scale)))
        jitter = rng.uniform(0, 0.0005, uplink.opportunities.size * reps)
        opps = np.sort((np.repeat(uplink.opportunities, reps) + jitter) % uplink.duration)
    else:
        opps = uplink.opportunities
    loss = LossProcess(
        uplink.loss.bucket_times.copy(),
        np.where(uplink.loss.loss_prob >= 0.999, 1.0, uplink.loss.loss_prob * loss_scale),
    )
    return LinkTrace(
        name=uplink.name + "-down",
        opportunities=opps,
        duration=uplink.duration,
        base_delay=uplink.base_delay,
        loss=loss,
    )
