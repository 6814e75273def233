"""Video QoE metrics: FPS, stall ratio, normalized SSIM proxy (Appx. C).

The paper's analysis tool computes three metrics from the received
recording against the reference video:

* **FPS** — decoded (normal) frames per second;
* **stall ratio** — inter-frame display intervals above 200 ms accumulate
  into stall time; ratio = stall time / stream time;
* **normalized SSIM** — structural similarity of aligned frames.

We have delivery records instead of pixels, so SSIM uses a documented
proxy model: a fully delivered frame scores near 1; a partially delivered
frame is "blocky" and scores in proportion to the fraction received; a
missing frame repeats the last displayed image, whose similarity to the
reference decays with scene motion; and corruption propagates through the
prediction chain until the next complete keyframe (standard codec error
propagation).  The proxy is monotone in exactly the quantities real SSIM
responds to, so comparative results (who wins, by how much) carry over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .receiver import FrameRecord

__all__ = [
    "STALL_THRESHOLD",
    "SSIM_FULL",
    "DECODE_MIN_FRACTION",
    "QoeReport",
    "analyze_qoe",
]

#: Stall threshold used by streaming services and by the paper (200 ms).
STALL_THRESHOLD = 0.200
#: SSIM of a perfectly delivered frame (encoder quantisation leaves ~0.97).
SSIM_FULL = 0.97
#: Per-repeated-frame SSIM decay when the stream freezes (scene motion).
SSIM_FREEZE_DECAY = 0.05
#: Floor: a frozen/blank image vs a moving road scene.
SSIM_FLOOR = 0.20
#: Fraction of packets below which a frame is undecodable (not just blocky).
DECODE_MIN_FRACTION = 0.60
#: Exponent shaping blockiness: missing slices hurt more than linearly.
BLOCKY_EXPONENT = 1.5
#: Residual quality multiplier while the prediction chain is corrupt.
PROPAGATION_PENALTY = 0.80


@dataclass
class QoeReport:
    """The Fig. 3(d)/9/11/12 metric triple plus supporting detail."""

    avg_fps: float
    stall_ratio: float
    ssim: float
    total_frames: int
    decoded_frames: int
    corrupt_frames: int
    missing_frames: int
    duration: float
    stall_time: float
    stall_events: int


def _frame_status(record: FrameRecord) -> str:
    """normal / corrupt / missing, per the modified-ffmpeg classification."""
    if record.complete:
        return "normal"
    if record.expected_packets and record.received_fraction >= DECODE_MIN_FRACTION:
        return "corrupt"
    return "missing"


def analyze_qoe(
    frames: Sequence[FrameRecord],
    fps: float,
    duration: Optional[float] = None,
    stall_threshold: float = STALL_THRESHOLD,
) -> QoeReport:
    """Compute the QoE triple from reassembly records.

    ``frames`` must be in frame-ID order and include never-received frames
    as empty records (``VideoReceiver.frame_records(total_frames=...)``).
    """
    if fps <= 0:
        raise ValueError("fps must be positive")
    total = len(frames)
    if total == 0:
        return QoeReport(0.0, 0.0, 0.0, 0, 0, 0, 0, 0.0, 0.0, 0)
    if duration is None:
        duration = total / fps

    statuses = [_frame_status(f) for f in frames]
    decoded = sum(1 for s in statuses if s == "normal")
    corrupt = sum(1 for s in statuses if s == "corrupt")
    missing = total - decoded - corrupt

    # --- stall: gaps between consecutive displayable-frame times ---------
    display_times = [
        f.complete_time for f, s in zip(frames, statuses) if s != "missing" and f.complete_time is not None
    ]
    # corrupt frames display at their last packet's arrival; approximate
    # with first_packet_time when completion never happened
    display_times += [
        f.first_packet_time
        for f, s in zip(frames, statuses)
        if s == "corrupt" and f.complete_time is None and f.first_packet_time is not None
    ]
    display_times.sort()
    stall_time = 0.0
    stall_events = 0
    if display_times:
        # leading stall: stream started but first frame came late
        first_capture = min((f.capture_ts for f in frames if f.expected_packets), default=0.0)
        lead = display_times[0] - first_capture
        if lead > stall_threshold:
            stall_time += lead - stall_threshold
            stall_events += 1
        for a, b in zip(display_times, display_times[1:]):
            gap = b - a
            if gap > stall_threshold:
                stall_time += gap - stall_threshold
                stall_events += 1
        # trailing stall: stream died before the end
        stream_end = max((f.capture_ts for f in frames if f.expected_packets), default=duration)
        tail = stream_end - display_times[-1]
        if tail > stall_threshold:
            stall_time += tail - stall_threshold
            stall_events += 1
    else:
        stall_time = duration
        stall_events = 1
    stall_ratio = min(1.0, stall_time / duration) if duration > 0 else 0.0

    # --- SSIM proxy with error propagation --------------------------------
    scores: List[float] = []
    chain_corrupt = False
    freeze_run = 0
    for record, status in zip(frames, statuses):
        if status == "normal":
            freeze_run = 0
            if record.keyframe:
                chain_corrupt = False
            score = SSIM_FULL * (PROPAGATION_PENALTY if chain_corrupt else 1.0)
        elif status == "corrupt":
            freeze_run = 0
            chain_corrupt = True
            blocky = record.received_fraction ** BLOCKY_EXPONENT
            score = max(SSIM_FLOOR, SSIM_FULL * blocky * PROPAGATION_PENALTY)
        else:
            freeze_run += 1
            chain_corrupt = True
            score = max(SSIM_FLOOR, SSIM_FULL - SSIM_FREEZE_DECAY * freeze_run)
        scores.append(score)
    ssim = sum(scores) / len(scores)

    return QoeReport(
        avg_fps=decoded / duration,
        stall_ratio=stall_ratio,
        ssim=ssim,
        total_frames=total,
        decoded_frames=decoded,
        corrupt_frames=corrupt,
        missing_frames=missing,
        duration=duration,
        stall_time=stall_time,
        stall_events=stall_events,
    )
