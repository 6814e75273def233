"""Stream receiver: reassembles frames and records delivery telemetry.

The cloud-side analogue of the modified ffmpeg receiver of Appendix C: it
logs, per frame, how many packets arrived and when the frame completed,
and per packet the one-way delay.  The QoE analyser consumes these
records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs import NULL_TELEMETRY
from .source import VideoPacketError, parse_header

__all__ = [
    "FrameRecord",
    "VideoReceiver",
]


@dataclass
class FrameRecord:
    """Reception state of one video frame."""

    frame_id: int
    capture_ts: float
    keyframe: bool
    expected_packets: int
    received_packets: int = 0
    complete_time: Optional[float] = None
    first_packet_time: Optional[float] = None
    _seen: set = field(default_factory=set, repr=False)

    @property
    def complete(self) -> bool:
        return self.complete_time is not None

    @property
    def received_fraction(self) -> float:
        if self.expected_packets == 0:
            return 0.0
        return self.received_packets / self.expected_packets


class VideoReceiver:
    """Collects frames and packet delays from tunnel deliveries."""

    def __init__(self, telemetry=None):
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.frames: Dict[int, FrameRecord] = {}
        self.packet_delays: List[float] = []
        self.packets_received = 0
        self.duplicate_packets = 0
        self.parse_errors = 0

    def on_app_packet(self, packet_id: int, payload: bytes, now: float) -> None:
        """Tunnel delivery callback (packet_id is the tunnel's app id)."""
        try:
            frame_id, seq, count, keyframe, capture_ts = parse_header(payload)
        except VideoPacketError:
            self.parse_errors += 1
            return
        record = self.frames.get(frame_id)
        if record is None:
            record = FrameRecord(
                frame_id=frame_id,
                capture_ts=capture_ts,
                keyframe=keyframe,
                expected_packets=count,
            )
            self.frames[frame_id] = record
        if seq in record._seen:
            self.duplicate_packets += 1
            return
        record._seen.add(seq)
        record.received_packets += 1
        self.packets_received += 1
        self.packet_delays.append(now - capture_ts)
        if record.first_packet_time is None:
            record.first_packet_time = now
        completed = (record.received_packets >= record.expected_packets
                     and record.complete_time is None)
        if completed:
            record.complete_time = now
        tel = self.telemetry
        if tel.enabled:
            sp = tel.spans
            if sp.enabled:
                sp.close(sp.lookup("packet", packet_id), now,
                         outcome="delivered")
                if completed:
                    sp.close(sp.lookup("frame", frame_id), now,
                             outcome="complete")

    def frame_records(self, total_frames: Optional[int] = None) -> List[FrameRecord]:
        """All frames in order; frames never seen at all appear as empty
        records when ``total_frames`` is given."""
        if total_frames is None:
            ids = sorted(self.frames)
        else:
            ids = range(total_frames)
        out = []
        for fid in ids:
            record = self.frames.get(fid)
            if record is None:
                record = FrameRecord(fid, 0.0, False, 0)
            out.append(record)
        return out
