"""Synthetic real-time video source (the ffmpeg/RTSP stand-in, §8).

Generates a 30 fps stream at a target bitrate with a GoP structure —
periodic keyframes several times larger than P-frames and lognormal-ish
size variation — then packetises each frame into fixed-size datagrams
carrying a small header (frame id, sequence-within-frame, packet count,
capture timestamp, keyframe flag).  The header is what the paper's
reference video encodes visually as frame-ID stamps (Appx. C); carrying it
in-band lets the receiver compute the same QoE metrics.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..determinism import seeded_rng
from ..emulation.events import EventLoop, PeriodicTimer
from ..obs import NULL_TELEMETRY

__all__ = [
    "PACKET_HEADER",
    "VideoPacketError",
    "parse_header",
    "build_packet",
    "VideoConfig",
    "VideoSource",
]

#: Packet header: magic(2) frame_id(u32) seq(u16) count(u16) flags(u8)
#: capture_ts(f64) -> 19 bytes.
PACKET_HEADER = struct.Struct("!HIHHBd")
HEADER_MAGIC = 0xCF01
FLAG_KEYFRAME = 0x01

#: Default payload size: fits the 1440-byte tun MTU with tunnel overheads.
DEFAULT_PACKET_PAYLOAD = 1200


class VideoPacketError(Exception):
    """Malformed video packet payload."""


def parse_header(data: bytes) -> Tuple[int, int, int, bool, float]:
    """``(frame_id, seq, count, keyframe, capture_ts)`` of a video packet
    — what the receiver needs of each one, without building a record."""
    if len(data) < PACKET_HEADER.size:
        raise VideoPacketError("short video packet")
    magic, frame_id, seq, count, flags, ts = PACKET_HEADER.unpack_from(data)
    if magic != HEADER_MAGIC:
        raise VideoPacketError("bad magic 0x%04x" % magic)
    return frame_id, seq, count, bool(flags & FLAG_KEYFRAME), ts


def build_packet(
    frame_id: int, seq: int, count: int, keyframe: bool, capture_ts: float, size: int
) -> bytes:
    """Serialise one video packet of exactly ``size`` bytes."""
    if size < PACKET_HEADER.size:
        raise ValueError("size smaller than header")
    header = PACKET_HEADER.pack(
        HEADER_MAGIC, frame_id, seq, count, FLAG_KEYFRAME if keyframe else 0, capture_ts
    )
    return header + bytes(size - PACKET_HEADER.size)


@dataclass
class VideoConfig:
    """Encoder model parameters."""

    bitrate_mbps: float = 30.0
    fps: float = 30.0
    gop: int = 30
    keyframe_scale: float = 3.0
    size_jitter: float = 0.15
    packet_payload: int = DEFAULT_PACKET_PAYLOAD
    seed: int = 1

    def __post_init__(self):
        if self.bitrate_mbps <= 0 or self.fps <= 0:
            raise ValueError("bitrate and fps must be positive")
        if self.gop < 1:
            raise ValueError("gop must be >= 1")
        if not 0 <= self.size_jitter < 1:
            raise ValueError("size_jitter must be in [0, 1)")

    @property
    def mean_frame_bytes(self) -> float:
        return self.bitrate_mbps * 1e6 / 8 / self.fps


class VideoSource:
    """Emits packetised frames on the event loop at the configured fps.

    ``sink(payloads, frame_id)`` is called once per frame with the frame's
    packets in order — a frame enters the tunnel as one burst at one sim
    instant; normally bound to ``TunnelClientBase.send_app_burst``.
    """

    def __init__(self, loop: EventLoop, sink: Callable[[List[bytes], int], None],
                 config: Optional[VideoConfig] = None, telemetry=None):
        self.loop = loop
        self.sink = sink
        self.config = config or VideoConfig()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._rng = seeded_rng(self.config.seed)  # lint: disable=shard-rng-provenance -- adding a derivation label would shift frame-size draws and break golden replay; VideoConfig.seed is unique per source
        self.frames_emitted = 0
        self.packets_emitted = 0
        self.bytes_emitted = 0
        self._timer = PeriodicTimer(loop, 1.0 / self.config.fps, self._emit_frame)

    def start(self, first_delay: float = 0.0) -> None:
        self._timer.start(first_delay=max(first_delay, 1e-9))

    def stop(self) -> None:
        self._timer.stop()

    def _frame_size(self, keyframe: bool) -> int:
        cfg = self.config
        # normalise so the long-run average hits the target bitrate:
        # one keyframe of scale k and (gop-1) P-frames of scale s satisfy
        # (k + (gop-1)*s) / gop == 1
        if cfg.gop == 1:
            scale = 1.0
        elif keyframe:
            scale = cfg.keyframe_scale
        else:
            scale = (cfg.gop - cfg.keyframe_scale) / (cfg.gop - 1)
            scale = max(scale, 0.1)
        jitter = 1.0 + self._rng.uniform(-cfg.size_jitter, cfg.size_jitter)
        return max(PACKET_HEADER.size + 16, int(cfg.mean_frame_bytes * scale * jitter))

    def _emit_frame(self) -> None:
        cfg = self.config
        frame_id = self.frames_emitted
        self.frames_emitted += 1
        keyframe = frame_id % cfg.gop == 0
        total = self._frame_size(keyframe)
        capture_ts = self.loop.now
        count = max(1, math.ceil(total / cfg.packet_payload))
        tel = self.telemetry
        if tel.enabled:
            sp = tel.spans
            if sp.enabled:
                # the root of the causal tree: capture -> complete delivery;
                # packet spans attach underneath via the frame binding
                sid = sp.open("frame", capture_ts, frame=frame_id,
                              keyframe=keyframe, bytes=total, count=count)
                sp.bind("frame", frame_id, sid)
        remaining = total
        payloads = []
        for seq in range(count):
            size = min(cfg.packet_payload, max(PACKET_HEADER.size, remaining))
            remaining -= size
            payloads.append(build_packet(frame_id, seq, count, keyframe, capture_ts, size))
            self.bytes_emitted += size
        self.packets_emitted += count
        self.sink(payloads, frame_id)
