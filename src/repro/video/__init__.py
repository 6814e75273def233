"""Video workload: synthetic source, receiver, QoE analysis (Appx. C)."""

from .qoe import QoeReport, STALL_THRESHOLD, analyze_qoe
from .receiver import FrameRecord, VideoReceiver
from .rtp import RtpPacket, RtpPacketizer, sniff_frame_border, sniff_frame_id
from .source import VideoConfig, VideoSource, build_packet

__all__ = [
    "QoeReport",
    "STALL_THRESHOLD",
    "analyze_qoe",
    "FrameRecord",
    "RtpPacket",
    "RtpPacketizer",
    "sniff_frame_border",
    "sniff_frame_id",
    "VideoReceiver",
    "VideoConfig",
    "VideoSource",
    "build_packet",
]
