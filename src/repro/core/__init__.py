"""XNC: the paper's network-coded multipath transport (§4)."""

from .coefficients import CoefficientGenerator, coefficient_vector
from .endpoint import XncConfig, XncTunnelClient, XncTunnelServer
from .frames import FRAME_XNC_NC, XncHeader, XncNcFrame
from .loss_detection import QoeLossPolicy, pto_interval
from .ranges import (
    EncodeRange,
    LostPacket,
    RangePolicy,
    RetransmissionQueue,
    build_ranges,
)
from .recovery import (
    PathBudget,
    RecoveryPlan,
    RecoveryPolicy,
    coded_packet_count,
    decode_probability_bound,
    plan_recovery,
)
from .rlnc import RlncDecoder, RlncEncoder, frame_payload, unframe_payload

__all__ = [
    "CoefficientGenerator",
    "coefficient_vector",
    "XncConfig",
    "XncTunnelClient",
    "XncTunnelServer",
    "FRAME_XNC_NC",
    "XncHeader",
    "XncNcFrame",
    "QoeLossPolicy",
    "pto_interval",
    "EncodeRange",
    "LostPacket",
    "RangePolicy",
    "RetransmissionQueue",
    "build_ranges",
    "PathBudget",
    "RecoveryPlan",
    "RecoveryPolicy",
    "coded_packet_count",
    "decode_probability_bound",
    "plan_recovery",
    "RlncDecoder",
    "RlncEncoder",
    "frame_payload",
    "unframe_payload",
]
