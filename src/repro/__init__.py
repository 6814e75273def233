"""repro — a faithful Python reproduction of CellFusion (SIGCOMM 2023).

CellFusion streams real-time video from vehicles to the cloud by fusing
multiple cellular links into one overlay tunnel; its transport, **XNC**,
combines unreliable multipath QUIC with random linear network coding
applied only to loss recovery.

Quick start::

    from repro import run_stream

    result = run_stream("cellfusion", duration=20.0, seed=1)
    q = result.qoe
    print(q.avg_fps, q.stall_ratio, q.ssim)
    print(result.redundancy_ratio)      # < 0.10 in the paper

Package layout:

* :mod:`repro.core` — XNC itself: GF(256), Q-RLNC codec, XNC frames,
  QoE-aware loss detection, encode ranges, one-shot recovery, endpoints.
* :mod:`repro.quic` — the QUIC substrate (varints, ACKs, RTT, BBR/NewReno).
* :mod:`repro.multipath` — path state and schedulers (minRTT, RE, ECF,
  XLINK, bonding).
* :mod:`repro.baselines` — the comparison transports of §8.
* :mod:`repro.emulation` — the trace-driven 4-path emulator and the
  synthetic cellular drive-trace generator.
* :mod:`repro.video` — video workload and QoE analysis.
* :mod:`repro.cloud` — the cloud-native control plane around the
  transport (controller placement, proxy autoscaling, SNAT, PoP
  migration).
* :mod:`repro.fleet` — the §8.2 deployment: many vehicles × PoPs under
  the autoscaler, sharded.
* :mod:`repro.experiments` — one-call harnesses per paper figure.
"""

from .core import (
    QoeLossPolicy,
    RangePolicy,
    RecoveryPolicy,
    RlncDecoder,
    RlncEncoder,
    XncConfig,
    XncTunnelClient,
    XncTunnelServer,
)
from .emulation import (
    EventLoop,
    LinkTrace,
    MultipathEmulator,
    generate_cellular_trace,
    generate_fleet_traces,
)
from .experiments import StreamRunResult, run_single_link_stream, run_stream
from .video import QoeReport, VideoConfig, analyze_qoe

__version__ = "1.0.0"

__all__ = [
    "QoeLossPolicy",
    "RangePolicy",
    "RecoveryPolicy",
    "RlncDecoder",
    "RlncEncoder",
    "XncConfig",
    "XncTunnelClient",
    "XncTunnelServer",
    "EventLoop",
    "LinkTrace",
    "MultipathEmulator",
    "generate_cellular_trace",
    "generate_fleet_traces",
    "StreamRunResult",
    "run_single_link_stream",
    "run_stream",
    "QoeReport",
    "VideoConfig",
    "analyze_qoe",
    "__version__",
]
