"""File -> layer map and the table of layer entry points.

The layers are this repository's modules.  Every file under ``src/repro``
belongs to exactly one layer; a file this table does not know raises, so
a new package cannot silently land in nobody's row of the cost table.
"""

from __future__ import annotations

import os

__all__ = ["LAYERS", "OTHER", "BOUNDARIES", "UnmappedFile", "layer_of",
           "repro_relpath"]

#: The fifteen measured layers, in data-path order.
LAYERS = ("video", "transport", "multipath", "quic", "xnc", "coder", "link",
          "events", "cellular", "baselines", "faults", "cloud", "fleet",
          "obs", "experiments")

#: Everything that should cost nothing on a benchmark run.
OTHER = "other"

#: Whole packages (first path component under ``src/repro``).
_PACKAGES = {
    "video": "video",
    "transport": "transport",
    "multipath": "multipath",
    "quic": "quic",
    "baselines": "baselines",
    "faults": "faults",
    "cloud": "cloud",
    "fleet": "fleet",
    "obs": "obs",
    "sanitizer": "obs",
    "experiments": "experiments",
    "netstack": OTHER,
    "cpe": OTHER,
    "analysis": OTHER,
    "scenarios": OTHER,
}

#: Packages split between layers, file by file.
_SPLIT = {
    "core": {
        "__init__.py": "xnc",
        "endpoint.py": "xnc",
        "loss_detection.py": "xnc",
        "ranges.py": "xnc",
        "recovery.py": "xnc",
        "gf256.py": "coder",
        "rlnc.py": "coder",
        "coefficients.py": "coder",
        "frames.py": "coder",
    },
    "emulation": {
        "__init__.py": "link",
        "emulator.py": "link",
        "link.py": "link",
        "trace.py": "link",
        "events.py": "events",
        "cellular.py": "cellular",
    },
}

#: Top-level modules of ``repro`` itself.
_TOP_FILES = {
    "__init__.py": OTHER,
    "__main__.py": OTHER,
    "cli.py": OTHER,
    "determinism.py": OTHER,
    "hotpath.py": OTHER,
}

_MARKER = os.sep + os.path.join("src", "repro") + os.sep


class UnmappedFile(LookupError):
    """A file under ``src/repro`` that no layer claims."""


def repro_relpath(filename: str):
    """``/``-separated path of ``filename`` below ``src/repro``, or None when
    it is outside."""
    at = filename.rfind(_MARKER)
    if at < 0:
        return None
    return filename[at + len(_MARKER):].replace(os.sep, "/")


def layer_of(filename: str) -> str:
    """The layer owning ``filename`` (absolute, or relative to ``src/repro``).

    Raises :class:`UnmappedFile` for a file under ``src/repro`` that the
    tables above do not place.
    """
    parts = (repro_relpath(filename) or filename).split("/")
    if len(parts) == 1:
        layer = _TOP_FILES.get(parts[0])
    elif parts[0] in _SPLIT:
        layer = _SPLIT[parts[0]].get(parts[1]) if len(parts) == 2 else None
    else:
        layer = _PACKAGES.get(parts[0])
    if layer is None:
        raise UnmappedFile("no layer claims src/repro/%s — add it to "
                           "perfledger/layers.py" % "/".join(parts))
    return layer


#: Entry points of the layers: ``name -> (path prefix below src/repro,
#: qualified-name patterns)``.  The traced rep reports inclusive time and
#: exact call counts for each.  Schedulers and congestion controllers are
#: chosen per transport, hence directory prefixes and ``*`` patterns.
BOUNDARIES = {
    "transport.send_app_packet": ("transport/base.py", ("TunnelClientBase.send_app_packet",)),
    "transport.pump": ("transport/base.py", ("TunnelClientBase._pump",)),
    "multipath.select": ("multipath/scheduler/", ("*.select",)),
    "quic.cc_on_ack": ("quic/cc/base.py", ("CongestionController.on_ack",)),
    "xnc.tick": ("core/endpoint.py", ("XncTunnelClient._on_tick_hook",)),
    "coder.encode": ("core/rlnc.py", ("RlncEncoder.encode",)),
    "coder.decode_push": ("core/rlnc.py", ("RlncDecoder.push",)),
    "coder.gf": ("core/gf256.py", ("*",)),
    "link.send_uplink": ("emulation/emulator.py", ("MultipathEmulator.send_uplink",)),
    "link.send_downlink": ("emulation/emulator.py", ("MultipathEmulator.send_downlink",)),
    "link.deliver": ("emulation/emulator.py", ("MultipathEmulator._make_deliver.<locals>.deliver",)),
    "events.schedule": ("emulation/events.py", ("EventLoop.schedule",)),
    "events.call_later": ("emulation/events.py", ("EventLoop.call_later",)),
    "events.run_until": ("emulation/events.py", ("EventLoop.run_until",)),
    "video.on_app_packet": ("video/receiver.py", ("VideoReceiver.on_app_packet",)),
    "experiments.analyze_qoe": ("video/qoe.py", ("analyze_qoe",)),
    "experiments.run_stream": ("experiments/runner.py", ("run_stream",)),
    "cellular.generate": ("emulation/cellular.py", ("generate_fleet_traces",)),
    "cloud.plan_fleet": ("fleet/runner.py", ("plan_fleet",)),
    "cloud.snat_translate": ("cloud/nat.py", ("SnatTable.translate",)),
    "fleet.simulate_vehicle": ("fleet/vehicle.py", ("simulate_vehicle",)),
    "obs.add_result": ("obs/aggregate.py", ("RunAggregate.add_result",)),
    "obs.merge": ("obs/aggregate.py", ("RunAggregate.merge",)),
    "faults.hook": ("faults/engine.py", ("FaultInjector._begin", "FaultInjector._end")),
}
