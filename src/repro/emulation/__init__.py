"""Trace-driven multipath emulator (mpshell-style) and cellular synthesis."""

from .cellular import (
    PROFILE_5G,
    PROFILE_LEO_SAT,
    PROFILE_LTE,
    TechnologyProfile,
    generate_cellular_trace,
    generate_downlink_trace,
    generate_fleet_traces,
    profile_for,
)
from .emulator import MultipathEmulator, PathChannel
from .events import EventLoop, EventHandle, PeriodicTimer, SimulationError
from .link import EmulatedLink, LinkStats
from .trace import (
    LinkTrace,
    LossProcess,
    MTU_BYTES,
    load_json,
    load_mahimahi,
    opportunities_from_capacity,
    opportunities_from_rate,
    save_json,
    save_mahimahi,
)

__all__ = [
    "PROFILE_5G",
    "PROFILE_LEO_SAT",
    "PROFILE_LTE",
    "TechnologyProfile",
    "generate_cellular_trace",
    "generate_downlink_trace",
    "generate_fleet_traces",
    "profile_for",
    "MultipathEmulator",
    "PathChannel",
    "EventLoop",
    "EventHandle",
    "PeriodicTimer",
    "SimulationError",
    "EmulatedLink",
    "LinkStats",
    "LinkTrace",
    "LossProcess",
    "MTU_BYTES",
    "load_json",
    "load_mahimahi",
    "opportunities_from_capacity",
    "opportunities_from_rate",
    "save_json",
    "save_mahimahi",
]
