"""Congestion controllers: BBR (XNC's choice) and baselines."""

from .base import CongestionController, DEFAULT_MSS, INITIAL_WINDOW, MIN_WINDOW
from .bbr import BbrController
from .newreno import NewRenoController

__all__ = [
    "CongestionController",
    "DEFAULT_MSS",
    "INITIAL_WINDOW",
    "MIN_WINDOW",
    "BbrController",
    "NewRenoController",
]
