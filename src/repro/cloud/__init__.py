"""CellFusion's cloud-native back-end: controller, proxies, PoPs (§6)."""

from .autoscaler import AutoscalerPolicy, ProxyAutoscaler, ScalingDecision
from .controller import Controller
from .migration import MigrationEvent, MigrationManager, drive_with_migration
from .nat import NatError, SnatTable
from .pop import PopNode, default_pop_grid

__all__ = [
    "AutoscalerPolicy",
    "ProxyAutoscaler",
    "ScalingDecision",
    "MigrationEvent",
    "MigrationManager",
    "drive_with_migration",
    "Controller",
    "NatError",
    "SnatTable",
    "PopNode",
    "default_pop_grid",
]
