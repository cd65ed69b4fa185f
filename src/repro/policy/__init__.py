"""Policy: region tables, the interval index, the policy module, manager."""

from .controlplane import (
    OP_ADD,
    OP_DEL,
    ControlPlaneConfig,
    ControlPlaneError,
    PolicyControlPlane,
    Tenant,
    TenantQuota,
)
from .manager import PolicyManager
from .miner import AccessRecord, MinedPolicy, PolicyMiner
from .module import (
    MODE_AUDIT,
    MODE_EJECT,
    MODE_ISOLATE,
    MODE_PANIC,
    MODES,
    CaratPolicyModule,
    PolicyStats,
)
from .interval import IntervalRegionTable, IntervalTableReplica
from .region import Decision, Region
from .table import MAX_REGIONS, PolicyTableFull, RegionTable, RegionTableReplica

__all__ = [
    "AccessRecord",
    "MinedPolicy",
    "PolicyMiner",
    "CaratPolicyModule",
    "ControlPlaneConfig",
    "ControlPlaneError",
    "Decision",
    "IntervalRegionTable",
    "IntervalTableReplica",
    "MAX_REGIONS",
    "MODES",
    "MODE_AUDIT",
    "MODE_EJECT",
    "MODE_ISOLATE",
    "MODE_PANIC",
    "OP_ADD",
    "OP_DEL",
    "PolicyControlPlane",
    "PolicyManager",
    "PolicyStats",
    "PolicyTableFull",
    "Region",
    "Tenant",
    "TenantQuota",
    "RegionTable",
    "RegionTableReplica",
]
