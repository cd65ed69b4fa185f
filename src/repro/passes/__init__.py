"""Compiler passes: analyses, mem2reg, DCE, and the CARAT KOP transforms."""

from .absint import (
    ArgContract,
    ContractSet,
    FieldContract,
    ModuleVerifier,
    VerificationReport,
    elidable_guard_ids,
)
from .analysis import DominatorTree, Loop, find_loops, unreachable_blocks
from .attestation import AttestationPass
from .dce import DCEPass
from .guard_injection import GuardInjectionPass
from .guard_opt import GuardOptPass
from .intrinsic_guard import CallGuardPass
from .manager import ModulePass, PassManager
from .mem2reg import Mem2RegPass
from .peephole import PeepholePass

__all__ = [
    "ArgContract",
    "AttestationPass",
    "CallGuardPass",
    "ContractSet",
    "DCEPass",
    "DominatorTree",
    "FieldContract",
    "GuardInjectionPass",
    "GuardOptPass",
    "Loop",
    "Mem2RegPass",
    "ModulePass",
    "ModuleVerifier",
    "PassManager",
    "PeepholePass",
    "VerificationReport",
    "elidable_guard_ids",
    "find_loops",
    "unreachable_blocks",
]
