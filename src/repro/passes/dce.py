"""Trivial dead-code elimination.

Removes instructions with no uses and no side effects (arithmetic, casts,
geps, unused phis).  Loads are conservatively kept: in a kernel module a
load may target MMIO, where a read has device-visible effects — exactly
the kind of access the paper's guards must still see.
"""

from __future__ import annotations

from ..ir import Function, Module
from ..ir.instructions import Instruction, Phi


class DCEPass:
    name = "dce"

    def __init__(self) -> None:
        self.removed = 0
        self.changed_functions: list[Function] = []

    def run(self, module: Module) -> bool:
        self.changed_functions = [
            fn for fn in module.defined_functions() if self._run_on_function(fn)
        ]
        return bool(self.changed_functions)

    def _run_on_function(self, fn: Function) -> bool:
        """Worklist DCE: count every use once, then retire instructions
        as their count drops to zero (a dead cycle keeps its counts, as
        it always has)."""
        insts = {id(inst): inst for inst in fn.instructions()}
        uses: dict[int, int] = {}
        for inst in insts.values():
            for op in _used_values(inst):
                uses[id(op)] = uses.get(id(op), 0) + 1
        work = [
            inst for inst in insts.values()
            if _removable(inst) and id(inst) not in uses
        ]
        dead: set[int] = set()
        while work:
            inst = work.pop()
            dead.add(id(inst))
            for op in _used_values(inst):
                n = uses[id(op)] - 1
                uses[id(op)] = n
                if n == 0 and id(op) in insts and _removable(op):
                    work.append(op)
        if not dead:
            return False
        for block in fn.blocks:
            kept = []
            for inst in block.instructions:
                if id(inst) in dead:
                    inst.parent = None
                else:
                    kept.append(inst)
            block.instructions = kept
        self.removed += len(dead)
        return True


def _used_values(inst: Instruction) -> list:
    if isinstance(inst, Phi):
        return inst.operands + [v for v, _ in inst.incoming]
    return inst.operands


def _removable(inst: Instruction) -> bool:
    return not inst.has_side_effects and not inst.is_terminator


__all__ = ["DCEPass"]
