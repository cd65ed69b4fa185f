"""Promote allocas to SSA registers (classic mem2reg).

The front end lowers every local into an ``alloca`` (clang -O0 style).
Without promotion, the guard pass would instrument every stack access and
the guard counts would be wildly unrepresentative of the paper's setup,
where the kernel is compiled with optimization and only *real* memory
references survive to the middle end.  ``mem2reg`` promotes any alloca
whose address never escapes (no use other than direct load/store), using
iterated dominance frontiers for phi placement.
"""

from __future__ import annotations

from ..ir import BasicBlock, Function, Module
from ..ir.instructions import Alloca, Instruction, Load, Phi, Store
from ..ir.values import UndefValue, Value
from .analysis import DominatorTree, unreachable_blocks


class Mem2RegPass:
    """Module pass: SSA promotion of non-escaping allocas.

    All of a function's allocas are promoted together: phis are placed
    alloca by alloca (so ``unique_name`` hands out names in a fixed
    order), one dominator-tree walk carries every alloca's reaching
    definition, and one trivial-phi fixpoint runs over a replacement
    map.  Every step is linear in the size of the function.
    """

    name = "mem2reg"

    def __init__(self) -> None:
        self.promoted = 0
        #: Functions the last :meth:`run` changed (the pass-manager
        #: contract: only these are re-verified).
        self.changed_functions: list[Function] = []

    def run(self, module: Module) -> bool:
        self.changed_functions = [
            fn for fn in module.defined_functions() if self._run_on_function(fn)
        ]
        return bool(self.changed_functions)

    # -- per function -----------------------------------------------------

    def _run_on_function(self, fn: Function) -> bool:
        pruned = self._remove_unreachable(fn)
        allocas = self._promotable_allocas(fn)
        if not allocas:
            return pruned
        dom = DominatorTree(fn)
        block_phis = self._place_phis(fn, allocas, dom)
        replacements = self._rename(fn, allocas, block_phis, dom)
        self._simplify_phis(fn, replacements, dom)
        self.promoted += len(allocas)
        return True

    def _remove_unreachable(self, fn: Function) -> bool:
        dead = unreachable_blocks(fn)
        if not dead:
            return False
        dead_ids = {id(b) for b in dead}
        for b in fn.blocks:
            if id(b) in dead_ids:
                continue
            for phi in b.phis():
                kept = [(v, blk) for v, blk in phi.incoming if id(blk) not in dead_ids]
                if len(kept) != len(phi.incoming):
                    phi.incoming = kept
                    phi.operands = [v for v, _ in kept]
        fn.blocks = [b for b in fn.blocks if id(b) not in dead_ids]
        return True

    def _promotable_allocas(self, fn: Function) -> list[Alloca]:
        """Allocas used only by direct scalar loads and stores of the value."""
        allocas = [
            inst
            for inst in fn.instructions()
            if isinstance(inst, Alloca)
            and inst.count == 1
            and not inst.allocated_type.is_aggregate
        ]
        if not allocas:
            return []
        candidate = {id(a): True for a in allocas}
        for inst in fn.instructions():
            for op in inst.operands:
                if isinstance(op, Alloca) and id(op) in candidate:
                    if isinstance(inst, Load) and inst.pointer is op:
                        continue
                    if (
                        isinstance(inst, Store)
                        and inst.pointer is op
                        and inst.value is not op
                    ):
                        continue
                    candidate[id(op)] = False  # address escapes
            # Geps/casts/calls taking the alloca as any operand disqualify it
            # (covered above since they aren't Load/Store in the right slot).
        return [a for a in allocas if candidate[id(a)]]

    @staticmethod
    def _place_phis(
        fn: Function, allocas: list[Alloca], dom: DominatorTree
    ) -> dict[int, list[tuple[int, Phi]]]:
        """Phis at the iterated dominance frontier of each alloca's
        stores, placed alloca by alloca.  Returns ``id(block) ->
        [(alloca index, phi)]``."""
        index = {id(a): k for k, a in enumerate(allocas)}
        def_blocks: list[dict[int, BasicBlock]] = [{} for _ in allocas]
        for block in fn.blocks:
            for inst in block.instructions:
                if isinstance(inst, Store):
                    k = index.get(id(inst.pointer))
                    if k is not None:
                        def_blocks[k].setdefault(id(block), block)
        block_phis: dict[int, list[tuple[int, Phi]]] = {}
        for k, alloca in enumerate(allocas):
            placed: set[int] = set()
            work = list(def_blocks[k].values())
            seen = set(def_blocks[k])
            while work:
                b = work.pop()
                for df in dom.frontiers.get(id(b), []):
                    if id(df) in placed:
                        continue
                    phi = Phi(
                        alloca.allocated_type,
                        fn.unique_name(f"{alloca.name or 'mem'}.phi"),
                    )
                    phi.parent = df
                    df.instructions.insert(0, phi)
                    placed.add(id(df))
                    block_phis.setdefault(id(df), []).append((k, phi))
                    if id(df) not in seen:
                        seen.add(id(df))
                        work.append(df)
        return block_phis

    @staticmethod
    def _rename(
        fn: Function,
        allocas: list[Alloca],
        block_phis: dict[int, list[tuple[int, Phi]]],
        dom: DominatorTree,
    ) -> dict[int, tuple[Instruction, Value]]:
        """One dominator-tree walk carrying every alloca's reaching
        definition.  Drops the promoted loads, stores and allocas (each
        block's list is rebuilt once) and returns ``id(load) -> (load,
        value)``; holding the load keeps its id from being reused."""
        index = {id(a): k for k, a in enumerate(allocas)}
        current: list[Value] = [UndefValue(a.allocated_type) for a in allocas]
        replacements: dict[int, tuple[Instruction, Value]] = {}
        # Preorder walk, children in reverse order; an ``undo`` entry
        # restores the definitions a subtree overwrote.
        stack: list[tuple[BasicBlock | None, list[tuple[int, Value]]]] = [
            (fn.entry, [])
        ]
        while stack:
            blk, undo = stack.pop()
            if blk is None:
                for k, value in undo:
                    current[k] = value
                continue
            saved: list[tuple[int, Value]] = []
            for k, phi in block_phis.get(id(blk), ()):
                saved.append((k, current[k]))
                current[k] = phi
            kept = []
            for inst in blk.instructions:
                if isinstance(inst, Load):
                    k = index.get(id(inst.pointer))
                    if k is not None:
                        replacements[id(inst)] = (inst, current[k])
                        inst.parent = None
                        continue
                elif isinstance(inst, Store):
                    k = index.get(id(inst.pointer))
                    if k is not None:
                        saved.append((k, current[k]))
                        current[k] = inst.value
                        inst.parent = None
                        continue
                elif id(inst) in index:
                    inst.parent = None
                    continue
                kept.append(inst)
            blk.instructions = kept
            for succ in blk.successors:
                for k, phi in block_phis.get(id(succ), ()):
                    phi.add_incoming(current[k], blk)
            saved.reverse()
            stack.append((None, saved))
            for child in dom.children.get(id(blk), []):
                stack.append((child, []))
        return replacements

    @staticmethod
    def _simplify_phis(
        fn: Function,
        replacements: dict[int, tuple[Instruction, Value]],
        dom: DominatorTree,
    ) -> None:
        """Fill missing phi edges with undef, fold trivial phis (one
        distinct non-self, non-undef incoming value) to a fixpoint, then
        rewrite every operand through ``replacements`` once.

        A phi that also has undef edges folds only into a value that
        dominates it: ``x = phi [undef, entry], [v, body]`` with ``v``
        defined in the loop body must stay a phi, or the phi's uses
        would read ``v`` before its definition."""

        def dominates_phi(v: Value, block: BasicBlock) -> bool:
            if not isinstance(v, Instruction):
                return True
            if v.parent is block:
                return isinstance(v, Phi)
            return dom.dominates(v.parent, block)

        def resolve(v: Value) -> Value:
            while True:
                entry = replacements.get(id(v))
                if entry is None or entry[1] is v:
                    return v
                v = entry[1]

        preds = fn.predecessors()
        removed: set[int] = set()
        changed = True
        while changed:
            changed = False
            for block in fn.blocks:
                for phi in block.phis():
                    if id(phi) in removed:
                        continue
                    have = {id(b) for _, b in phi.incoming}
                    for p in preds[block]:
                        if id(p) not in have:
                            phi.add_incoming(UndefValue(phi.type), p)
                    first: Value | None = None
                    trivial = True
                    undef = False
                    for v, _ in phi.incoming:
                        v = resolve(v)
                        if v is phi:
                            continue
                        if isinstance(v, UndefValue):
                            undef = True
                        elif first is None:
                            first = v
                        elif v is not first:
                            trivial = False
                            break
                    if trivial and undef and first is not None:
                        trivial = dominates_phi(first, block)
                    if trivial:
                        replacements[id(phi)] = (
                            phi,
                            first if first is not None else UndefValue(phi.type),
                        )
                        removed.add(id(phi))
                        changed = True

        for block in fn.blocks:
            if removed:
                block.instructions = [
                    i for i in block.instructions if id(i) not in removed
                ]
            for inst in block.instructions:
                operands = inst.operands
                for i, op in enumerate(operands):
                    if id(op) in replacements:
                        operands[i] = resolve(op)
                if isinstance(inst, Phi):
                    inst.incoming = [(resolve(v), b) for v, b in inst.incoming]


__all__ = ["Mem2RegPass"]
