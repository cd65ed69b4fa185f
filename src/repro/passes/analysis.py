"""CFG analyses: dominator tree, dominance frontiers, and natural loops.

These feed ``mem2reg`` (SSA construction needs iterated dominance
frontiers) and ``-O1``'s loop-invariant guard hoisting (which needs loop
membership and preheaders).  The dominator algorithm is
the Cooper-Harvey-Kennedy iterative scheme — simple, and fast enough for
kernel-module-sized functions.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from ..ir import BasicBlock, Function


class DominatorTree:
    """Immediate dominators and dominance frontiers for one function."""

    def __init__(self, fn: Function):
        self.fn = fn
        self.rpo = _reverse_postorder(fn)
        self._index = {id(b): i for i, b in enumerate(self.rpo)}
        self.idom: dict[int, BasicBlock] = {}
        self._preds = fn.predecessors()
        self._compute_idoms()
        self.children: dict[int, list[BasicBlock]] = {}
        for b in self.rpo:
            d = self.idom.get(id(b))
            if d is not None and d is not b:
                self.children.setdefault(id(d), []).append(b)

    def _compute_idoms(self) -> None:
        entry = self.fn.entry
        idom: dict[int, BasicBlock] = {id(entry): entry}
        changed = True
        while changed:
            changed = False
            for b in self.rpo:
                if b is entry:
                    continue
                # First processed predecessor (in RPO) seeds the intersection.
                new_idom: Optional[BasicBlock] = None
                for p in self._preds[b]:
                    if id(p) in idom:
                        if new_idom is None:
                            new_idom = p
                        else:
                            new_idom = self._intersect(p, new_idom, idom)
                if new_idom is not None and idom.get(id(b)) is not new_idom:
                    idom[id(b)] = new_idom
                    changed = True
        self.idom = idom

    def _intersect(
        self, a: BasicBlock, b: BasicBlock, idom: dict[int, BasicBlock]
    ) -> BasicBlock:
        fa, fb = a, b
        while fa is not fb:
            while self._index[id(fa)] > self._index[id(fb)]:
                fa = idom[id(fa)]
            while self._index[id(fb)] > self._index[id(fa)]:
                fb = idom[id(fb)]
        return fa

    @cached_property
    def frontiers(self) -> dict[int, list[BasicBlock]]:
        """Dominance frontiers, computed on first use (only SSA
        construction needs them, not the guard optimizer)."""
        frontiers: dict[int, list[BasicBlock]] = {id(b): [] for b in self.rpo}
        for b in self.rpo:
            preds = [p for p in self._preds[b] if id(p) in self._index]
            if len(preds) < 2:
                continue
            target_idom = self.idom.get(id(b))
            for p in preds:
                runner = p
                while runner is not target_idom and runner is not None:
                    fl = frontiers[id(runner)]
                    if b not in fl:
                        fl.append(b)
                    runner = self.idom.get(id(runner))
        return frontiers

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        runner: Optional[BasicBlock] = b
        while runner is not None:
            if runner is a:
                return True
            nxt = self.idom.get(id(runner))
            if nxt is runner:
                return False
            runner = nxt
        return False


def _reverse_postorder(fn: Function) -> list[BasicBlock]:
    seen: set[int] = set()
    order: list[BasicBlock] = []

    def visit(b: BasicBlock) -> None:
        stack = [(b, iter(b.successors))]
        seen.add(id(b))
        while stack:
            block, it = stack[-1]
            advanced = False
            for s in it:
                if id(s) not in seen:
                    seen.add(id(s))
                    stack.append((s, iter(s.successors)))
                    advanced = True
                    break
            if not advanced:
                order.append(block)
                stack.pop()

    visit(fn.entry)
    order.reverse()
    return order


class Loop:
    """A natural loop: header plus body blocks."""

    __slots__ = ("header", "blocks", "latches")

    def __init__(self, header: BasicBlock):
        self.header = header
        self.blocks: list[BasicBlock] = [header]
        self.latches: list[BasicBlock] = []

    def contains(self, b: BasicBlock) -> bool:
        return any(x is b for x in self.blocks)


def find_loops(fn: Function, dom: Optional[DominatorTree] = None) -> list[Loop]:
    """Detect natural loops from back edges (latch -> header it dominates)."""
    dom = dom or DominatorTree(fn)
    preds = fn.predecessors()
    loops: dict[int, Loop] = {}
    for b in dom.rpo:
        for s in b.successors:
            if dom.dominates(s, b):  # back edge b -> s
                loop = loops.get(id(s))
                if loop is None:
                    loop = Loop(s)
                    loops[id(s)] = loop
                loop.latches.append(b)
                # Walk predecessors from the latch back to the header.
                work = [b]
                while work:
                    x = work.pop()
                    if loop.contains(x) or x is s:
                        continue
                    loop.blocks.append(x)
                    work.extend(preds[x])
    return list(loops.values())


def unreachable_blocks(fn: Function) -> list[BasicBlock]:
    """Blocks not reachable from the entry (candidates for removal)."""
    reachable: set[int] = set()
    work = [fn.entry]
    while work:
        b = work.pop()
        if id(b) in reachable:
            continue
        reachable.add(id(b))
        work.extend(b.successors)
    return [b for b in fn.blocks if id(b) not in reachable]


__all__ = ["DominatorTree", "Loop", "find_loops", "unreachable_blocks"]
