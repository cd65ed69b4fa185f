"""Guard optimization (the CARAT CAKE-style optimizing tier, paper §2/§3.3).

CARAT KOP deliberately ships *without* guard optimization; CARAT CAKE
"hoists guards and amortizes them across many references" using NOELLE.
This pass implements the production optimizing tier layered on the
faithful paper pipeline.  ``GuardOptPass(level)`` runs the transforms of
one ``-O`` level of :mod:`repro.core.pipeline`.  Every decision about
where a guard may move, widen or vanish lives in one of two places:

1. **The loop transform** (:meth:`GuardOptPass._move_to_preheaders`)
   finds the loops, gets or splits each preheader, rematerializes the
   invariant address chain there, emits the moved guard and restarts
   after every change.  Two candidate rules feed it, in this order:

   * *Loop-invariant hoisting* (``-O1``) — a guard whose address is
     computed outside the loop executes once instead of once per
     iteration.
   * *Sweep ranges* (``-O2``) — a guard on ``base + i*stride`` inside a
     counted loop (constant init/step/limit) becomes one guard covering
     the full swept range: the ring-buffer/descriptor-array sweep that
     dominates the e1000e driver.

   Both are speculative: the moved guard fires even when the loop body
   would have run zero times.  That is the same trade CARAT CAKE makes,
   and it is conservative in the *safe* direction — it can only reject
   more, never fewer, accesses.

2. **The cover rule** (:meth:`GuardOptPass._drop_covered`) — a guard is
   dropped only where a kept guard on the same address root with the
   same flags covers its bytes and dominates it (``-O1``).  At ``-O2``
   each same-block group of guards at constant offsets off one root
   (the dominant pattern when a driver fills a descriptor struct field
   by field) first has its leading guard widened in place to
   ``[min_offset, max_offset + size)``; the same walk then drops the
   rest, counted as coalesced.  The wide guard also covers the gaps
   between fields, so it too can only deny more.

Every guard the tier and :mod:`repro.passes.guard_injection` build comes
from :func:`repro.passes.guard_injection.emit_guard`.

Guard keys use a *structural value numbering* per function rather than
``id()`` of the address root: CPython can reuse an object's ``id()``
after garbage collection, and structurally identical address chains
(mini-C re-derives struct-field GEP chains at every access) should
compare equal anyway.  The numbering pins every visited value, so no
``id`` it has handed out can be recycled while the pass runs.
"""

from __future__ import annotations

from typing import Callable, Optional

from .. import abi
from ..ir import BasicBlock, Function, Module
from ..ir.instructions import (
    BinOp,
    Br,
    Call,
    Cast,
    Gep,
    ICmp,
    Instruction,
    Phi,
    Switch,
)
from ..ir.values import Argument, Constant, ConstantInt, GlobalValue, Value

from .analysis import DominatorTree, Loop, find_loops
from .guard_injection import emit_guard

#: Casts that do not change the byte address a pointer refers to.
_ADDR_CASTS = ("bitcast", "inttoptr", "ptrtoint")

#: A guard the loop transform moves: ``(guard, invariant pointer,
#: (name prefix, byte offset) to add or None, size operand)``.
_Move = tuple[Call, Value, Optional[tuple[str, int]], Value]


def counted_induction(loop: Loop) -> Optional[tuple[Phi, int, int, int]]:
    """Recognize ``for (i = C0; i < C1; i += C2)`` in the loop header.

    Returns ``(phi, init, step, last)`` where ``last`` is the final
    value the induction variable takes inside the loop, or ``None``
    when the loop is not a simple counted sweep.  Shared with the
    load-time verifier (:mod:`repro.passes.absint`), which uses the same
    recognition to bound induction-variable ranges.
    """
    header = loop.header
    term = header.terminator
    if not (isinstance(term, Br) and term.is_conditional):
        return None
    cond = term.condition
    if not (isinstance(cond, ICmp) and cond.pred in ("slt", "ult")):
        return None
    # True edge must stay in the loop, false edge must exit.
    if not (
        loop.contains(term.targets[0])
        and not loop.contains(term.targets[1])
    ):
        return None
    phi, limit = cond.lhs, cond.rhs
    if not (isinstance(phi, Phi) and isinstance(limit, ConstantInt)):
        return None
    if phi.parent is not header or len(phi.incoming) != 2:
        return None
    init: Optional[int] = None
    step: Optional[int] = None
    for value, block in phi.incoming:
        if loop.contains(block):
            if isinstance(value, BinOp) and value.op == "add":
                if value.lhs is phi and isinstance(value.rhs, ConstantInt):
                    step = value.rhs.signed
                elif value.rhs is phi and isinstance(value.lhs, ConstantInt):
                    step = value.lhs.signed
        elif isinstance(value, ConstantInt):
            init = value.signed
    lim = limit.signed
    if init is None or step is None or step <= 0:
        return None
    if init < 0 or lim < 0:
        return None  # keep slt/ult equivalent: nonnegative ranges only
    if lim <= init:
        return None  # zero-trip loop: nothing to cover
    last = init + ((lim - 1 - init) // step) * step
    return phi, init, step, last


class _ValueNumber:
    """Structural value numbering for address computations.

    Pure address arithmetic (constants, globals, arguments, casts, GEPs,
    binops) numbers structurally: two separately materialized chains that
    compute the same bytes get the same key.  Everything else — loads,
    calls, phis, allocas — gets a unique per-object ordinal, because two
    executions of the same instruction may produce different values.

    Every value the numbering touches is pinned in ``_memo`` (the dict
    holds the object itself, not just its ``id``), so the ``id``-based
    lookup can never alias a recycled object.
    """

    __slots__ = ("_memo", "_next_ordinal")

    def __init__(self) -> None:
        self._memo: dict[int, tuple[Value, object]] = {}
        self._next_ordinal = 0

    def key(self, value: Value) -> object:
        entry = self._memo.get(id(value))
        if entry is not None and entry[0] is value:
            return entry[1]
        k = self._compute(value)
        self._memo[id(value)] = (value, k)
        return k

    def _compute(self, value: Value) -> object:
        if isinstance(value, ConstantInt):
            return ("const", str(value.type), value.value)
        if isinstance(value, GlobalValue):
            return ("global", value.name)
        if isinstance(value, Argument):
            return ("arg", value.index)
        if isinstance(value, Cast):
            return ("cast", value.op, str(value.type), self.key(value.value))
        if isinstance(value, Gep):
            return (
                "gep",
                self.key(value.base),
                self.key(value.index),
                value.scale,
                value.displacement,
            )
        if isinstance(value, BinOp):
            return ("binop", value.op, self.key(value.lhs), self.key(value.rhs))
        # Opaque definition (load/call/phi/alloca/other constants): a fresh
        # ordinal, unique to this object for the lifetime of the numbering.
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        return ("inst", ordinal)


def _resolve_pointer_root(value: Value) -> Value:
    """Look through bitcasts to the underlying pointer computation."""
    while isinstance(value, Cast) and value.op == "bitcast":
        value = value.value
    return value


def _addr_root_offset(value: Value) -> tuple[Value, int]:
    """Decompose an address into ``(root, constant byte offset)``.

    Walks address-preserving casts, ``add``/``sub`` with a constant, and
    constant-index GEPs.  The returned root is the first value the walk
    cannot see through.
    """
    offset = 0
    v = value
    while True:
        if isinstance(v, Cast) and v.op in _ADDR_CASTS:
            v = v.value
            continue
        if isinstance(v, BinOp) and v.op in ("add", "sub"):
            if isinstance(v.rhs, ConstantInt):
                offset += v.rhs.signed if v.op == "add" else -v.rhs.signed
                v = v.lhs
                continue
            if v.op == "add" and isinstance(v.lhs, ConstantInt):
                offset += v.lhs.signed
                v = v.rhs
                continue
            break
        if isinstance(v, Gep) and isinstance(v.index, ConstantInt):
            offset += v.index.signed * v.scale + v.displacement
            v = v.base
            continue
        break
    return v, offset


def _const_guards(insts):
    """The guards among ``insts`` with a constant size and flags, each
    as ``(guard, size, flags)``."""
    for inst in insts:
        if isinstance(inst, Call) and inst.is_guard:
            _, size, flags = inst.args
            if isinstance(size, ConstantInt) and isinstance(flags, ConstantInt):
                yield inst, size, flags


def _defined_outside(value: Value, inside: set[int]) -> bool:
    if isinstance(value, (Argument, Constant, GlobalValue)):
        return True
    if isinstance(value, Instruction):
        return value.parent is not None and id(value.parent) not in inside
    return False


def _invariant_addr(value: Value, inside: set[int]) -> bool:
    """Loop-invariant pure address arithmetic: defined outside the loop,
    or a cast / constant-index GEP chain over invariant leaves
    (array-decay GEPs are materialized inside the loop body even when
    the array itself is a module global)."""
    if _defined_outside(value, inside):
        return True
    if isinstance(value, Cast) and value.op in _ADDR_CASTS:
        return _invariant_addr(value.value, inside)
    if isinstance(value, Gep) and isinstance(value.index, ConstantInt):
        return _invariant_addr(value.base, inside)
    return False


def _materialize(
    value: Value, inside: set[int], preheader: BasicBlock, term: Instruction
) -> Value:
    """A preheader-visible copy of an invariant address chain: cast /
    constant-GEP defs living inside the loop are cloned in front of
    ``term``; everything else is used as-is."""
    if _defined_outside(value, inside):
        return value
    fn = preheader.parent
    if isinstance(value, Cast):
        inner = _materialize(value.value, inside, preheader, term)
        clone: Instruction = Cast(
            value.op, inner, value.type, fn.unique_name("ginv")
        )
    elif isinstance(value, Gep):
        base = _materialize(value.base, inside, preheader, term)
        clone = Gep(
            value.type, base, value.index, value.scale,
            value.displacement, fn.unique_name("ginv"),
        )
    else:  # pragma: no cover - guarded by _invariant_addr
        raise AssertionError("not an invariant address chain")
    return preheader.insert_before(clone, term)


class GuardOptPass:
    """Eliminate, hoist, and coalesce guards (`-O1`/`-O2` transforms)."""

    name = "kop-guard-opt"

    #: Refuse to widen a guard beyond this many bytes: a pathological span
    #: (e.g. a sweep with a huge constant trip count) would turn one object
    #: guard into a region-sized probe.
    MAX_COALESCE_SPAN = 1 << 16

    def __init__(self, level: int = 1) -> None:
        """``level`` is the ``-O`` tier: 1 hoists loop-invariant guards
        and drops dominated ones; 2 also coalesces guard ranges."""
        if level not in (1, 2):
            raise ValueError(f"guard-opt level must be 1 or 2: {level}")
        self.level = level
        self.guards_removed = 0
        self.guards_hoisted = 0
        self.guards_coalesced = 0
        self.changed_functions: list[Function] = []

    def run(self, module: Module) -> bool:
        self.changed_functions = []
        if not module.metadata.get(abi.META_GUARDED):
            return False  # nothing to optimize until guards exist
        for fn in module.defined_functions():
            moved = self._move_to_preheaders(fn, self._invariant_guards)
            self.guards_hoisted += moved
            if self.level >= 2:
                swept = self._move_to_preheaders(fn, self._sweep_guards)
                self.guards_coalesced += swept
                moved += swept
            if self._drop_covered(fn) or moved:
                self.changed_functions.append(fn)
        changed = bool(self.changed_functions)
        if changed:
            remaining = sum(
                1
                for fn in module.defined_functions()
                for inst in fn.instructions()
                if isinstance(inst, Call) and inst.is_guard
            )
            module.metadata[abi.META_GUARD_COUNT] = remaining
        return changed

    # -- the cover rule -----------------------------------------------------------

    def _drop_covered(self, fn: Function) -> bool:
        """Drop every guard that a kept guard on the same value-numbered
        root with the same flags covers and dominates.  At ``-O2``, first
        widen each same-block group's leading guard over the group's
        whole range, so that the walk drops the rest as coalesced."""
        vn = _ValueNumber()
        # (root key, flags) -> [(guard, offset off the root, size)] in
        # instruction order, and each block's positions in those lists.
        groups: dict[tuple[object, int], list[tuple[Call, int, int]]] = {}
        in_block: dict[tuple[BasicBlock, tuple[object, int]], list[int]] = {}
        for block in fn.blocks:
            for guard, size, flags in _const_guards(block.instructions):
                root, off = _addr_root_offset(guard.args[0])
                key = (vn.key(root), flags.value)
                group = groups.setdefault(key, [])
                in_block.setdefault((block, key), []).append(len(group))
                group.append((guard, off, size.value))
        widened: set[int] = set()
        if self.level >= 2:
            for (block, key), positions in in_block.items():
                if len(positions) < 2:
                    continue
                members = [groups[key][i] for i in positions]
                lo = min(off for _, off, _ in members)
                hi = max(off + size for _, off, size in members)
                if hi - lo > self.MAX_COALESCE_SPAN:
                    continue
                first, off0, _ = members[0]
                wide = emit_guard(
                    block, first, first.callee, first.args[0],
                    ConstantInt(first.args[1].type, hi - lo), first.args[2],
                    offset=None if lo == off0 else ("gcoal", lo - off0),
                )
                block.remove(first)
                groups[key][positions[0]] = (wide, lo, hi - lo)
                widened.update(id(g) for g, _, _ in members[1:])
        dom = DominatorTree(fn)
        dropped = False
        for group in groups.values():
            kept: list[tuple[Call, int, int]] = []
            for g, off, size in group:
                # A kept guard precedes ``g`` in instruction order, so in
                # the same block it dominates ``g`` too.
                if any(
                    k_off <= off and off + size <= k_off + k_size
                    and dom.dominates(k.parent, g.parent)
                    for k, k_off, k_size in kept
                ):
                    g.parent.remove(g)
                    if id(g) in widened:
                        self.guards_coalesced += 1
                    else:
                        self.guards_removed += 1
                    dropped = True
                else:
                    kept.append((g, off, size))
        return dropped

    # -- the loop transform -------------------------------------------------------

    def _move_to_preheaders(
        self, fn: Function, rule: Callable[[Loop, set[int]], list[_Move]]
    ) -> int:
        """Move each guard that ``rule`` picks from a loop to the loop's
        preheader, rebuilt over its invariant pointer.  Returns how many
        guards moved."""
        moved = 0
        restart = True
        while restart:
            restart = False
            for loop in find_loops(fn, DominatorTree(fn)):
                inside = {id(b) for b in loop.blocks}
                moves = rule(loop, inside)
                if not moves:
                    continue
                preheader = self._preheader(fn, loop)
                if preheader is None:
                    continue
                term = preheader.terminator
                assert term is not None
                for guard, pointer, offset, size in moves:
                    # The invariant chain's leaves dominate the preheader:
                    # they dominated every use inside the loop, and the
                    # preheader is on the only non-latch path to the header.
                    base = _materialize(pointer, inside, preheader, term)
                    emit_guard(
                        preheader, term, guard.callee, base, size,
                        guard.args[2], offset,
                    )
                    assert guard.parent is not None
                    guard.parent.remove(guard)
                moved += len(moves)
                restart = True
                break  # the CFG may have changed; find the loops again
        return moved

    def _invariant_guards(self, loop: Loop, inside: set[int]) -> list[_Move]:
        """Hoisting: guards whose address root (through bitcasts) is
        defined outside the loop, moved unchanged."""
        out: list[_Move] = []
        for block in loop.blocks:
            for inst in block.instructions:
                if not (isinstance(inst, Call) and inst.is_guard):
                    continue
                root = _resolve_pointer_root(inst.args[0])
                if _defined_outside(root, inside):
                    out.append((inst, root, None, inst.args[1]))
        return out

    def _sweep_guards(self, loop: Loop, inside: set[int]) -> list[_Move]:
        """Sweep ranges: guards on ``gep(base, i, stride)`` for the
        counted induction ``i`` and an invariant base, each widened to
        the bytes its whole sweep touches."""
        iv = counted_induction(loop)
        if iv is None:
            return []
        phi, init, _, last = iv
        out: list[_Move] = []
        insts = (i for block in loop.blocks for i in block.instructions)
        for guard, size, _ in _const_guards(insts):
            v: Value = guard.args[0]
            while isinstance(v, Cast) and v.op in _ADDR_CASTS:
                v = v.value
            if not (isinstance(v, Gep) and v.index is phi and v.scale > 0):
                continue
            if not _invariant_addr(v.base, inside):
                continue
            span = (last - init) * v.scale + size.value
            if 0 < span <= self.MAX_COALESCE_SPAN:
                out.append((
                    guard, v.base, ("gsweep", init * v.scale + v.displacement),
                    ConstantInt(size.type, span),
                ))
        return out

    def _preheader(self, fn: Function, loop: Loop) -> Optional[BasicBlock]:
        """The block that alone enters ``loop``'s header, split off the
        entry edge if that edge is conditional; None when the header has
        several entries."""
        preds = fn.predecessors()[loop.header]
        latch_ids = {id(l) for l in loop.latches}
        entries = [p for p in preds if id(p) not in latch_ids]
        if len(entries) != 1:
            return None  # only handle the structured-codegen common case
        entry = entries[0]
        term = entry.terminator
        if isinstance(term, Br) and not term.is_conditional:
            # The entry block already falls straight into the header: it can
            # serve as the preheader directly.
            return entry
        # Split the edge entry -> header.
        preheader = BasicBlock(fn.unique_name(f"{loop.header.name}.preheader"), fn)
        idx = fn.blocks.index(loop.header)
        fn.blocks.insert(idx, preheader)
        br = Br(loop.header)
        br.parent = preheader
        preheader.instructions.append(br)
        # Retarget the entry edge.
        if isinstance(term, Switch):
            if term.default is loop.header:
                term.default = preheader
            term.cases = [
                (c, preheader if b is loop.header else b) for c, b in term.cases
            ]
        else:
            assert isinstance(term, Br)
            term.targets[:] = [
                preheader if t is loop.header else t for t in term.targets
            ]
        # Fix header phis: the edge from entry now comes from the preheader.
        for phi in loop.header.phis():
            phi.incoming = [
                (v, preheader if b is entry else b) for v, b in phi.incoming
            ]
        return preheader


__all__ = ["GuardOptPass", "counted_induction"]
