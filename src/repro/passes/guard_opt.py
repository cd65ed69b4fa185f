"""Guard optimization (the CARAT CAKE-style optimizing tier, paper §2/§3.3).

CARAT KOP deliberately ships *without* guard optimization; CARAT CAKE
"hoists guards and amortizes them across many references" using NOELLE.
This pass implements the production optimizing tier layered on the
faithful paper pipeline.  ``GuardOptPass(level)`` runs the transforms of
one ``-O`` level of :mod:`repro.core.pipeline`:

1. **Dominating-guard elimination** (``-O1``) — a guard is redundant if a
   guard on the same address root with the same flags, whose byte range
   covers it, executes on every path to it (so a guard that block
   coalescing widened still retires the narrow guards it dominates).
2. **Loop-invariant guard hoisting** (``-O1``) — a guard whose address is
   computed outside the loop moves to the preheader and executes once
   instead of once per iteration.  (Speculative: the hoisted guard fires
   even when the loop body would have run zero times.  That is the same
   trade CARAT CAKE makes, and it is conservative in the *safe*
   direction — it can only reject more, never fewer, accesses.)
3. **Range coalescing** (``-O2``) — merges many small guards over one
   object into a single wide guard covering their whole byte range:

   * *Block coalescing*: guards in one basic block whose addresses are
     ``root + constant`` for a common root (the dominant pattern when a
     driver fills a descriptor struct field by field) collapse into one
     guard over ``[min_offset, max_offset + size)``.
   * *Loop-sweep coalescing*: a guard on ``base + i*stride`` inside a
     counted loop (constant init/step/limit) is replaced by one preheader
     guard covering the full swept range — the ring-buffer/descriptor-
     array sweep that dominates the e1000e driver.

   Both directions are conservative the same way hoisting is: the wide
   guard covers a superset of the bytes the small guards touched (it also
   covers gaps between fields), so it can only deny more, never fewer,
   accesses.

Guard keys use a *structural value numbering* per function rather than
``id()`` of the address root: CPython can reuse an object's ``id()``
after garbage collection, and structurally identical address chains
(mini-C re-derives struct-field GEP chains at every access) should
compare equal anyway.  The numbering pins every visited value, so no
``id`` it has handed out can be recycled while the pass runs.
"""

from __future__ import annotations

from typing import Iterable, Optional

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
)
from ..ir.types import I64
from ..ir.values import Argument, Constant, ConstantInt, GlobalValue, Value

from .analysis import DominatorTree, Loop, find_loops

#: Casts that do not change the byte address a pointer refers to.
_ADDR_CASTS = ("bitcast", "inttoptr", "ptrtoint")


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


def _guards_by_root(
    insts: Iterable[Instruction], vn: _ValueNumber
) -> dict[tuple[object, int], list[tuple[Call, int, int]]]:
    """Group the guards among ``insts`` that have a constant size and
    flags by ``(address root, flags)``.  Each entry is ``(guard, byte
    offset off the root, size)``, in ``insts`` order."""
    groups: dict[tuple[object, int], list[tuple[Call, int, int]]] = {}
    for inst in insts:
        if not (isinstance(inst, Call) and inst.is_guard):
            continue
        addr, size, flags = inst.args
        if not (isinstance(size, ConstantInt) and isinstance(flags, ConstantInt)):
            continue
        root, off = _addr_root_offset(addr)
        groups.setdefault((vn.key(root), flags.value), []).append(
            (inst, off, size.value)
        )
    return groups


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
            changed = self._hoist_loop_guards(fn)
            if self.level >= 2:
                changed |= self._coalesce_loop_sweeps(fn)
                changed |= self._coalesce_block_guards(fn)
            changed |= self._eliminate_dominated(fn)
            if changed:
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

    # -- dominance-based elimination ------------------------------------------

    def _eliminate_dominated(self, fn: Function) -> bool:
        """Drop a guard that a kept guard on the same root with the same
        flags dominates and whose byte range that guard covers."""
        dom = DominatorTree(fn)
        removed = False
        for group in _guards_by_root(fn.instructions(), _ValueNumber()).values():
            kept: list[tuple[Call, int, int]] = []
            for g, off, size in group:
                if any(
                    k_off <= off and off + size <= k_off + k_size
                    and self._guard_dominates(k, g, dom)
                    for k, k_off, k_size in kept
                ):
                    assert g.parent is not None
                    g.parent.remove(g)
                    self.guards_removed += 1
                    removed = True
                else:
                    kept.append((g, off, size))
        return removed

    @staticmethod
    def _guard_dominates(a: Call, b: Call, dom: DominatorTree) -> bool:
        ba, bb = a.parent, b.parent
        assert ba is not None and bb is not None
        if ba is bb:
            for inst in ba.instructions:
                if inst is a:
                    return True
                if inst is b:
                    return False
            return False
        return dom.dominates(ba, bb)

    # -- range coalescing ---------------------------------------------------------

    def _coalesce_block_guards(self, fn: Function) -> bool:
        """Merge same-block guards at constant offsets off one root."""
        changed = False
        vn = _ValueNumber()
        for block in fn.blocks:
            for group in _guards_by_root(block.instructions, vn).values():
                if len(group) < 2:
                    continue
                lo = min(off for _, off, _ in group)
                hi = max(off + size for _, off, size in group)
                if hi - lo > self.MAX_COALESCE_SPAN:
                    continue
                first, off0, _ = group[0]
                changed = True
                self._emit_wide_guard(
                    fn, block, first, first.args[0], lo - off0, hi - lo
                )
                for g, _, _ in group:
                    block.remove(g)
                self.guards_coalesced += len(group) - 1
        return changed

    def _coalesce_loop_sweeps(self, fn: Function) -> bool:
        """Replace ``base + i*stride`` sweep guards with one range guard."""
        changed = False
        progress = True
        while progress:
            progress = False
            dom = DominatorTree(fn)
            for loop in find_loops(fn, dom):
                iv = counted_induction(loop)
                if iv is None:
                    continue
                phi, init, step, last = iv
                sweeps = self._sweep_guards(loop, phi)
                if not sweeps:
                    continue
                preheader = self._get_or_create_preheader(fn, loop)
                if preheader is None:
                    continue
                term = preheader.terminator
                assert term is not None
                loop_ids = {id(b) for b in loop.blocks}
                for guard, gep, size in sweeps:
                    span_off = init * gep.scale + gep.displacement
                    span_size = (last - init) * gep.scale + size
                    if span_size <= 0 or span_size > self.MAX_COALESCE_SPAN:
                        continue
                    base = self._materialize_invariant(
                        fn, gep.base, loop_ids, preheader, term
                    )
                    wide_addr = Gep(
                        base.type,
                        base,
                        ConstantInt(I64, 0),
                        0,
                        span_off,
                        fn.unique_name("gsweep"),
                    )
                    preheader.insert_before(wide_addr, term)
                    addr: Value = wide_addr
                    if addr.type is not guard.args[0].type:
                        cast = Cast(
                            "bitcast",
                            addr,
                            guard.args[0].type,
                            fn.unique_name("gaddr"),
                        )
                        preheader.insert_before(cast, term)
                        addr = cast
                    wide = Call(
                        guard.callee,
                        [
                            addr,
                            ConstantInt(guard.args[1].type, span_size),
                            guard.args[2],
                        ],
                    )
                    wide.is_guard = True
                    preheader.insert_before(wide, term)
                    assert guard.parent is not None
                    guard.parent.remove(guard)
                    self.guards_coalesced += 1
                    changed = True
                    progress = True
                if progress:
                    break  # CFG may have changed; restart loop analysis
        return changed

    def _emit_wide_guard(
        self,
        fn: Function,
        block: BasicBlock,
        before: Call,
        anchor: Value,
        delta: int,
        size: int,
    ) -> None:
        """Insert ``guard(anchor + delta, size)`` in front of ``before``."""
        addr: Value = anchor
        if delta != 0:
            gep = Gep(
                anchor.type,  # anchor is the guard's i8* operand
                anchor,
                ConstantInt(I64, 0),
                0,
                delta,
                fn.unique_name("gcoal"),
            )
            block.insert_before(gep, before)
            addr = gep
        wide = Call(
            before.callee,
            [addr, ConstantInt(before.args[1].type, size), before.args[2]],
        )
        wide.is_guard = True
        block.insert_before(wide, before)

    def _sweep_guards(
        self, loop: Loop, phi: Phi
    ) -> list[tuple[Call, Gep, int]]:
        """Guards whose address is ``gep(base, phi, stride)`` with an
        invariant base — the descriptor-array sweep shape."""
        loop_ids = {id(b) for b in loop.blocks}
        out: list[tuple[Call, Gep, int]] = []
        for block in loop.blocks:
            for inst in block.instructions:
                if not (isinstance(inst, Call) and inst.is_guard):
                    continue
                addr, size, flags = inst.args
                if not (
                    isinstance(size, ConstantInt)
                    and isinstance(flags, ConstantInt)
                ):
                    continue
                v: Value = addr
                while isinstance(v, Cast) and v.op in _ADDR_CASTS:
                    v = v.value
                if not (isinstance(v, Gep) and v.index is phi and v.scale > 0):
                    continue
                if not self._invariant_addr(v.base, loop_ids):
                    continue
                out.append((inst, v, size.value))
        return out

    def _invariant_addr(self, value: Value, loop_ids: set[int]) -> bool:
        """Loop-invariant pure address arithmetic: defined outside the
        loop, or a cast / constant-index GEP chain over invariant leaves
        (array-decay GEPs are materialized inside the loop body even
        when the array itself is a module global)."""
        if self._defined_outside(value, loop_ids):
            return True
        if isinstance(value, Cast) and value.op in _ADDR_CASTS:
            return self._invariant_addr(value.value, loop_ids)
        if isinstance(value, Gep) and isinstance(value.index, ConstantInt):
            return self._invariant_addr(value.base, loop_ids)
        return False

    def _materialize_invariant(
        self,
        fn: Function,
        value: Value,
        loop_ids: set[int],
        preheader: BasicBlock,
        term: Instruction,
    ) -> Value:
        """A preheader-visible copy of an invariant address chain:
        cast / constant-GEP defs living inside the loop are cloned in
        front of ``term``; everything else is used as-is."""
        if self._defined_outside(value, loop_ids):
            return value
        if isinstance(value, Cast):
            inner = self._materialize_invariant(
                fn, value.value, loop_ids, preheader, term
            )
            clone: Instruction = Cast(
                value.op, inner, value.type, fn.unique_name("ginv")
            )
        elif isinstance(value, Gep):
            base = self._materialize_invariant(
                fn, value.base, loop_ids, preheader, term
            )
            clone = Gep(
                value.type, base, value.index, value.scale,
                value.displacement, fn.unique_name("ginv"),
            )
        else:  # pragma: no cover - guarded by _invariant_addr
            raise AssertionError("not an invariant address chain")
        preheader.insert_before(clone, term)
        return clone

    # -- loop hoisting ------------------------------------------------------------

    def _hoist_loop_guards(self, fn: Function) -> bool:
        changed = False
        # Recompute loops after each preheader insertion (CFG changes).
        progress = True
        while progress:
            progress = False
            dom = DominatorTree(fn)
            for loop in find_loops(fn, dom):
                hoistable = self._hoistable_guards(loop)
                if not hoistable:
                    continue
                preheader = self._get_or_create_preheader(fn, loop)
                if preheader is None:
                    continue
                term = preheader.terminator
                assert term is not None
                for guard in hoistable:
                    # Rebuild the guard in the preheader from the invariant
                    # address root (its definition dominates the preheader:
                    # it dominated every use inside the loop, and the
                    # preheader is on the only non-latch path to the header).
                    root = _resolve_pointer_root(guard.args[0])
                    addr: Value = root
                    if root.type is not guard.args[0].type:
                        cast = Cast(
                            "bitcast", root, guard.args[0].type,
                            fn.unique_name("gaddr"),
                        )
                        preheader.insert_before(cast, term)
                        addr = cast
                    hoisted = Call(guard.callee, [addr, guard.args[1], guard.args[2]])
                    hoisted.is_guard = True
                    preheader.insert_before(hoisted, term)
                    assert guard.parent is not None
                    guard.parent.remove(guard)
                    self.guards_hoisted += 1
                changed = True
                progress = True
                break  # loop structures changed; restart analysis
        return changed

    def _hoistable_guards(self, loop: Loop) -> list[Call]:
        loop_ids = {id(b) for b in loop.blocks}
        out: list[Call] = []
        for block in loop.blocks:
            for inst in block.instructions:
                if not (isinstance(inst, Call) and inst.is_guard):
                    continue
                root = _resolve_pointer_root(inst.args[0])
                if self._defined_outside(root, loop_ids):
                    out.append(inst)
        return out

    @staticmethod
    def _defined_outside(value: Value, loop_ids: set[int]) -> bool:
        if isinstance(value, (Argument, Constant, GlobalValue)):
            return True
        if isinstance(value, Instruction):
            return value.parent is not None and id(value.parent) not in loop_ids
        return False

    def _get_or_create_preheader(
        self, fn: Function, loop: Loop
    ) -> Optional[BasicBlock]:
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
        assert term is not None
        targets = getattr(term, "targets", None)
        if targets is not None:
            for i, t in enumerate(targets):
                if t is loop.header:
                    targets[i] = preheader
        if hasattr(term, "default") and term.default is loop.header:  # Switch
            term.default = preheader
        if hasattr(term, "cases"):
            term.cases = [
                (c, preheader if b is loop.header else b) for c, b in term.cases
            ]
        # Fix header phis: the edge from entry now comes from the preheader.
        for phi in loop.header.phis():
            phi.incoming = [
                (v, preheader if b is entry else b) for v, b in phi.incoming
            ]
        return preheader


__all__ = ["GuardOptPass", "counted_induction"]
