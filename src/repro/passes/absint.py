"""Load-time abstract interpretation: prove guards in-policy, then elide.

The eBPF-verifier / MOAT move applied to CARAT KOP: instead of paying a
dynamic ``carat_guard`` check on every access, *prove* at module-load
time that an access can only ever land in policy-allowed memory, and run
that access with no guard at all.  Dynamic guards remain only where the
verifier cannot conclude safety — enforcement becomes hybrid
static+dynamic, with the kernel checking the certificate's proof at
insmod so the certificate shipped with the module is never trusted on
its own.

Abstract domain
---------------

A value is a small union (at most :data:`MAX_ATOMS`) of unsigned-64
intervals ``(lo, hi)``, normalized sorted and disjoint.  Provenance is
positional: the simulated address-space layout gives every allocator a
fixed window, so "this came from ``kmalloc``" is simply the direct-map
interval, "this is a module global" is the module-area interval, and so
on.  All arithmetic refuses wraparound: an address chain whose offset
could overflow the 64-bit space (or its own integer width) widens to
``TOP`` and its guard stays dynamic — this is what rejects the
offset-overflow adversarial modules.

Three kinds of facts feed the evaluation:

- **Field facts**: a module-level fixpoint joins every value stored to
  ``(global, constant offset, size)``.  Reads also join the implicit
  zero initializer.  A store the analysis cannot place (TOP address, or
  a computed address overlapping the module area) havocs all field
  facts — wild stores may alias anything.
- **Summaries**: an internal function's argument ranges are the join
  over its module-internal call sites; exported entry points default to
  TOP.  Small callees are additionally evaluated inline (context
  sensitively, bounded depth) so helper-heavy drivers don't collapse to
  TOP at every call boundary.
- **Contracts**: trusted, kernel-registered declarations (entry-argument
  ranges and global-field ranges) standing in for invariants a local
  analysis cannot see — exactly the role of eBPF helper annotations.
  Contracts are part of the TCB; their canonical digest is bound into
  the verification certificate and checked at insmod, so a module can
  never smuggle its own.

Determinism: the analysis is a pure function of (IR, policy-table
content, contract set).  The compiler searches for the summaries with a
fixpoint and ships the final ones in the certificate; insmod does not
search again.  :meth:`ModuleVerifier.checking` seeds the claimed
summaries — but takes exported and contracted arguments, the set of
reached functions and the store shapes from the module and the kernel,
never from the claim — and runs *one* round of the same transfer
functions.  If no summary grows, the claim is inductive and the verdict
walk from it yields exactly the compiler's verdicts; if one grows, or
the verdicts differ, the certificate is refused.  Checking a proof is
cheaper than finding it (proof-carrying code, Necula, POPL '97): no
iteration and no widening.  A fixpoint cut off at ``MAX_ROUNDS`` widens
to summaries that are themselves inductive, so it checks too.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from .. import abi
from ..ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    Gep,
    ICmp,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from ..ir.module import Function, Module
from ..ir.types import IntType, PointerType, StructType
from ..ir.values import (
    Argument,
    ConstantInt,
    ConstantNull,
    GlobalValue,
    GlobalVariable,
    Value,
)
from ..kernel import layout
from ..signing.certificate import CertificateError
from .analysis import find_loops
from .guard_opt import _addr_root_offset, counted_induction

U64_MAX = (1 << 64) - 1

#: Full 64-bit range: the "don't know" element.
TOP = ((0, U64_MAX),)

#: Union-domain width: joins merge the closest atoms past this.
MAX_ATOMS = 4

#: Provenance windows of the simulated address space (see kernel.layout).
#: ``heap`` spans the whole direct map up to the next carved-out window,
#: so any RAM size the kernel models stays inside it.
AREAS: dict[str, tuple[int, int]] = {
    "module": (
        layout.MODULE_AREA_BASE,
        layout.MODULE_AREA_BASE + layout.MODULE_AREA_SIZE - 1,
    ),
    "heap": (layout.DIRECT_MAP_BASE, layout.KSTACK_BASE - 1),
    "mmio": (
        layout.VMALLOC_BASE,
        layout.VMALLOC_BASE + layout.VMALLOC_SIZE - 1,
    ),
    "stack": (layout.KSTACK_BASE, layout.KSTACK_BASE + layout.KSTACK_SIZE - 1),
}

_MODULE_AREA = AREAS["module"]

#: Kernel natives that may *write* through a pointer argument (arg index
#: of the destination).  Any other name in this set is read-only with
#: respect to module globals; names outside the set are unknown code and
#: havoc conservatively.  This models the kernel ABI the verifier
#: trusts, the way the eBPF verifier knows its helpers' semantics.
_WRITING_NATIVES = {"memset": 0, "memcpy": 0}
_READONLY_NATIVES = frozenset({
    "kmalloc", "kfree", "printk", "ioremap", "virt_to_phys", "udelay",
    "netif_rx", "request_irq", "free_irq", "mod_timer", "register_chrdev",
})


# ---------------------------------------------------------------------------
# Interval-union arithmetic
# ---------------------------------------------------------------------------


def _norm(atoms) -> tuple:
    """Sort, merge overlapping/adjacent atoms, cap at MAX_ATOMS."""
    atoms = [(lo, hi) for lo, hi in atoms if lo <= hi]
    if not atoms:
        return ()
    atoms.sort()
    merged = [atoms[0]]
    for lo, hi in atoms[1:]:
        mlo, mhi = merged[-1]
        if lo <= mhi + 1:
            merged[-1] = (mlo, max(mhi, hi))
        else:
            merged.append((lo, hi))
    while len(merged) > MAX_ATOMS:
        # Merge across the narrowest gap: loses the least precision.
        best = min(
            range(len(merged) - 1),
            key=lambda i: merged[i + 1][0] - merged[i][1],
        )
        merged[best : best + 2] = [(merged[best][0], merged[best + 1][1])]
    return tuple(merged)


def _well_formed(av) -> bool:
    """True for a value the analysis itself could produce: sorted,
    disjoint, merged, at most MAX_ATOMS atoms, all inside u64."""
    try:
        return (isinstance(av, tuple) and _norm(av) == av
                and all(0 <= lo and hi <= U64_MAX for lo, hi in av))
    except (TypeError, ValueError):
        return False  # not a sequence of integer pairs


def av_join(a: tuple, b: tuple) -> tuple:
    return _norm(list(a) + list(b))


def av_const(v: int) -> tuple:
    v &= U64_MAX
    return ((v, v),)


def av_is_top(a: tuple) -> bool:
    return a == TOP


def av_overlaps(a: tuple, span: tuple[int, int]) -> bool:
    lo, hi = span
    return any(alo <= hi and lo <= ahi for alo, ahi in a)


def _width_max(value: Value) -> int:
    t = value.type
    if isinstance(t, IntType):
        return t.max_unsigned
    return U64_MAX


def av_top_for(value: Value) -> tuple:
    return ((0, _width_max(value)),)


def av_add(a: tuple, b: tuple, limit: int = U64_MAX) -> tuple:
    if av_is_top(a) or av_is_top(b) or not a or not b:
        return TOP
    out = []
    for alo, ahi in a:
        for blo, bhi in b:
            if ahi + bhi > limit:
                return TOP  # could wrap at this width: refuse
            out.append((alo + blo, ahi + bhi))
    return _norm(out)


def av_sub(a: tuple, b: tuple) -> tuple:
    if av_is_top(a) or av_is_top(b) or not a or not b:
        return TOP
    out = []
    for alo, ahi in a:
        for blo, bhi in b:
            if alo < bhi:
                return TOP  # could wrap below zero
            out.append((alo - bhi, ahi - blo))
    return _norm(out)


def av_mul(a: tuple, b: tuple, limit: int = U64_MAX) -> tuple:
    if av_is_top(a) or av_is_top(b) or not a or not b:
        return TOP
    out = []
    for alo, ahi in a:
        for blo, bhi in b:
            if ahi * bhi > limit:
                return TOP
            out.append((alo * blo, ahi * bhi))
    return _norm(out)


def av_sext(a: tuple, src_bits: int, dst_bits: int) -> tuple:
    """Sign-extend the unsigned representation from src to dst width."""
    if not a:
        return ()
    boundary = 1 << (src_bits - 1)
    shift = (1 << dst_bits) - (1 << src_bits)
    out = []
    for lo, hi in a:
        if hi < boundary:  # wholly non-negative
            out.append((lo, hi))
        elif lo >= boundary:  # wholly negative
            out.append((lo + shift, hi + shift))
        else:  # straddles the sign boundary: split
            out.append((lo, boundary - 1))
            out.append((boundary + shift, hi + shift))
    return _norm(out)


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------


def _area_pointer(area: str, reserve: int) -> tuple[int, int]:
    """Possible values of a pointer into ``area`` with ``reserve`` bytes
    of object guaranteed to fit above it (allocators place whole objects
    inside their windows, so the pointer cannot sit in the last
    ``reserve - 1`` bytes)."""
    lo, hi = AREAS[area]
    if reserve > 0:
        hi = hi - reserve + 1
        if hi < lo:
            return (0, U64_MAX)
    return (lo, hi)


@dataclass(frozen=True)
class ArgContract:
    """Trusted range of an exported entry point's argument.

    ``area`` names a provenance window; ``reserve`` is the object size
    the caller guarantees to fit above the pointer.
    """

    function: str
    arg: int
    lo: int = 0
    hi: int = 0
    area: str = ""
    reserve: int = 0

    def interval(self) -> tuple[int, int]:
        if self.area:
            return _area_pointer(self.area, self.reserve)
        return (self.lo, self.hi)

    def canonical(self) -> str:
        lo, hi = self.interval()
        return f"arg|{self.function}|{self.arg}|{lo:x}|{hi:x}"


@dataclass(frozen=True)
class FieldContract:
    """Trusted range of a global's field, named by dotted path.

    ``path=""`` addresses a scalar global directly.  The path resolves
    against the module's own struct layout at analysis time, so the
    contract is stated symbolically and applies only to modules that
    actually declare the global/field.  ``area``/``reserve`` as in
    :class:`ArgContract`.
    """

    glob: str
    path: str = ""
    lo: int = 0
    hi: int = 0
    area: str = ""
    reserve: int = 0

    def interval(self) -> tuple[int, int]:
        if self.area:
            return _area_pointer(self.area, self.reserve)
        return (self.lo, self.hi)

    def canonical(self) -> str:
        lo, hi = self.interval()
        return f"field|{self.glob}|{self.path}|{lo:x}|{hi:x}"


class ContractSet:
    """An ordered, digestable collection of trusted contracts."""

    def __init__(self, items=()):
        self.items = tuple(items)

    def __len__(self) -> int:
        return len(self.items)

    def digest(self) -> str:
        h = hashlib.sha256()
        for line in sorted(c.canonical() for c in self.items):
            h.update(line.encode())
            h.update(b"\n")
        return h.hexdigest()

    def arg_map(self) -> dict[tuple[str, int], tuple]:
        out: dict[tuple[str, int], tuple] = {}
        for c in self.items:
            if isinstance(c, ArgContract):
                out[(c.function, c.arg)] = (c.interval(),)
        return out

    def field_map(self, module: Module) -> dict[tuple[str, int, int], tuple]:
        """Resolve field contracts against this module's globals.

        Contracts naming globals or fields the module does not declare
        are skipped: the set is kernel-wide, modules opt in by shape.
        """
        out: dict[tuple[str, int, int], tuple] = {}
        for c in self.items:
            if not isinstance(c, FieldContract):
                continue
            g = module.globals.get(c.glob)
            if g is None:
                continue
            t = g.value_type
            offset = 0
            ok = True
            if c.path:
                for part in c.path.split("."):
                    if not isinstance(t, StructType):
                        ok = False
                        break
                    try:
                        idx = t.field_index(part)
                    except KeyError:
                        ok = False
                        break
                    offset += t.field_offset(idx)
                    t = t.fields[idx]
            if not ok or isinstance(t, StructType):
                continue
            size = t.size_bytes()
            if size > 8:
                continue
            lo, hi = c.interval()
            # Clip to what the field can physically hold.
            hi = min(hi, (1 << (8 * size)) - 1)
            if lo > hi:
                continue
            out[(c.glob, offset, size)] = ((lo, hi),)
        return out


EMPTY_CONTRACTS = ContractSet()


# ---------------------------------------------------------------------------
# The verifier
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    """Deterministic per-guard-site verdicts for one module, plus the
    final summaries the verdict walk used: the proof a certificate
    carries and insmod checks (:meth:`ModuleVerifier.checking`)."""

    verdicts: tuple[tuple[str, tuple[int, ...]], ...]
    guards_proven: int
    guards_dynamic: int
    contracts_digest: str
    #: ``(function, per-argument value)`` for every defined function,
    #: in module order.
    arg_summaries: tuple[tuple[str, tuple[tuple, ...]], ...] = ()
    #: ``(function, return value)``, sorted by name.
    ret_summaries: tuple[tuple[str, tuple], ...] = ()
    #: ``(global, offset, size, value)``, sorted; empty once
    #: ``havoc_fields`` is set (the facts are dead then).
    field_facts: tuple[tuple[str, int, int, tuple], ...] = ()
    havoc_fields: bool = False

    def proven_map(self) -> dict[str, tuple[int, ...]]:
        return dict(self.verdicts)


class _Frame:
    """One evaluation context: a function plus abstract argument values."""

    __slots__ = ("fn", "args", "memo", "busy")

    def __init__(self, fn: Function, args: tuple):
        self.fn = fn
        self.args = args
        self.memo: dict[int, tuple] = {}
        self.busy: set[int] = set()


class ModuleVerifier:
    """Abstract-interpretation verdicts for every guard site in a module.

    ``run()`` is pure with respect to its inputs.  The compiler's
    verifier searches for the summaries (a fixpoint); a verifier built
    by :meth:`checking` instead checks claimed summaries in one round,
    which is what insmod runs against its own policy table and contract
    registry.
    """

    MAX_ROUNDS = 10
    MAX_INLINE_DEPTH = 4
    MAX_INLINE_INSTS = 80

    def __init__(self, module: Module, table,
                 contracts: Optional[ContractSet] = None):
        self.module = module
        self.table = table
        self.contracts = contracts if contracts is not None else EMPTY_CONTRACTS
        self._contract_args = self.contracts.arg_map()
        self._contract_fields = self.contracts.field_map(module)
        self.field_facts: dict[tuple[str, int, int], tuple] = {}
        self.store_keys: dict[str, set[tuple[int, int]]] = {}
        self.havoc_fields = False
        self.arg_summary: dict[str, list[tuple]] = {}
        self.ret_summary: dict[str, tuple] = {}
        self.reached: set[str] = set()
        self._phi_ranges: dict[int, tuple] = {}
        self._phi_scanned: set[str] = set()
        self._inline_cache: dict = {}
        self._call_stack: list = []
        self._depth = 0
        self._claim = None

    @classmethod
    def checking(cls, module: Module, table,
                 contracts: Optional[ContractSet], claim) -> "ModuleVerifier":
        """A verifier whose ``run()`` checks ``claim``'s summaries instead
        of searching for them.

        ``claim`` carries the four summary fields of a
        :class:`VerificationReport` (a ``VerificationCertificate`` does).
        ``run()`` raises :class:`CertificateError` when the claim does
        not check; its verdicts are otherwise those of a full run from
        the same summaries.
        """
        verifier = cls(module, table, contracts)
        verifier._claim = claim
        return verifier

    # -- public API ---------------------------------------------------------

    def run(self) -> VerificationReport:
        defined = list(self.module.defined_functions())
        for fn in defined:
            exported = fn.linkage == "exported"
            args = []
            for i, a in enumerate(fn.args):
                c = self._contract_args.get((fn.name, i))
                if c is not None:
                    args.append(c)
                elif exported:
                    args.append(av_top_for(a))
                else:
                    args.append(())  # bottom until a call site reaches it
            self.arg_summary[fn.name] = args
            if exported:
                self.reached.add(fn.name)

        claim = self._claim
        if claim is None:
            self._fixpoint(defined)
        else:
            self._check_round(defined, claim)

        # Unreached internal functions get TOP args for the verdict walk:
        # claiming their guards proven because "no one calls them" would
        # be wrong the moment a later kernel export binds them.
        for fn in defined:
            args = self.arg_summary[fn.name]
            for i, av in enumerate(args):
                if not av:
                    args[i] = av_top_for(fn.args[i])
        arg_summaries = tuple(
            (fn.name, tuple(self.arg_summary[fn.name])) for fn in defined
        )
        ret_summaries = tuple(sorted(self.ret_summary.items()))
        field_facts = () if self.havoc_fields else tuple(sorted(
            (*key, av) for key, av in self.field_facts.items()
        ))
        if claim is not None:
            self._compare_claim(claim, arg_summaries, ret_summaries,
                                field_facts)

        verdicts = []
        proven = dynamic = 0
        for fn in defined:
            frame = _Frame(fn, tuple(self.arg_summary[fn.name]))
            bits = []
            for block in fn.blocks:
                for inst in block.instructions:
                    if inst.is_terminator:
                        break
                    if abi.is_guard_call(inst):
                        ok = 1 if self._prove(inst, frame) else 0
                        bits.append(ok)
                        proven += ok
                        dynamic += 1 - ok
            verdicts.append((fn.name, tuple(bits)))
        return VerificationReport(
            verdicts=tuple(verdicts),
            guards_proven=proven,
            guards_dynamic=dynamic,
            contracts_digest=self.contracts.digest(),
            arg_summaries=arg_summaries,
            ret_summaries=ret_summaries,
            field_facts=field_facts,
            havoc_fields=self.havoc_fields,
        )

    # -- fixpoint over module-level facts -----------------------------------

    def _fixpoint(self, defined: list[Function]) -> None:
        by_name = {fn.name: fn for fn in defined}
        for round_no in range(self.MAX_ROUNDS):
            if not self._round(defined, by_name):
                return
        # Did not stabilize inside the budget: widen everything mutable
        # to TOP.  Sound (TOP proves nothing) and terminating.  Contracts
        # pin their arguments, so they stay.  Closing ``reached`` and
        # giving every reached function a TOP return makes the widened
        # summaries inductive, so a certificate carrying them checks.
        self.havoc_fields = True
        self._close_reached(by_name)
        for name in self.reached:
            self.ret_summary[name] = TOP
        for fn in defined:
            if fn.linkage != "exported":
                args = self.arg_summary[fn.name]
                for i, a in enumerate(fn.args):
                    if (fn.name, i) not in self._contract_args:
                        args[i] = av_top_for(a)
        self._inline_cache.clear()

    def _round(self, defined: list[Function],
               by_name: dict[str, Function]) -> bool:
        """One pass of the transfer functions over every reached
        function; True if any summary grew."""
        self._inline_cache.clear()
        changed = False
        for fn in defined:
            if fn.name not in self.reached:
                continue
            frame = _Frame(fn, tuple(self.arg_summary[fn.name]))
            for inst in fn.instructions():
                if isinstance(inst, Store):
                    changed |= self._transfer_store(inst, frame)
                elif isinstance(inst, Call) and not abi.is_guard_call(inst):
                    changed |= self._transfer_call(inst, frame, by_name)
                elif isinstance(inst, Ret) and inst.value is not None:
                    av = av_join(
                        self.ret_summary.get(fn.name, ()),
                        self._eval(inst.value, frame),
                    )
                    if av != self.ret_summary.get(fn.name, ()):
                        self.ret_summary[fn.name] = av
                        changed = True
        return changed

    # -- checking claimed summaries ------------------------------------------

    def _check_round(self, defined: list[Function], claim) -> None:
        """Seed the claimed summaries and run one round, no iteration.

        Nothing the kernel can compute itself comes from the claim:
        exported and contracted arguments keep the seeds ``run`` gave
        them, ``reached`` is the syntactic call closure of the exported
        functions, and ``store_keys`` holds every store of a reached
        function before the round starts, so loads evaluated early in the
        round see the complete overlap set.  If the round grows no
        summary, the claim is inductive; :meth:`_compare_claim` checks
        that after the round.
        """
        by_name = {fn.name: fn for fn in defined}
        claimed_args = dict(claim.arg_summaries)
        if claimed_args.keys() != by_name.keys() or \
                len(claim.arg_summaries) != len(by_name):
            raise CertificateError(
                "summaries do not check: argument summaries do not name "
                "the module's functions"
            )
        claimed_values = [av for _, args in claim.arg_summaries for av in args]
        claimed_values += [av for _, av in claim.ret_summaries]
        claimed_values += [fact[-1] for fact in claim.field_facts]
        if not all(map(_well_formed, claimed_values)):
            raise CertificateError(
                "summaries do not check: a claimed value is not a "
                "normalized set of u64 intervals"
            )
        self._close_reached(by_name)
        for fn in defined:
            claimed = claimed_args[fn.name]
            if len(claimed) != len(fn.args):
                raise CertificateError(
                    f"summaries do not check: @{fn.name} has "
                    f"{len(fn.args)} arguments, the claim {len(claimed)}"
                )
            if fn.linkage == "exported" or fn.name not in self.reached:
                continue
            args = self.arg_summary[fn.name]
            for i, av in enumerate(claimed):
                if (fn.name, i) not in self._contract_args:
                    args[i] = av
        for name, _ in claim.ret_summaries:
            if name not in self.reached:
                raise CertificateError(
                    f"summaries do not check: return summary for "
                    f"unreached @{name}"
                )
        self.ret_summary = dict(claim.ret_summaries)
        self.field_facts = {(g, off, size): av
                            for g, off, size, av in claim.field_facts}
        self.havoc_fields = claim.havoc_fields
        self._round(defined, by_name)

    def _close_reached(self, by_name: dict[str, Function]) -> None:
        """Extend ``reached`` to its syntactic call closure and collect
        ``store_keys`` from every store of a reached function."""
        work = list(self.reached)
        done: set[str] = set()
        while work:
            name = work.pop()
            if name in done:
                continue
            done.add(name)
            for inst in by_name[name].instructions():
                if isinstance(inst, Store):
                    root, offset = _addr_root_offset(inst.pointer)
                    if isinstance(root, GlobalVariable) and offset >= 0:
                        self.store_keys.setdefault(root.name, set()).add(
                            (offset, inst.access_size)
                        )
                elif isinstance(inst, Call) and not abi.is_guard_call(inst):
                    callee = inst.callee.name
                    if callee in by_name:
                        self.reached.add(callee)
                        work.append(callee)

    def _compare_claim(self, claim, arg_summaries, ret_summaries,
                       field_facts) -> None:
        """After the round, every summary must still be the claimed one.

        Summaries only grow, so equality means no transfer function
        changed anything.  Field facts are dead once ``havoc_fields`` is
        set, so their growth is not compared then.
        """
        if self.havoc_fields != claim.havoc_fields:
            raise CertificateError(
                "summaries do not check: a store havocs the field facts"
            )
        claimed_args = dict(claim.arg_summaries)
        for name, got in arg_summaries:
            if got != claimed_args[name]:
                raise CertificateError(
                    f"summaries do not check: argument summary of @{name}"
                )
        if ret_summaries != claim.ret_summaries:
            raise CertificateError("summaries do not check: return summaries")
        if not self.havoc_fields and field_facts != claim.field_facts:
            raise CertificateError("summaries do not check: field facts")

    def _transfer_store(self, inst: Store, frame: _Frame) -> bool:
        root, offset = _addr_root_offset(inst.pointer)
        value_av = self._eval(inst.value, frame)
        if isinstance(root, GlobalVariable) and offset >= 0:
            size = inst.access_size
            key = (root.name, offset, size)
            # A new store shape can turn a load elsewhere to TOP, so it
            # counts as a change: the last round starts with every key.
            keys = self.store_keys.setdefault(root.name, set())
            new_key = (offset, size) not in keys
            keys.add((offset, size))
            if key in self._contract_fields:
                return new_key  # contracted fields are trusted, not tracked
            old = self.field_facts.get(key, ())
            new = av_join(old, value_av)
            if new != old:
                self.field_facts[key] = new
                return True
            return new_key
        # A store the analysis cannot place: if it may land in the
        # module area it may alias any global field.
        addr_av = self._eval(inst.pointer, frame)
        if av_overlaps(addr_av, _MODULE_AREA) and not self.havoc_fields:
            self.havoc_fields = True
            return True
        return False

    def _transfer_call(self, inst: Call, frame: _Frame,
                       by_name: dict[str, Function]) -> bool:
        callee = inst.callee
        target = by_name.get(callee.name)
        if target is None or target.is_declaration:
            return self._transfer_native(inst, frame)
        changed = False
        if target.name not in self.reached:
            self.reached.add(target.name)
            changed = True
        summary = self.arg_summary[target.name]
        for i, arg in enumerate(inst.args):
            if i >= len(summary):
                break
            if (target.name, i) in self._contract_args:
                continue  # contract pins the argument range
            av = av_join(summary[i], self._eval(arg, frame))
            if av != summary[i]:
                summary[i] = av
                changed = True
        return changed

    def _transfer_native(self, inst: Call, frame: _Frame) -> bool:
        name = inst.callee.name
        if name in _READONLY_NATIVES or name == abi.GUARD_SYMBOL:
            return False
        dest_index = _WRITING_NATIVES.get(name)
        if dest_index is not None:
            if dest_index < len(inst.args):
                dest = self._eval(inst.args[dest_index], frame)
                if av_overlaps(dest, _MODULE_AREA) and not self.havoc_fields:
                    self.havoc_fields = True
                    return True
            return False
        # Unknown extern: if any argument may point into the module
        # area, assume it can write there.
        for arg in inst.args:
            if isinstance(arg.type, (PointerType, IntType)):
                av = self._eval(arg, frame)
                if av_overlaps(av, _MODULE_AREA) and not self.havoc_fields:
                    self.havoc_fields = True
                    return True
        return False

    # -- verdicts -----------------------------------------------------------

    def _prove(self, guard: Call, frame: _Frame) -> bool:
        addr, size, flags = guard.args
        size_av = self._eval(size, frame)
        flags_av = self._eval(flags, frame)
        # First-match semantics make a *larger* access a different
        # query, not a stricter one, so only exact constant sizes are
        # provable.  Guard sizes are constants in practice.
        if len(size_av) != 1 or size_av[0][0] != size_av[0][1]:
            return False
        if len(flags_av) != 1 or flags_av[0][0] != flags_av[0][1]:
            return False
        nbytes = size_av[0][0]
        fl = flags_av[0][0]
        if nbytes < 1:
            return False
        addr_av = self._eval(addr, frame)
        if not addr_av or av_is_top(addr_av):
            return False
        return all(
            self.table.check_range(lo, hi, nbytes, fl) for lo, hi in addr_av
        )

    # -- abstract evaluation ------------------------------------------------

    def _eval(self, value: Value, frame: _Frame) -> tuple:
        key = id(value)
        got = frame.memo.get(key)
        if got is not None:
            return got
        av = self._compute(value, frame)
        frame.memo[key] = av
        return av

    def _compute(self, value: Value, frame: _Frame) -> tuple:
        if isinstance(value, ConstantInt):
            return ((value.value, value.value),)
        if isinstance(value, ConstantNull):
            return ((0, 0),)
        if isinstance(value, Argument):
            if value.index < len(frame.args):
                av = frame.args[value.index]
                return av if av else av_top_for(value)
            return av_top_for(value)
        if isinstance(value, GlobalVariable):
            # The loader places the whole global inside the module
            # window, so its address cannot sit in the last size-1 bytes.
            return (_area_pointer("module", value.value_type.size_bytes()),)
        if isinstance(value, GlobalValue):
            return (_MODULE_AREA,)
        if isinstance(value, Alloca):
            return (_area_pointer("stack", value.size_bytes),)
        if isinstance(value, Cast):
            return self._compute_cast(value, frame)
        if isinstance(value, BinOp):
            return self._compute_binop(value, frame)
        if isinstance(value, Gep):
            base = self._eval(value.base, frame)
            index = self._eval(value.index, frame)
            scaled = av_mul(index, av_const(value.scale)) if value.scale \
                else av_const(0)
            av = av_add(base, scaled)
            disp = value.displacement
            if disp >= 0:
                return av_add(av, av_const(disp))
            return av_sub(av, av_const(-disp))
        if isinstance(value, ICmp):
            return ((0, 1),)
        if isinstance(value, Select):
            return av_join(
                self._eval(value.operands[1], frame),
                self._eval(value.operands[2], frame),
            )
        if isinstance(value, Phi):
            return self._compute_phi(value, frame)
        if isinstance(value, Load):
            return self._compute_load(value, frame)
        if isinstance(value, Call):
            return self._compute_call(value, frame)
        return av_top_for(value)

    def _compute_cast(self, value: Cast, frame: _Frame) -> tuple:
        inner = self._eval(value.value, frame)
        op = value.op
        if op in ("bitcast", "ptrtoint", "inttoptr", "zext"):
            return inner
        if op == "sext":
            src = value.value.type
            dst = value.type
            if isinstance(src, IntType) and isinstance(dst, IntType):
                return av_sext(inner, src.bits, dst.bits)
            return av_top_for(value)
        if op == "trunc":
            limit = _width_max(value)
            if inner and inner[-1][1] <= limit:
                return inner
            return av_top_for(value)
        return av_top_for(value)

    def _compute_binop(self, value: BinOp, frame: _Frame) -> tuple:
        limit = _width_max(value)
        lhs = self._eval(value.lhs, frame)
        rhs = self._eval(value.rhs, frame)
        op = value.op
        if op == "add":
            av = av_add(lhs, rhs, limit)
        elif op == "sub":
            av = av_sub(lhs, rhs)
        elif op == "mul":
            av = av_mul(lhs, rhs, limit)
        elif op == "shl" and len(rhs) == 1 and rhs[0][0] == rhs[0][1]:
            av = av_mul(lhs, av_const(1 << rhs[0][0]), limit)
        else:
            av = av_top_for(value)
        if av_is_top(av) or (av and av[-1][1] > limit):
            return av_top_for(value)
        return av

    def _compute_phi(self, value: Phi, frame: _Frame) -> tuple:
        fn = frame.fn
        if fn.name not in self._phi_scanned:
            self._phi_scanned.add(fn.name)
            for loop in find_loops(fn):
                iv = counted_induction(loop)
                if iv is not None:
                    phi, init, _step, last = iv
                    self._phi_ranges[id(phi)] = ((init, last),)
        ranged = self._phi_ranges.get(id(value))
        if ranged is not None:
            return ranged
        key = id(value)
        if key in frame.busy:
            return av_top_for(value)  # loop-carried, not counted
        frame.busy.add(key)
        try:
            av: tuple = ()
            for incoming, _block in value.incoming:
                av = av_join(av, self._eval(incoming, frame))
                if av_is_top(av):
                    break
        finally:
            frame.busy.discard(key)
        return av if av else av_top_for(value)

    def _compute_load(self, value: Load, frame: _Frame) -> tuple:
        root, offset = _addr_root_offset(value.pointer)
        if not (isinstance(root, GlobalVariable) and offset >= 0):
            return av_top_for(value)
        size = value.access_size
        key = (root.name, offset, size)
        contract = self._contract_fields.get(key)
        if contract is not None:
            return contract
        if self.havoc_fields:
            return av_top_for(value)
        # A store at a different offset/size overlapping these bytes
        # reinterprets them: give up on this field.
        for s_off, s_size in self.store_keys.get(root.name, ()):
            if (s_off, s_size) != (offset, size) and \
                    s_off < offset + size and offset < s_off + s_size:
                return av_top_for(value)
        fact = self.field_facts.get(key, ())
        av = av_join(fact, av_const(0))  # the zero initializer
        limit = _width_max(value)
        if av and av[-1][1] > limit:
            return av_top_for(value)
        return av

    def _compute_call(self, value: Call, frame: _Frame) -> tuple:
        callee = value.callee
        name = callee.name
        if abi.is_guard_call(value):
            return ((0, 0),)
        target = self.module.functions.get(name)
        if target is None or target.is_declaration:
            if name in ("kmalloc", "ioremap"):
                area = "heap" if name == "kmalloc" else "mmio"
                size_arg = value.args[0 if name == "kmalloc" else 1] \
                    if len(value.args) > (0 if name == "kmalloc" else 1) \
                    else None
                # The object holds at least the smallest possible size;
                # reserving a larger one would leave out pointers to a
                # smaller object near the window's end, which a claimed
                # summary with an inflated size could then exploit.
                reserve = 0
                if size_arg is not None:
                    size_av = self._eval(size_arg, frame)
                    if size_av and not av_is_top(size_av):
                        reserve = size_av[0][0]
                return (_area_pointer(area, reserve),)
            return av_top_for(value)
        # Defined callee: evaluate inline when small, else use the
        # context-insensitive return summary.
        args_key = tuple(self._eval(a, frame) for a in value.args)
        cache_key = (name, args_key)
        cached = self._inline_cache.get(cache_key)
        if cached is not None:
            return cached
        too_big = sum(len(b) for b in target.blocks) > self.MAX_INLINE_INSTS
        recursing = any(entry == cache_key for entry in self._call_stack)
        if too_big or recursing or self._depth >= self.MAX_INLINE_DEPTH:
            summary = self.ret_summary.get(name)
            av = summary if summary else av_top_for(value)
            if av and av[-1][1] > _width_max(value):
                av = av_top_for(value)
            return av
        self._call_stack.append(cache_key)
        self._depth += 1
        try:
            child = _Frame(target, args_key)
            av: tuple = ()
            for inst in target.instructions():
                if isinstance(inst, Ret) and inst.value is not None:
                    av = av_join(av, self._eval(inst.value, child))
                    if av_is_top(av):
                        break
        finally:
            self._call_stack.pop()
            self._depth -= 1
        if not av:
            av = av_top_for(value)
        if av and av[-1][1] > _width_max(value):
            av = av_top_for(value)
        self._inline_cache[cache_key] = av
        return av


def elidable_guard_ids(module: Module,
                       verdicts: dict[str, tuple[int, ...]]) -> set[int]:
    """``id()`` of every guard Call a verdict map proves, walking guard
    sites in the same block order / ordinal scheme as the execution
    engines (``VMTracer.site_for`` and the compiled translator)."""
    out: set[int] = set()
    for fn in module.defined_functions():
        bits = verdicts.get(fn.name, ())
        ordinal = 0
        for block in fn.blocks:
            for inst in block.instructions:
                if inst.is_terminator:
                    break
                if abi.is_guard_call(inst):
                    if ordinal < len(bits) and bits[ordinal]:
                        out.add(id(inst))
                    ordinal += 1
    return out


__all__ = [
    "AREAS",
    "ArgContract",
    "ContractSet",
    "EMPTY_CONTRACTS",
    "FieldContract",
    "ModuleVerifier",
    "VerificationReport",
    "av_join",
    "elidable_guard_ids",
]
