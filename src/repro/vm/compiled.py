"""Translate-once, whole-function execution engine.

The interpreter (:mod:`repro.vm.interp`) re-dispatches on ``type(inst)``
and re-evaluates every operand through ``env[id(...)]`` dict lookups on
every visit of a basic block.  This engine translates each IR function
**once** into a single generated Python function ``_f(v1, ..., vk)``,
compiled with :func:`compile`/``exec``:

- SSA values are Python locals ``v<slot>``; constants and global
  addresses are literals in the source;
- blocks sit in IR order inside ``while True:`` as ``if b == i:`` arms.
  A forward branch sets ``b`` and falls through to its target's arm; a
  backward branch ``continue``\\ s.  Phis become parallel assignments on
  each incoming edge;
- integer arithmetic (binops, compares, casts, geps, selects) is inline
  expressions; binops, compares and casts are the text of the rules in
  :mod:`repro.ir.arith` with the operands substituted.  A step whose
  operands are all literals, and whose result is used only later in its
  own block, is computed at translate time (a gep off a global with a
  constant index becomes one literal address); such a cast that copies
  its operand names the operand, and such a compare whose one use is
  its block's branch becomes the branch's test; division by a nonzero
  literal is inline too.  Stateful operations (native calls, guards,
  allocas, division by anything else, float math) call per-site
  closures that take operand values and return the result
  (``v5 = C0(v2)``);
- a call to another function of the same module is ``v7 = F3(v1, v2)``,
  where ``F3`` is a namespace slot bound lazily to the callee's
  generated function, so no per-call translation lookup remains;
- a call to a small same-module **leaf** (acyclic; no calls but to
  other leaves, no guards but elided ones, no natives, allocas or
  switches; at most ``_INLINE_LIMIT`` instructions, a block counted once
  per path to it) is inlined in an untraced translation: the leaf's
  blocks become nested ``if``/``else`` inside the caller's arm, with its
  own charges and counts.  The site first checks ``IR.generation ==
  GEN`` (else it calls the re-translated callee through its ``F`` slot,
  so a demotion since the frame began re-emits the guards) and the
  depth the callee's frame would have, panicking with the callee's
  message.  Inlining happens in a function's second translation: the
  first counts ``_TIER_UP_CALLS`` calls down, then the function is
  re-translated with its leaves inlined and the callers' slots are
  rebound, so set-up code that runs a few times keeps its short source;
- a load or store is generated text that serves a RAM access from the
  address space's software TLB (:mod:`repro.kernel.memory`) with no
  Python call of its own.  An integer access of ``n`` bytes looks its
  virtual page up in ``RT<n>`` (``WT<n>`` for a store), which maps it to
  the page's typed view of that width, and when aligned is one index:
  ``p[(a & 4095) >> 2]`` loads four bytes and ``p[(a & 4095) >> 3] = v &
  mask`` stores eight (a byte indexes the page itself).  A float access
  decodes at its offset in the byte page (``RT1``/``WT1``) with a shared
  ``struct`` codec (``UF8(p, o)[0]``) after an offset check.  A literal
  address has its page and index folded.  A miss, an MMIO window, an
  unaligned integer or a page-straddling access calls the site's miss
  closure, which fuses the mapping lookup the interpreter performs
  twice (once for MMIO accounting, once inside ``read_bytes``) into a
  single ``find`` and refills the TLB.  The views index in the host's
  byte order, so the engine refuses a big-endian host;
- a guard site linked to the policy module's own ``carat_guard`` serves
  an allowed decision-cache hit inside its closure, comparing no version
  (every policy write empties the affected decisions first; the rule is
  on :class:`repro.policy.module._GuardCache`), and calls the native for
  everything else.  On the paper's ``-O0`` build nearly every guard is
  such a hit, so a guarded access costs one Python call instead of two.

Accounting is **bit-identical** to the interpreter.  The clock is
``T.cc``, an integer count of centicycles (:mod:`repro.vm.timing`), so
charges may be grouped in any way.  The charge is observable: between
observable points (a closure, native, guard, call, or terminator) a
segment's charges are summed at translate time into one literal,
``T.cc += 1388``, added before the point, so everything that can
observe the clock (natives, MMIO devices, guards, panics) sees the
interpreter's value.  A guard closure takes that literal as a trailing
argument instead and adds it first, ``C3(v4, 8, 1, 1388)``.  An inline
load or store that hits the TLB observes nothing and does not end a
segment; its miss closure takes the segment's pending centicycles (and
an inlined body's depth) as literal arguments and adds them to the
clock (and ``E._depth``) only around a device access, the one step
that can observe them (an MMIO access may raise an interrupt whose
handler runs module code).  The integer counters are not read while a
frame is live, only by the tracer between a frame's own enter and exit
and by code that runs after the outermost call, so they are frame
locals: ``n`` (``instructions_executed``), ``ti``, ``tl``, ``ts`` and
``tc`` (``T.instructions``, ``T.loads``, ``T.stores``, IR-call
``T.calls``) take each block's counts, summed at translate time, in one
line at its terminator (``n += 9; ti += 8; tl += 2``), and the
``finally`` adds them to the engine before the tracer's exit hook.  If
a step raises, the exception handler applies the centicycles and counts
the raising line had pending, from a table built at translate time and
keyed by the generated source line (one integer of centicycles per
line; on a guard's line only if the line itself raised, since a raise
inside the guard closure comes after it added them); a read of an SSA
value whose
definition did not run leaves that line's own load, store or call
uncounted, since the interpreter reads operands before counting.  The
differential tests (``tests/vm/test_compiled_vs_interp.py``,
``tests/vm/test_frame_counters.py``) pin this down.

The generated function owns the call bookkeeping: the depth limit, the
kernel stack top (saved and restored only by a function with an
``alloca``, since every callee restores its own), and the tracer's
enter/exit.  Its prologue checks the module's IR
``generation`` and the engine's tracer against the values it was
translated for and, on any difference, falls back to
:meth:`CompiledEngine._exec_function`, which re-translates.  So a
certificate demotion (which bumps the generation) in the middle of a
call still re-emits the guards on every later call, also on calls made
from the stale frame through its direct-bound slots.

Translations are cached on the :class:`LoadedModule` (keyed by engine
instance, then by function) and revalidated against the same two
keys.  Tracer presence is specialized into the code and the closures,
so a disabled tracer costs literally nothing in generated code, the
compiled-engine analog of a patched-out static key.

Below both of those sits a **process-global code cache**
(:data:`TRANSLATION_CACHE`): the ``compile()`` of the generated source
is shared across engines and :class:`~repro.core.system.CaratKopSystem`
instances.  The generated source is itself a faithful content hash of
everything the bytecode depends on (the instruction stream, resolved
global addresses, per-opcode machine costs, tracer presence), while
everything engine-specific (per-site closures, callee slots, hoisted
constants, the engine/timing/tracer references, the address space's TLB
dicts, the IR generation) is bound into a fresh namespace at ``exec``
time, so two translations with identical source can always share one
code object.
"""

from __future__ import annotations

import struct
import sys

from .. import abi
from ..ir import arith
from ..ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    FCmp,
    Gep,
    ICmp,
    InlineAsm,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
    Unreachable,
)
from ..ir.types import FloatType, IntType
from ..ir.values import (
    Argument,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantString,
    GlobalVariable,
    UndefValue,
)
from ..kernel import layout
from ..kernel.memory import VIEW_WIDTHS
from ..kernel.module_loader import LoadedModule
from ..kernel.panic import MemoryFault
from ..trace.vmhook import guard_site_id
from .interp import Interpreter, InterpreterError

_MASK64 = (1 << 64) - 1
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")
#: Namespace names shared by every inline float load and store:
#: ``UF<size>`` unpacks and ``PF<size>`` packs a float at a page offset;
#: ``RF`` rounds a value stored to an f32.  (An integer access indexes a
#: page view instead.)
_CODEC_NAMES = {
    "UF4": _F32.unpack_from, "UF8": _F64.unpack_from,
    "PF4": _F32.pack_into, "PF8": _F64.pack_into,
    "RF": arith.round_f32,
}
#: The frame-local integer counters, in the order of the translator's
#: pending vector: the engine's executed count, then the locals added to
#: ``T.instructions``, ``T.loads``, ``T.stores`` and ``T.calls``.
_COUNTER_LOCALS = ("n", "ti", "tl", "ts", "tc")
_TIMING_FIELDS = (None, "instructions", "loads", "stores", "calls")
_N, _TI, _TL, _TS, _TC = range(5)


class _SharedCodeCache:
    """Process-global memo of compiled ``code`` objects.

    Keyed by ``(filename, source)``.  The source embeds every input the
    bytecode depends on (module content, IR-generation-visible edits,
    load addresses, machine cost model, tracer hooks), and the
    variant state it does *not* embed — per-site closures, hoisted
    constants, engine references — is rebound into a fresh namespace on
    every ``exec``, so a key hit is always safe to rehydrate against a
    different engine, tracer, or system instance."""

    __slots__ = ("codes",)

    def __init__(self):
        self.codes: dict = {}

    def fetch(self, filename: str, src: str):
        """Return ``(code, was_hit)`` for the generated source."""
        key = (filename, src)
        code = self.codes.get(key)
        if code is not None:
            return code, True
        code = compile(src, filename, "exec")
        self.codes[key] = code
        return code, False


#: The process-global translation code cache (see module docstring).
TRANSLATION_CACHE = _SharedCodeCache()


def _policy_guard():
    """``CaratPolicyModule._guard``, the function whose cache hits the
    timed guard closure may serve itself (imported late: the policy
    module imports the VM)."""
    from ..policy.module import CaratPolicyModule

    return CaratPolicyModule._guard


class _CompiledFunction:
    """A function's generated ``entry``, tagged with its validity keys.

    A first translation with leaves to inline counts its calls down in
    ``warm`` (its namespace's ``W``); once that runs out, the function is
    re-translated with the leaves inlined, and the callers' slots in
    ``slots`` that still hold this entry are rebound to the new one."""

    __slots__ = ("entry", "generation", "tracer", "warm", "slots")

    def __init__(self, entry, generation, tracer, warm=None):
        self.entry = entry
        self.generation = generation
        self.tracer = tracer
        self.warm = warm
        #: ``(namespace, name)`` of every caller slot bound to ``entry``.
        self.slots: list = []


class CompiledEngine(Interpreter):
    """Drop-in replacement for :class:`Interpreter` with translate-once
    execution.  Shares the interpreter's call/guard dispatch helpers, so
    native dispatch, late guard re-linking, and panic semantics are the
    same code path."""

    name = "compiled"

    def __init__(self, kernel, machine=None):
        if sys.byteorder != "little":
            raise RuntimeError(
                "the compiled engine indexes RAM pages in the host's byte "
                "order, which must be little-endian; use --engine interp")
        super().__init__(kernel, machine)
        #: The shared load and store miss closures, by namespace name.
        self._misses: dict = {}

    def _exec_function(self, module: LoadedModule, fn, args: list):
        # The declaration check lives in the translator, so every call
        # raises the same error as the interpreter.  Depth, stack, and
        # tracer bookkeeping live in the generated function.
        entry = self._translation(module, fn).entry
        if len(args) != len(fn.args):
            raise InterpreterError(
                f"@{fn.name}: expected {len(fn.args)} args, got {len(args)}"
            )
        return entry(*args)

    # -- translation cache -------------------------------------------------

    def _translation(self, module: LoadedModule, fn) -> _CompiledFunction:
        store = module.translations.get(self)
        if store is None:
            store = {}
            module.translations[self] = store
        entry = store.get(fn)
        generation = module.ir.generation
        if (
            entry is None
            or entry.generation != generation
            or entry.tracer is not self.tracer
        ):
            entry = _Translator(self, module, fn).translate(generation)
            store[fn] = entry
        elif entry.warm is not None and entry.warm["W"] < 0:
            hot = _Translator(self, module, fn, inline=True).translate(
                generation)
            for ns, name in entry.slots:
                if ns[name] is entry.entry:
                    ns[name] = hot.entry
            entry = store[fn] = hot
        return entry


#: Operand kinds the translator writes as literals; an inlined leaf's
#: parameter bound to one is substituted, not copied.
_CONSTANT_OPERANDS = frozenset(
    {int, ConstantInt, ConstantFloat, ConstantNull, UndefValue,
     GlobalVariable})
#: Calls of a function's first translation before one with its leaves
#: inlined replaces it: set-up code that runs a few times is not worth
#: the larger source, hot code repays it at once.
_TIER_UP_CALLS = 16
#: The largest leaf callee, in IR instructions with its own inlined
#: leaves, that an untraced translation inlines.
_INLINE_LIMIT = 40
#: What a leaf may execute besides leading phis, terminators, elided
#: guards and calls to other leaves.
_LEAF_KINDS = frozenset({BinOp, ICmp, FCmp, Cast, Gep, Select, Load, Store})


class _Facts:
    """Per-function analyses of one IR generation of a module, shared by
    every translation of it (kept in ``module.translations``, so they go
    with the translations when the module's IR changes)."""

    __slots__ = ("generation", "leaves", "unsafe", "locals")

    def __init__(self, generation: int):
        self.generation = generation
        #: Function -> its size as an inlined leaf, or None.
        self.leaves: dict = {}
        #: Function -> its values a use does not follow (see _unsafe).
        self.unsafe: dict = {}
        #: Function -> (its values used only later in their own block,
        #: its compares used only by the branch that ends their block).
        self.locals: dict = {}

    @staticmethod
    def of(module: LoadedModule) -> "_Facts":
        facts = module.translations.get(_Facts)
        generation = module.ir.generation
        if facts is None or facts.generation != generation:
            facts = module.translations[_Facts] = _Facts(generation)
        return facts


class _Body:
    """One function body in a generated frame: the translated function
    itself (``depth`` 0) or a leaf callee inlined at one call site,
    ``depth`` frames below it in the interpreter."""

    __slots__ = ("fn", "depth", "call", "result", "names", "consts", "conds")

    def __init__(self, fn, depth: int = 0, call=None, result: str = ""):
        self.fn = fn
        self.depth = depth
        #: The inlined call, and the caller's local its ``ret`` assigns.
        self.call = call
        self.result = result
        #: Value -> local name.
        self.names: dict = {}
        #: Parameter -> the call site's constant operand; folded step ->
        #: its literal.
        self.consts: dict = {}
        #: Compare -> the condition its block's branch tests instead.
        self.conds: dict = {}


class _Translator:
    """Translates one function into a :class:`_CompiledFunction`.

    One instance per translation; holds the bodies (the function and the
    leaf callees inlined into it), the pending (not yet emitted) charges,
    and the engine/timing/tracer the closures specialize against."""

    def __init__(self, engine: CompiledEngine, module: LoadedModule, fn,
                 inline: bool = False):
        if fn.is_declaration:
            raise InterpreterError(f"cannot execute declaration @{fn.name}")
        self.engine = engine
        self.module = module
        self.fn = fn
        self.timing = engine.timing
        self.costs = self.timing.machine.centi if self.timing else None
        self.tracer = engine.tracer
        # Guard call sites numbered in translation order; the same walk
        # (blocks in order, stopping at terminators) backs the
        # interpreter's VMTracer.site_for, so ids agree across engines.
        # (A traced translation inlines nothing.)
        self._guard_ordinal = 0
        #: Inline leaves (a hot function's second translation), else
        #: count calls down to it if there are any (``self.warm``).
        self.inline = inline and self.tracer is None
        self.warm = False
        # Arguments are v1..vn; every instruction gets the next name
        # (void results are simply never assigned); inlined bodies take
        # the names after those.
        self._slots = 0
        self.body = self.top = _Body(fn)
        for v in (*fn.args, *fn.instructions()):
            self.top.names[v] = self._slot()
        self.bodies = [self.top]
        self.arm = {b: i for i, b in enumerate(fn.blocks)}
        self._lv = 4
        self.facts = _Facts.of(module)
        #: The current block's steps emitted so far.
        self._seen: set = set()

    def _slot(self) -> str:
        self._slots += 1
        return f"v{self._slots}"

    def translate(self, generation: int) -> _CompiledFunction:
        fn = self.fn
        # The generated module's namespace: engine/timing/tracer under
        # fixed short names, plus per-site closures (``C<n>``), callee
        # slots (``F<n>``), hoisted non-int constants (``K<n>``), switch
        # tables (``TBL<n>``), the call countdown (``W``), and, once a
        # load or store uses them, the TLB's view tables (``RT4``,
        # ``WT8``), the shared float codecs and the shared miss closures
        # (``LM4``, ``SM8``).
        self.ns: dict = {
            "E": self.engine, "T": self.timing, "TR": self.tracer,
            "M": self.module, "IR": self.module.ir, "FN": fn,
            "GEN": generation, "IE": InterpreterError,
        }
        self._nsym = 0
        self._callees: dict = {}
        self.lines: list[str] = []
        # Source line -> (*counts, centicycles, own counter, adds): what
        # the interpreter has charged but the frame has not yet applied
        # at that line.  ``counts`` follow ``_COUNTER_LOCALS``; ``own`` is
        # the index of the line's own load, store or call count (0 if
        # none), which an undefined operand read keeps uncounted; ``adds``
        # marks a guard's line, whose closure adds the centicycles first.
        self.replay: dict = {}
        self._pend = [0] * len(_COUNTER_LOCALS)
        self._pcc = 0
        self._own = 0
        self._adds = False
        self._used = {_N}
        self._emit_function()
        src = "\n".join(self.lines)
        code, hit = TRANSLATION_CACHE.fetch(
            f"<compiled {self.module.name}:@{fn.name}>", src
        )
        if hit:
            self.engine.translation_cache_hits += 1
        else:
            self.engine.translation_cache_misses += 1
        self.ns["RP"] = self._replayer()
        if self.warm:
            self.ns["W"] = _TIER_UP_CALLS
        exec(code, self.ns)
        return _CompiledFunction(self.ns["_f"], generation, self.tracer,
                                 self.ns if self.warm else None)

    def _emit_function(self) -> None:
        fn = self.fn
        params = ", ".join(self.top.names[a] for a in fn.args)
        emit = self._emit
        emit(0, f"def _f({params}):")
        emit(1, "")  # the call countdown, if any, filled in below
        check = len(self.lines) - 1
        emit(1, "if IR.generation != GEN or E.tracer is not TR:")
        emit(2, f"return E._exec_function(M, FN, [{params}])")
        emit(1, "d = E._depth + 1")
        emit(1, "if d > E.max_call_depth:")
        emit(2, f"E.kernel.panic({f'kernel stack overflow in @{fn.name}'!r})")
        emit(1, "E._depth = d")
        # Only an alloca moves the stack top; every callee restores it.
        has_alloca = any(type(i) is Alloca for i in fn.instructions())
        if has_alloca:
            emit(1, "sp = E._stack_top")
        if self.tracer is not None:
            emit(1, f"TR.enter_function(E, {fn.name!r})")
        emit(1, "")  # the counter locals' initialization, filled in below
        init = len(self.lines) - 1
        emit(1, "b = 0")
        emit(1, "try:")
        if fn.blocks[0].instructions and isinstance(
                fn.blocks[0].instructions[0], Phi):
            for line in self._phi_copies(None, fn.blocks[0]):
                emit(2, line)
        emit(2, "while True:")
        for ai, block in enumerate(fn.blocks):
            emit(3, f"if b == {ai}:")
            self._translate_block(block, ai)
        emit(1, "except BaseException as e:")
        emit(2, "RP(e)")
        emit(2, "raise")
        emit(1, "finally:")
        emit(2, "E.instructions_executed += n")
        used = sorted(self._used)
        timed = [f"T.{_TIMING_FIELDS[k]} += {_COUNTER_LOCALS[k]}"
                 for k in used if k != _N]
        if timed:
            emit(2, "; ".join(timed))
        if has_alloca:
            emit(2, "E._stack_top = sp")
        emit(2, "E._depth -= 1")
        if self.tracer is not None:
            emit(2, f"TR.exit_function(E, {fn.name!r})")
        self.lines[init] = "    " + " = ".join(
            _COUNTER_LOCALS[k] for k in used) + " = 0"
        self.lines[check] = ""
        if self.warm:
            self.lines[check] = "    global W"
            self.lines[check + 1] = (
                "    if IR.generation != GEN or E.tracer is not TR"
                " or (W := W - 1) < 0:")

    def _replayer(self):
        """The exception handler's helper: apply the charges pending at
        the raising line, and report a read of an SSA local that was
        never assigned as the interpreter's undefined-value error (the
        interpreter reads an access's operands before counting it)."""
        table = self.replay
        eng = self.engine
        timing = self.timing
        bodies = self.bodies

        def undefined(name):
            """The value a local stands for (its first owner: a copy
            names its operand)."""
            for body in bodies:
                for v, local in body.names.items():
                    if local == name:
                        return f"use of undefined value %{v.name} ({v.type})"
            return None

        def replay(exc, _tab=table, _e=eng, _t=timing, _u=undefined):
            tb = exc.__traceback__
            here = tb.tb_next is None  # raised by the line, not a callee
            unbound = type(exc) is UnboundLocalError and here
            pending = _tab.get(tb.tb_lineno)
            if pending is not None:
                pe, pi, pl, ps, pk, pcc, own, adds = pending
                _e.instructions_executed += pe
                if _t is not None:
                    _t.instructions += pi
                    _t.loads += pl - (unbound and own == _TL)
                    _t.stores += ps - (unbound and own == _TS)
                    _t.calls += pk - (unbound and own == _TC)
                    if here or not adds:
                        _t.cc += pcc
            if unbound:
                msg = _u(str(exc).split("'")[1])
                if msg is not None:
                    raise InterpreterError(msg) from None

        return replay

    # -- leaf inlining -----------------------------------------------------
    #
    # An untraced translation inlines a call to a same-module leaf
    # callee (see :meth:`_leaf_size`) in place, inside the caller's arm:
    # the callee's blocks are emitted as nested ``if``/``else`` from its
    # entry (a block that two paths reach is emitted on each), so the
    # caller keeps its arms and an inlined body dispatches nothing.  One
    # segment runs from the call site to each ``ret``.  Leaves nest, each
    # inlined into its own caller.

    def _inlinable(self, inst):
        """The callee of ``inst`` if it is a call to inline, else None
        (noting, in a first translation, that there is one)."""
        if (type(inst) is not Call or self.tracer is not None
                or abi.is_guard_call(inst)):
            return None
        callee = inst.callee
        if (callee.is_declaration or len(inst.args) != len(callee.args)
                or self._leaf_size(callee) is None):
            return None
        if not self.inline:
            self.warm = True
            return None
        return callee

    def _leaf_size(self, fn):
        """``fn``'s instruction count as inlined, if it is a leaf: well
        formed and acyclic, free of switches, natives, allocas, guards
        (other than elided ones) and calls (other than to leaves), and at
        most ``_INLINE_LIMIT`` instructions counting each block once per
        path that reaches it and each inlined leaf at its size.  None
        otherwise."""
        leaves = self.facts.leaves
        if fn not in leaves:
            leaves[fn] = None  # a call cycle through fn is not a leaf
            leaves[fn] = self._measure_leaf(fn)
        return leaves[fn]

    def _measure_leaf(self, fn):
        if not fn.blocks or fn.blocks[0].first_non_phi_index():
            return None
        own = {*fn.args, *fn.instructions()}
        storage = self.module.global_addresses
        sizes: dict = {}

        def size(block, path):
            if block in path or block.parent is not fn:
                return None  # a cycle, or a branch out of the function
            if block in sizes:
                return sizes[block]
            insts = block.instructions
            if not insts or type(insts[-1]) not in (Br, Ret):
                return None
            n = len(insts)
            for inst in insts:
                for v in inst.operands:
                    if not (v in own or type(v) in _CONSTANT_OPERANDS
                            and (type(v) is not GlobalVariable
                                 or v.name in storage)):
                        return None
            for inst in insts[block.first_non_phi_index():-1]:
                kind = type(inst)
                if kind is Call:
                    if abi.is_guard_call(inst):
                        if id(inst) not in self.module.elided_guards:
                            return None
                        continue
                    callee = inst.callee
                    sub = (None if callee.is_declaration
                           or len(inst.args) != len(callee.args)
                           else self._leaf_size(callee))
                    if sub is None:
                        return None
                    n += sub
                elif kind not in _LEAF_KINDS:
                    return None
            path.add(block)
            for succ in block.successors:
                sub = size(succ, path)
                if sub is None or n > _INLINE_LIMIT:
                    return None
                n += sub
            path.discard(block)
            sizes[block] = n
            return n

        n = size(fn.blocks[0], set())
        return n if n is not None and n <= _INLINE_LIMIT else None

    def _unsafe(self, fn) -> list:
        """``fn``'s values read somewhere their definition does not
        dominate (malformed IR).  An inlined body unbinds them on entry,
        so such a read fails on every call, as in a fresh frame."""
        if fn in self.facts.unsafe:
            return self.facts.unsafe[fn]
        from ..passes.analysis import DominatorTree

        dom = DominatorTree(fn)
        reached = {id(b) for b in dom.rpo}
        where = {inst: (b, i) for b in fn.blocks
                 for i, inst in enumerate(b.instructions)}
        bad = set()
        for b in fn.blocks:
            if id(b) not in reached:
                continue
            for i, inst in enumerate(b.instructions):
                uses = (inst.incoming if type(inst) is Phi
                        else [(v, None) for v in inst.operands])
                for v, pred in uses:
                    site = where.get(v)
                    if site is None:
                        continue
                    db, di = site
                    if pred is not None:
                        ok = dom.dominates(db, pred)
                    else:
                        ok = di < i if db is b else dom.dominates(db, b)
                    if not ok:
                        bad.add(v)
        unsafe = self.facts.unsafe[fn] = [
            v for v in fn.instructions() if v in bad]
        return unsafe

    # -- codegen helpers ---------------------------------------------------

    def _emit(self, level: int, line: str) -> None:
        """Append one source line, recording the charges still pending
        at it for the exception handler's replay."""
        self.lines.append("    " * level + line)
        if self._pend[_N] or self._pcc:
            self.replay[len(self.lines)] = (*self._pend, self._pcc,
                                            self._own, self._adds)

    def _bind(self, prefix: str, obj) -> str:
        """Bind ``obj`` into the generated module's namespace."""
        name = f"{prefix}{self._nsym}"
        self._nsym += 1
        self.ns[name] = obj
        return name

    def _v(self, v) -> str:
        """Source expression for an operand: an SSA local, an int
        literal, or a hoisted constant (floats don't all have source
        literals — nan/inf — so any non-int constant is hoisted)."""
        k = type(v)
        if k is int:
            return repr(v) if v >= 0 else f"({v!r})"
        if k is ConstantInt or k is ConstantFloat:
            c = v.value
            if type(c) is int:
                return repr(c) if c >= 0 else f"({c!r})"
            return self._bind("K", c)
        if k is ConstantNull or k is UndefValue:
            return "0"
        if k is GlobalVariable:
            addr = self.module.global_addresses.get(v.name)
            if addr is None:
                raise InterpreterError(
                    f"module {self.module.name}: no storage for @{v.name}"
                )
            return repr(addr)
        if k is ConstantString:
            raise InterpreterError("string constants must live in globals")
        # An SSA value: a translate-time literal, or a local.
        c = self.body.consts.get(v)
        if c is not None:
            return self._v(c)
        name = self.body.names.get(v)
        if name is None:
            raise InterpreterError(
                f"use of undefined value %{v.name} ({v.type})"
            )
        return name

    def _literal(self, v):
        """The int an operand's source literal stands for, or None if
        :meth:`_v` gives it no int literal."""
        k = type(v)
        if k is int:
            return v
        if k is ConstantInt:
            return v.value
        if k is ConstantNull or k is UndefValue:
            return 0
        if k is GlobalVariable:
            return int(self._v(v))
        if k is Argument or isinstance(v, Instruction):
            c = self.body.consts.get(v)
            return None if c is None else self._literal(c)
        return None

    def _args(self, values) -> str:
        return ", ".join(self._v(a) for a in values)

    def _cond(self, v) -> str:
        """A branch's condition: its compare's test, or the value."""
        return self.body.conds.get(v) or self._v(v)

    # -- translate-time values ---------------------------------------------
    #
    # An integer step whose operands are all literals is computed at
    # translate time, and a cast that copies its operand names that
    # operand, when every use of the result follows it in its block: such
    # a result can never be read before the interpreter computes it, so
    # only its charge remains.

    def _fold(self, inst, rule, *operands) -> bool:
        """Keep ``rule(*operands)`` as ``inst``'s literal, if it may."""
        values = [self._literal(v) for v in operands]
        if None in values or not self._local(inst):
            return False
        self.body.consts[inst] = rule(*values)
        return True

    def _local(self, inst, branch: bool = False) -> bool:
        """Whether every use of ``inst`` follows it in its block (with
        ``branch``: whether its one use is the branch ending it)."""
        fn = self.body.fn
        local = self.facts.locals.get(fn)
        if local is None:
            local = self.facts.locals[fn] = _block_local(fn)
        local, branch_only = local
        return inst in (branch_only if branch else local)

    def _bound(self, v) -> bool:
        """Whether ``v``'s local is bound wherever the current block's
        later steps read it: an argument, or an earlier step of the
        block."""
        return type(v) is Argument or v in self._seen

    # -- charging ----------------------------------------------------------
    #
    # The charges between two observable points form a segment: its
    # counts stay pending until the block's terminator, its centicycles
    # until the next :meth:`_flush`, which emits them as one integer.  A
    # load or store is not an observable point unless it misses the TLB:
    # its miss closure takes the segment's pending centicycles (and an
    # inlined body's depth) as literal arguments and applies them around
    # the only step that can observe them, a device access.

    def _charge(self, opcode: str, counter: int = 0) -> None:
        """Charge one instruction, in the interpreter's order (before it
        executes), plus one ``counter`` (``_TL``, ``_TS`` or ``_TC``) if
        given."""
        self._pend[_N] += 1
        if self.costs is not None:
            self._pend[_TI] += 1
            if counter:
                self._pend[counter] += 1
            self._pcc += self.costs.op(opcode)

    def _flush(self, level: int = 0) -> None:
        """Emit the segment's pending centicycles as one integer add."""
        if self._pcc:
            pcc, self._pcc = self._pcc, 0
            self._emit(level or self._lv, f"T.cc += {pcc}")

    def _observed(self, opcode: str, line: str, counter: int = 0) -> None:
        """A charged step that may observe ``timing``: flush first."""
        self._charge(opcode, counter)
        self._flush()
        self._inline_step(line, counter)

    def _inline_step(self, line: str, counter: int) -> None:
        """Emit a step whose own ``counter`` an undefined read leaves
        uncounted."""
        self._own = counter
        self._emit(self._lv, line)
        self._own = 0

    def _count(self) -> str:
        """The block's pending counts as frame-local adds, now applied."""
        line = "; ".join(f"{_COUNTER_LOCALS[k]} += {c}"
                         for k, c in enumerate(self._pend) if c)
        self._used.update(k for k, c in enumerate(self._pend) if c)
        self._pend = [0] * len(_COUNTER_LOCALS)
        return line

    def _miss_args(self) -> str:
        """A miss closure's trailing literals: the segment's pending
        centicycles, then the inlined body's depth, each left out while
        it and everything after it is zero."""
        depth = self.body.depth
        if depth:
            return f", {self._pcc}, {depth}"
        return f", {self._pcc}" if self._pcc else ""

    # -- arms --------------------------------------------------------------

    def _translate_block(self, block, ai: int) -> None:
        """Emit arm ``ai``, block ``block``.  Leading phis were assigned on
        the incoming edge; a phi later in the block is an execution
        error, matching the interpreter."""
        self._seen = set()
        for inst in block.instructions[block.first_non_phi_index():]:
            kind = type(inst)
            if kind is Br or kind is Ret or kind is Switch:
                self._emit_terminator(inst, ai, block)
                break
            if kind is Unreachable:
                msg = (
                    f"module {self.module.name}: reached 'unreachable' "
                    f"in @{self.fn.name}"
                )
                self._observed(inst.opcode, f"E.kernel.panic({msg!r})")
                break
            self._emit_step(inst)
            self._seen.add(inst)
        else:
            # Falling off a block is an execution error, not an
            # instruction: nothing more is charged.
            msg = f"block {block.name} in @{self.fn.name} fell through"
            self._emit(4, f"raise IE({msg!r})")
        # Nothing pending crosses into the next arm: a terminator applied
        # it, and a raise leaves it to the handler's replay.
        self._pend, self._pcc = [0] * len(_COUNTER_LOCALS), 0

    def _emit_inlined_call(self, inst: Call, callee, s: str) -> None:
        """The call site of an inlined leaf: read the operands, then, while
        the module's IR is the translated generation, check the depth
        the callee's frame would have and run its body; else (a demotion
        since this frame began) call the re-translated callee through its
        slot.  Both ways leave nothing pending."""
        caller, lv = self.body, self._lv
        body = _Body(callee, caller.depth + 1, inst, s)
        self.bodies.append(body)
        actuals, dests, srcs = [], [], []
        for param, actual in zip(callee.args, inst.args):
            actual = caller.consts.get(actual, actual)
            if type(actual) in _CONSTANT_OPERANDS:
                body.consts[param] = actual
                actuals.append(self._v(actual))
            elif self._bound(actual):
                body.names[param] = self._v(actual)
                actuals.append(body.names[param])
            else:
                dests.append(self._slot())
                body.names[param] = dests[-1]
                srcs.append(self._v(actual))
                actuals.append(dests[-1])
        for v in callee.instructions():
            body.names[v] = self._slot()
        self._charge(inst.opcode, _TC)
        if dests:
            self._inline_step(f"{', '.join(dests)} = {', '.join(srcs)}", _TC)
        self._emit(lv, "if IR.generation == GEN:")
        over = ("d >= E.max_call_depth" if body.depth == 1
                else f"d + {body.depth} > E.max_call_depth")
        self._emit(lv + 1, f"if {over}:")
        msg = f"kernel stack overflow in @{callee.name}"
        self._emit(lv + 2, f"E.kernel.panic({msg!r})")
        unsafe = [body.names[v] for v in self._unsafe(callee)]
        if unsafe:
            self._emit(lv + 1,
                       f"{' = '.join(unsafe)} = None; del {', '.join(unsafe)}")
        pending, seen = (list(self._pend), self._pcc), self._seen
        self.body = body
        self._emit_tree(callee.blocks[0], None, lv + 1)
        self.body, self._lv, self._seen = caller, lv, seen
        self._pend, self._pcc = pending
        self._emit(lv, "else:")
        self._flush(lv + 1)
        assign = "" if inst.type.is_void else f"{s} = "
        self._own = _TC
        self._emit(lv + 1, f"{assign}{self._callee(callee)}({', '.join(actuals)})")
        self._own = 0
        self._emit(lv + 1, self._count())

    def _emit_tree(self, block, pred, lv: int) -> None:
        """Emit an inlined body's ``block``, entered from ``pred``, at
        indentation ``lv``: its phis, its steps, then its successors
        nested under the branch condition; a ``ret`` flushes the segment
        and assigns the call's local."""
        self._lv = lv
        for line in self._phi_copies(pred, block):
            self._emit(lv, line)
        insts = block.instructions
        self._seen = set()
        for inst in insts[block.first_non_phi_index():-1]:
            self._emit_step(inst)
            self._lv = lv
            self._seen.add(inst)
        term = insts[-1]
        self._charge(term.opcode)
        if type(term) is Ret:
            self._flush(lv)
            self._emit(lv, self._count())
            if term.value is not None or not self.body.call.type.is_void:
                value = (self._v(term.value) if term.value is not None
                         else None)
                self._emit(lv, f"{self.body.result} = {value}")
            return
        if not term.is_conditional:
            self._emit_tree(term.targets[0], block, lv)
            return
        self._emit(lv, f"if {self._cond(term.operands[0])}:")
        pending = (list(self._pend), self._pcc)
        self._emit_tree(term.targets[0], block, lv + 1)
        self._pend, self._pcc = pending
        self._emit(lv, "else:")
        self._emit_tree(term.targets[1], block, lv + 1)

    def _emit_step(self, inst) -> None:
        kind = type(inst)
        s = self.body.names[inst]
        if kind is BinOp:
            src = None
            if isinstance(inst.type, IntType):  # no int operand binds a slot
                src = arith.binop_src(inst.op, inst.type,
                                      self._v(inst.lhs), self._v(inst.rhs),
                                      self._literal(inst.rhs))
            if src is not None:
                self._charge(inst.opcode)
                if not self._fold(inst, arith.binop(inst.op, inst.type),
                                  inst.lhs, inst.rhs):
                    self._emit(self._lv, f"{s} = {src}")
                return
            # Division by a zero or unknown divisor (panic path) and
            # float arithmetic stay closures.
            c = self._bind("C", self._binop_core(inst))
            self._observed(inst.opcode,
                           f"{s} = {c}({self._args((inst.lhs, inst.rhs))})")
            return
        if kind is ICmp:
            self._charge(inst.opcode)
            if self._fold(inst, arith.icmp(inst.pred, inst.lhs.type),
                          inst.lhs, inst.rhs):
                return
            a, b = self._v(inst.lhs), self._v(inst.rhs)
            cond = arith.icmp_cond(inst.pred, inst.lhs.type, a, b)
            if self._local(inst, branch=True) and all(
                    self._literal(v) is not None or self._bound(v)
                    for v in (inst.lhs, inst.rhs)):
                self.body.conds[inst] = cond  # the branch tests it
            else:
                self._emit(self._lv, f"{s} = 1 if {cond} else 0")
            return
        if kind is Cast:
            if inst.op in arith.FLOAT_CONVERSIONS:
                # Float conversions stay closures from ``repro.ir.arith``.
                c = self._bind(
                    "C", arith.cast(inst.op, inst.value.type, inst.type))
                self._observed(inst.opcode,
                               f"{s} = {c}({self._v(inst.value)})")
                return
            self._charge(inst.opcode)
            if self._fold(inst, arith.cast(inst.op, inst.value.type,
                                           inst.type), inst.value):
                return
            v = self._v(inst.value)
            src = arith.cast_src(inst.op, inst.value.type, inst.type, v)
            if src == v and self._local(inst) and self._bound(inst.value):
                self.body.names[inst] = v  # a copy: name the operand
                return
            self._emit(self._lv, f"{s} = {src}")
            return
        if kind is Gep:
            self._charge(inst.opcode)
            src = self._gep(inst)
            if not (src.isdigit() and self._local(inst)):
                self._emit(self._lv, f"{s} = {src}")
            else:
                self.body.consts[inst] = int(src)
            return
        if kind is Select:
            self._charge(inst.opcode)
            c, t, f = (self._v(o) for o in inst.operands[:3])
            self._emit(self._lv, f"{s} = {t} if {c} else {f}")
            return
        if kind is Load:
            self._charge(inst.opcode, _TL)
            self._inline_step(f"{s} = {self._load(inst)}", _TL)
            return
        if kind is Store:
            self._charge(inst.opcode, _TS)
            self._own = _TS
            self._store(inst)
            self._own = 0
            return
        if kind is Call:
            callee = self._inlinable(inst)
            if callee is not None:
                self._emit_inlined_call(inst, callee, s)
            else:
                self._emit_call(inst, s)
            return
        if kind is Alloca:
            c = self._bind("C", self._alloca_core(inst))
            self._observed(inst.opcode, f"{s} = {c}()")
            return
        if kind is FCmp:
            c = self._bind("C", arith.fcmp(inst.pred))
            self._observed(inst.opcode,
                           f"{s} = {c}({self._args(inst.operands[:2])})")
            return
        if kind is InlineAsm:
            msg = (
                f"module {self.module.name}: executed inline assembly "
                "(should have been rejected at load time)"
            )
            self._observed(inst.opcode, f"E.kernel.panic({msg!r})")
            return
        # Misplaced phi or unknown opcode: fail at execution time like
        # the interpreter's exhaustive dispatch.
        self._observed(inst.opcode,
                       f"raise IE({f'cannot execute {inst.opcode}'!r})")

    # -- inline address arithmetic -----------------------------------------

    def _gep(self, inst: Gep) -> str:
        base = self._v(inst.base)
        index = self._literal(inst.index)
        if index is not None:
            # Constant index: fold the whole displacement, and with a
            # literal base the whole address.
            delta = abi.to_signed64(index) * inst.scale + inst.displacement
            lit = self._literal(inst.base)
            if lit is not None:
                return repr((lit + delta) & _MASK64)
            return f"({base} + ({delta})) & {_MASK64}"
        # ``abi.to_signed64`` as a sign-bit flip: exact modulo 2**64,
        # which the final mask makes exact outright.
        x = f"(({self._v(inst.index)} ^ {1 << 63}) - {1 << 63})"
        return (f"({base} + {x} * {inst.scale} + ({inst.displacement}))"
                f" & {_MASK64}")

    # -- arithmetic closures -----------------------------------------------

    def _binop_core(self, inst: BinOp):
        """Closure for the binops codegen doesn't inline: division by a
        zero or unknown divisor (panic-on-zero path) and float
        arithmetic."""
        msg = f"module {self.module.name}: divide error ({inst.op} by zero)"

        def on_zero(_e=self.engine, _m=msg):
            _e.kernel.panic(_m)

        return arith.make_binop(inst.op, inst.type, on_zero)

    def _alloca_core(self, inst: Alloca):
        def core(_sz=inst.size_bytes,
                 _am=~(max(inst.allocated_type.align_bytes(), 8) - 1),
                 _e=self.engine, _kb=layout.KSTACK_BASE):
            top = (_e._stack_top - _sz) & _am
            if top < _kb:
                _e.kernel.panic("kernel stack exhausted")
            _e._stack_top = top
            return top

        return core

    # -- memory ------------------------------------------------------------
    #
    # A load or store is generated text that probes the address space's
    # software TLB (see :mod:`repro.kernel.memory`) with no call of its
    # own: an aligned integer access to a page the TLB holds is one
    # ``dict.get`` and one index into the page's view of its width (a
    # store assigns the item); a float access is a ``dict.get``, an
    # offset check and a shared ``struct`` codec at its offset in the
    # byte page.  All else (a TLB miss, an MMIO window, an unaligned
    # integer, a page-straddling access) calls the site's miss closure:
    # the interpreter's path (one ``find``, the MMIO charge, the same
    # faults in the same order) plus a TLB fill.  An aggregate access (no
    # front end emits one) has no view and always misses.

    def _probe(self, tlb: str, ptr, size: int, codec: bool):
        """``(test, at)`` for a ``size``-byte access at ``ptr``: ``test``
        holds when the access hits the TLB ``tlb`` (``RT`` or ``WT``),
        binding the page's view to ``p``, and ``at`` is the access's
        position in ``p``.  An integer access indexes the view of its
        width at item ``offset >> k``, so it hits only when aligned; a
        ``codec`` (float) access reads the byte page at offset ``o``, so
        it hits when it fits in the page.  A literal address has its page
        and position folded, and one that can never hit gives None."""
        shift, om = layout.PAGE_SHIFT, layout.PAGE_SIZE - 1
        width = 1 if codec else size
        table = f"{tlb}{width}"
        mem = self.engine.kernel.address_space
        self.ns[table] = (mem.rtlb if tlb == "RT" else mem.wtlb)[width]
        k = width.bit_length() - 1
        lit = self._literal(ptr)
        if lit is not None:
            off = lit & om
            if off > layout.PAGE_SIZE - size or off & (width - 1):
                return None
            return (f"(p := {table}.get({lit >> shift})) is not None",
                    str(off >> k))
        a = self._v(ptr)
        test = f"(p := {table}.get({a} >> {shift})) is not None"
        if codec:
            return (f"{test} and (o := {a} & {om}) <= {layout.PAGE_SIZE - size}",
                    "o")
        if width == 1:
            return test, f"{a} & {om}"
        return f"not {a} & {width - 1} and {test}", f"({a} & {om}) >> {k}"

    def _load(self, inst: Load) -> str:
        t = inst.type
        size = t.size_bytes()
        miss = (f"{self._miss('L', t)}"
                f"({self._v(inst.pointer)}{self._miss_args()})")
        codec = isinstance(t, FloatType)
        probe = (self._probe("RT", inst.pointer, size, codec)
                 if size in VIEW_WIDTHS else None)
        if probe is None:
            return miss
        test, at = probe
        if codec:
            name = f"UF{size}"
            self.ns[name] = _CODEC_NAMES[name]
            return f"{name}(p, {at})[0] if {test} else {miss}"
        return f"p[{at}] if {test} else {miss}"

    def _store(self, inst: Store) -> None:
        """Emit the store: the hit under ``if``, the miss under ``else``."""
        t = inst.value.type
        size = t.size_bytes()
        miss = (f"{self._miss('S', t)}"
                f"({self._args((inst.pointer, inst.value))}"
                f"{self._miss_args()})")
        codec = isinstance(t, FloatType)
        probe = (self._probe("WT", inst.pointer, size, codec)
                 if size in VIEW_WIDTHS else None)
        lv = self._lv
        if probe is None:
            self._emit(lv, miss)
            return
        test, at = probe
        v = self._v(inst.value)
        if codec:
            name = f"PF{size}"
            self.ns[name] = _CODEC_NAMES[name]
            if size == 4:
                self.ns["RF"] = _CODEC_NAMES["RF"]
                v = f"RF({v})"
            hit = f"{name}(p, {at}, {v})"
        else:
            # A constant is already its type's bit pattern; an argument
            # may reach the VM unnormalized.
            lit = self._literal(inst.value)
            x = repr(lit) if lit is not None else f"{v} & {(1 << 8 * size) - 1}"
            hit = f"p[{at}] = {x}"
        self._emit(lv, f"if {test}:")
        self._emit(lv + 1, hit)
        self._emit(lv, "else:")
        self._emit(lv + 1, miss)

    def _miss(self, kind: str, t) -> str:
        """The name of the engine's miss closure for a load (``kind``
        "L") or store ("S") of type ``t``, bound into the namespace.  A
        miss closure depends on nothing but the access's type, so every
        site of a type shares one."""
        name = f"{kind}M{'F' if isinstance(t, FloatType) else ''}" \
               f"{t.size_bytes()}"
        misses = self.engine._misses
        core = misses.get(name)
        if core is None:
            make = self._load_miss if kind == "L" else self._store_miss
            core = misses[name] = make(t)
        self.ns[name] = core
        return name

    def _load_miss(self, t):
        """A load's miss closure.  It reads the integer bit pattern a
        device returns or RAM holds; a float load then decodes it."""
        timing = self.timing
        mem = self.engine.kernel.address_space
        mrc = self.costs.mmio_read if timing is not None else 0
        size = t.size_bytes()
        to_float = None
        if isinstance(t, FloatType):
            def to_float(bits, _u=(_F32 if t.bits == 32 else _F64).unpack,
                         _z=size):
                return _u(bits.to_bytes(_z, "little"))[0]

        def miss(addr, k=0, dd=0, _z=size, _k=(1 << 8 * size) - 1,
                 _t=timing, _e=self.engine, _f=mem.find, _mrc=mrc,
                 _ri=mem.ram.read_int, _fill=mem.tlb_fill,
                 _fl=to_float):
            m = _f(addr)
            if m is not None:
                dev = m.device
                if dev is not None and _t is not None:
                    _t.mmio_reads += 1
                    _t.cc += _mrc
                if addr + _z <= m.end:
                    if dev is not None:
                        # The device reads the clock and may raise an
                        # interrupt whose handler runs module code: it
                        # sees the segment's charge and the inlined
                        # frames' depth, which are the frame's again after.
                        _apply(_t, _e, k, dd)
                        try:
                            v = dev.mmio_read(addr - m.base, _z)
                        finally:
                            _apply(_t, _e, -k, -dd)
                        if type(v) is not int or not 0 <= v <= _k:
                            # The interpreter's ``to_bytes`` round trip:
                            # its value, or its error.
                            v = int.from_bytes(v.to_bytes(_z, "little"),
                                               "little")
                    else:
                        v = _ri(m.phys_base + (addr - m.base), _z)
                        _fill(m, addr)
                    return v if _fl is None else _fl(v)
            raise MemoryFault(addr, _z, False, "no mapping")

        return miss

    def _store_miss(self, t):
        """A store's miss closure.  It writes an integer bit pattern to
        the device or RAM; a float store encodes its value to one first."""
        timing = self.timing
        mem = self.engine.kernel.address_space
        mwc = self.costs.mmio_write if timing is not None else 0
        size = t.size_bytes()
        to_bits = None
        if isinstance(t, FloatType):
            def to_bits(value, _p=(_F32 if t.bits == 32 else _F64).pack,
                        _c=arith.round_f32 if t.bits == 32 else float):
                return int.from_bytes(_p(_c(value)), "little")

        def miss(addr, value, k=0, dd=0, _z=size, _k=(1 << 8 * size) - 1,
                 _t=timing, _e=self.engine, _f=mem.find, _mwc=mwc,
                 _wi=mem.ram.write_int, _fill=mem.tlb_fill,
                 _b=to_bits):
            m = _f(addr)
            if _t is not None and m is not None and m.device is not None:
                _t.mmio_writes += 1
                _t.cc += _mwc
            v = int(value) & _k if _b is None else _b(value)
            if m is None or addr + _z > m.end:
                raise MemoryFault(addr, _z, True, "no mapping")
            if not m.writable:
                raise MemoryFault(addr, _z, True, f"{m.name} is read-only")
            if m.device is not None:
                _apply(_t, _e, k, dd)  # as for a device read
                try:
                    m.device.mmio_write(addr - m.base, _z, v)
                finally:
                    _apply(_t, _e, -k, -dd)
                return
            _wi(m.phys_base + (addr - m.base), _z, v)
            _fill(m, addr)

        return miss

    # -- calls -------------------------------------------------------------

    def _emit_call(self, inst: Call, s: str) -> None:
        callee = inst.callee
        assign = "" if inst.type.is_void else f"{s} = "
        if abi.is_guard_call(inst):
            # Guard calls are charged through the guard cost only, like
            # the interpreter (which keys that on ``is_guard``).
            if id(inst) in self.module.elided_guards:
                # Statically proven in-policy at insmod (-O3): emit no
                # code at all.  The ordinal still advances so guard-site
                # IDs stay aligned with the interpreter's walk, and the
                # missing line changes the source text, so the
                # process-global translation cache can never serve an
                # elided body to an unverified module.
                self._guard_ordinal += 1
                if inst.is_guard:
                    self._pend[_N] += 1
                else:
                    self._charge(inst.opcode)
                if not inst.type.is_void:
                    self._emit(self._lv, f"{s} = 0")
                return
            if inst.is_guard:
                self._pend[_N] += 1
            else:
                self._charge(inst.opcode)
            # The closure adds the segment's centicycles before anything
            # else (see _guard_core).
            c = self._bind("C", self._guard_core(inst))
            pcc = f", {self._pcc}" if self._pcc else ""
            self._adds = True
            self._emit(self._lv,
                       f"{assign}{c}({self._args(inst.args[:3])}{pcc})")
            self._adds = False
            self._pcc = 0
            return
        args = self._args(inst.args)
        if callee.is_declaration:
            c = self._bind("C", self._native_core(inst))
            self._observed(inst.opcode, f"{assign}{c}({args})")
        elif len(inst.args) != len(callee.args):
            # Wrong arity: the engine's entry raises the interpreter's
            # error (after the call is counted, as the interpreter does).
            fn = self._bind("FN", callee)
            self._observed(inst.opcode,
                           f"{assign}E._exec_function(M, {fn}, [{args}])", _TC)
        else:
            self._observed(inst.opcode,
                           f"{assign}{self._callee(callee)}({args})", _TC)

    def _callee(self, callee) -> str:
        """The namespace slot for a same-module callee.  It starts as a
        stub that resolves the callee's translation on the first call and
        rebinds the slot to its generated function; that function's own
        prologue revalidates on every call."""
        name = self._callees.get(callee)
        if name is not None:
            return name
        eng, module, ns = self.engine, self.module, self.ns

        def resolve(*args):
            entry = eng._translation(module, callee)
            ns[name] = entry.entry
            if entry.warm is not None:
                entry.slots.append((ns, name))
            return entry.entry(*args)

        name = self._bind("F", resolve)
        self._callees[callee] = name
        return name

    def _native_core(self, inst: Call):
        """Call to a declaration: the linked native is the common case —
        inline it (with the interpreter's int-return normalization);
        symbols that are unlinked or IR-owned fall back to
        ``_dispatch_call``, which re-resolves and keeps the error/exotic
        paths in one place."""
        rt = inst.callee.function_type.ret

        def core(*args, _e=self.engine, _i=inst, _m=self.module,
                 _imp=self.module.imports, _n=inst.callee.name,
                 _t=self.timing,
                 _k=rt.max_unsigned if isinstance(rt, IntType) else None):
            sym = _imp.get(_n)
            if sym is None or sym.native is None:
                return _e._dispatch_call(_i, _m, list(args))
            if _t is not None:
                _t.calls += 1
            _e.current_module = _m
            ret = sym.native(_e, *args)
            if _k is not None and isinstance(ret, int):
                ret &= _k
            return ret

        return core

    def _guard_core(self, inst: Call):
        """The common case — the guard symbol is linked and native — is
        inlined: the module's import dict and name, and the machine's
        guard cost coefficients, are captured at translate time.
        ``add_guard``'s ``cc += base + entry * n`` is replicated in
        centicycles, so accounting stays bit-identical.
        Anything else (unlinked symbol needing the late re-link, IR
        policy function, missing policy panic) falls back to the
        interpreter's shared ``_dispatch_guard``, which consults
        ``module.imports`` afresh — policy swaps mutate that dict in
        place, so the captured reference observes them.

        When the linked native is the policy module's own ``_guard``, the
        untraced, timed closure also serves an allowed decision-cache hit
        itself, with no call into the policy: the rule and the counter
        updates are the ones documented on
        :class:`repro.policy.module._GuardCache`.  A hit then costs one
        Python call (this closure) instead of two.  The probe lives here
        rather than in the generated text, so the source (and with it
        :data:`TRANSLATION_CACHE` and ``compile()`` time) is unchanged.

        Traced or untimed translations get the general closure, with the
        callsite id baked in at translate time (no per-hit walk).

        Every guard closure takes the site's pending centicycles as a
        trailing ``k`` and adds them to the clock before anything else,
        so whatever it runs sees the interpreter's clock."""
        module = self.module
        timing = self.timing
        tracer = self.tracer
        ordinal = self._guard_ordinal
        self._guard_ordinal += 1
        eng = self.engine
        imports = module.imports
        mname = module.name
        gsym = abi.GUARD_SYMBOL
        if tracer is None and timing is not None:
            gb, ge = self.costs.guard_base, self.costs.guard_entry

            def core(a, s, f, k=0, _e=eng, _m=module, _imp=imports,
                     _n=mname, _g=gsym, _t=timing, _gb=gb, _ge=ge):
                _t.cc += k
                sym = _imp.get(_g)
                if sym is None or sym.native is None:
                    return _e._dispatch_guard(_m, a, s, f)
                _e.guard_checks += 1
                n = int(sym.native(_e, a, s, f, _n) or 0)
                _t.cc += _gb + _ge * n

            native = getattr(imports.get(gsym), "native", None)
            if getattr(native, "__func__", None) is _policy_guard():
                return self._guard_fast_core(native, core)
            return core
        machine = timing.machine if timing is not None else None
        site = (guard_site_id(mname, self.fn.name, ordinal)
                if tracer is not None else None)

        def core(a, s, f, k=0, _e=eng, _m=module, _imp=imports, _n=mname,
                 _g=gsym, _i=inst, _t=timing, _tr=tracer, _site=site,
                 _c=self.costs, _cost=machine.guard_cost if machine else None):
            if k:
                _t.cc += k
            sym = _imp.get(_g)
            if sym is None or sym.native is None:
                return _e._dispatch_guard(_m, a, s, f, _i)
            _e.guard_checks += 1
            n = int(sym.native(_e, a, s, f, _n) or 0)
            cost = 0.0
            if _t is not None:
                cost = _cost(n)
                _t.cc += _c.guard(n)
            if _tr is not None:
                _tr.on_guard(_site, a, s, f, n, cost)

        return core

    def _guard_fast_core(self, native, slow):
        """``slow`` (the timed guard closure) with an allowed decision-cache
        hit served in front of it.  ``native`` is the policy's bound
        ``_guard`` linked at translate time; every case the rule on
        ``_GuardCache`` does not cover goes to ``slow``, which calls the
        linked native."""
        policy = native.__self__

        def core(a, s, f, k=0, _e=self.engine, _imp=self.module.imports,
                 _g=abi.GUARD_SYMBOL, _t=self.timing,
                 _gb=self.costs.guard_base, _ge=self.costs.guard_entry,
                 _gn=native, _smp=policy.kernel.smp,
                 _b=policy._bindings[self.module.name], _slow=slow):
            sym = _imp.get(_g)
            if sym is not None and sym.native is _gn:
                c = _b[_smp.current]
                if c is not None:
                    d = c.decisions.get((a, s, f))
                    if d is not None and d[0]:
                        n = d[1]
                        row = c.row
                        row.guard_cache_hits += 1
                        row.entries_scanned += n
                        _e.guard_checks += 1
                        _t.cc += k + _gb + _ge * n
                        return
            return _slow(a, s, f, k)

        return core

    # -- terminators -------------------------------------------------------

    def _emit_terminator(self, inst, ai: int, block) -> None:
        """Charge the terminator, flush every pending charge and the
        block's executed count, then leave the arm."""
        self._charge(inst.opcode)
        self._flush()
        self._emit(4, self._count())
        kind = type(inst)
        arm = self.arm
        if kind is Ret:
            self._emit(4, f"return {self._v(inst.value)}"
                       if inst.value is not None else "return")
            return
        if kind is Br:
            if not inst.is_conditional:
                self._goto(ai, block, inst.targets[0], 4)
                return
            c = self._cond(inst.operands[0])
            tb, fb = inst.targets
            t, f = arm[tb], arm[fb]
            if (t > ai and f > ai and not self._phi_copies(block, tb)
                    and not self._phi_copies(block, fb)):
                self._emit(4, f"b = {t} if {c} else {f}")
                return
            self._emit(4, f"if {c}:")
            self._goto(ai, block, tb, 5)
            self._emit(4, "else:")
            self._goto(ai, block, fb, 5)
            return
        assert kind is Switch
        # First matching case wins, like the interpreter's linear scan:
        # keep only the first target for duplicated case values.
        table: dict[int, int] = {}
        for cv_, target in inst.cases:
            table.setdefault(cv_, arm[target])
        default = arm[inst.default]
        tbl = self._bind("TBL", table)
        self._emit(4, f"b = {tbl}.get({self._v(inst.operands[0])}, {default})")
        targets = dict.fromkeys(inst.targets)
        for target in targets:
            copies = self._phi_copies(block, target)
            if copies:
                self._emit(4, f"if b == {arm[target]}:")
                for line in copies:
                    self._emit(5, line)
        if min(arm[t] for t in targets) <= ai:
            self._emit(4, "continue")

    def _goto(self, ai: int, block, target, level: int) -> None:
        """Take the edge ``block -> target`` from arm ``ai``: phi copies,
        then ``b`` = the target's arm (a forward edge falls through to
        it; a backward one restarts the arm chain)."""
        for line in self._phi_copies(block, target):
            self._emit(level, line)
        arm = self.arm[target]
        self._emit(level, f"b = {arm}")
        if arm <= ai:
            self._emit(level, "continue")

    def _phi_copies(self, pblock, target) -> list[str]:
        """The target's phis on the edge from block ``pblock`` (None: the
        function entry), as one parallel assignment (phis read
        pre-transfer values) plus their instruction charge.  An edge some
        phi lacks raises the interpreter's ``KeyError``, after evaluating
        the phis before it."""
        dests, srcs = [], []
        for inst in target.instructions:
            if not isinstance(inst, Phi):
                break
            # First matching edge wins, like ``incoming_for``.
            src = next((v for v, b in inst.incoming if b is pblock), None)
            if src is None:
                msg = ("phi has no incoming edge from "
                       f"{None if pblock is None else pblock.name}")
                lines = [f"({', '.join(srcs)},)"] if srcs else []
                return lines + [f"raise KeyError({msg!r})"]
            dests.append(self.body.names[inst])
            srcs.append(self._v(src))
        if not dests:
            return []
        lines = [f"{', '.join(dests)} = {', '.join(srcs)}"]
        if self.timing is not None:
            lines.append(f"ti += {len(dests)}")
            self._used.add(_TI)
        return lines


def _block_local(fn) -> tuple:
    """``fn``'s instructions whose every use is a later step of their own
    block (a phi's use is on an edge, so it never is), and those of them
    whose one use is the conditional branch that ends the block."""
    where = {inst: (b, i) for b in fn.blocks
             for i, inst in enumerate(b.instructions)}
    local = set(where)
    uses: dict = {}
    for b in fn.blocks:
        for i, inst in enumerate(b.instructions):
            phi = type(inst) is Phi
            for v in inst.operands:
                uses[v] = uses.get(v, 0) + 1
                site = where.get(v)
                if site is not None and (phi or site[0] is not b
                                         or site[1] >= i):
                    local.discard(v)
    branch = set()
    for b in fn.blocks:
        term = b.instructions[-1] if b.instructions else None
        if type(term) is Br and term.is_conditional:
            c = term.operands[0]
            if c in local and uses[c] == 1:
                branch.add(c)
    return local, branch


def _apply(timing, engine, k: int, dd: int) -> None:
    """Add a miss closure's pending centicycles ``k`` and inlined depth
    ``dd`` to the engine (negated: take them back)."""
    if k:
        timing.cc += k
    if dd:
        engine._depth += dd


__all__ = ["CompiledEngine", "TRANSLATION_CACHE"]
