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
  :mod:`repro.ir.arith` with the operands substituted, and a gep off a
  literal base with a constant index is one literal.  Stateful
  operations (native calls, guards, allocas, division, float math) call
  per-site closures that take operand values and return the result
  (``v5 = C0(v2)``);
- a call to another function of the same module is ``v7 = F3(v1, v2)``,
  where ``F3`` is a namespace slot bound lazily to the callee's
  generated function, so no per-call translation lookup remains;
- a load or store is one generated expression that serves an
  intra-page RAM access from the address space's software TLB
  (:mod:`repro.kernel.memory`) with no Python call of its own:
  ``RT.get(a >> 12)`` (``WT`` for a store) from virtual page number to
  the page ``bytearray``, an offset check, then a shared ``struct``
  codec at that offset (``U8(p, o)[0]``, ``P4(p, o, v & mask)``; a byte
  load indexes the page).  A literal address has its page and offset
  folded.  A miss, an MMIO window or a page-straddling access calls the
  site's miss closure, which fuses the mapping lookup the interpreter
  performs twice (once for MMIO accounting, once inside ``read_bytes``)
  into a single ``find`` and refills the TLB;
- a guard site linked to the policy module's own ``carat_guard`` serves
  an allowed decision-cache hit inside its closure, comparing no version
  (every policy write empties the affected decisions first; the rule is
  on :class:`repro.policy.module._GuardCache`), and calls the native for
  everything else.  On the paper's ``-O0`` build nearly every guard is
  such a hit, so a guarded access costs one Python call instead of two.

Accounting is **bit-identical** to the interpreter.  The cycle charge
is observable: between observable points (a load, store, closure,
native, guard, call, or terminator) the charges of the inline steps are
batched into ``T.cycles = T.cycles + c1 + ... + ck``, the same
left-to-right float additions the interpreter makes one instruction at
a time, so no sum is reassociated and everything that can observe
``timing.cycles`` (natives, MMIO devices, guards, panics) sees exactly
the interpreter's value.  The integer counters are not read while a
frame is live, only by the tracer between a frame's own enter and exit
and by code that runs after the outermost call, so they are frame
locals: ``n`` (``instructions_executed``), ``ti``, ``tl``, ``ts`` and
``tc`` (``T.instructions``, ``T.loads``, ``T.stores``, IR-call
``T.calls``) take each block's counts, summed at translate time, in one
line at its terminator (``n += 9; ti += 8; tl += 2``), and the
``finally`` adds them to the engine before the tracer's exit hook.  If
a step raises, the exception handler applies the charges and counts the
raising line had pending, from a table built at translate time and
keyed by the generated source line; a read of an SSA value whose
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
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantString,
    GlobalVariable,
    UndefValue,
)
from ..kernel import layout
from ..kernel.module_loader import LoadedModule
from ..kernel.panic import MemoryFault
from ..trace.vmhook import guard_site_id
from .interp import Interpreter, InterpreterError

_MASK64 = (1 << 64) - 1
#: ``struct`` codecs of scalar memory accesses: an IR integer or pointer
#: is 1, 2, 4 or 8 bytes, little-endian and unsigned.
_INT_CODECS = {
    n: struct.Struct(f"<{c}") for n, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
}
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")
#: Namespace names shared by every inline load and store: ``U<size>``
#: unpacks and ``P<size>`` packs an integer at a page offset (a byte load
#: indexes the page instead), ``UF<size>`` and ``PF<size>`` a float;
#: ``RF`` rounds a value stored to an f32.
_CODEC_NAMES = {
    **{f"U{n}": c.unpack_from for n, c in _INT_CODECS.items() if n > 1},
    **{f"P{n}": c.pack_into for n, c in _INT_CODECS.items()},
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
    """A function's generated ``entry``, tagged with its validity keys."""

    __slots__ = ("entry", "generation", "tracer")

    def __init__(self, entry, generation, tracer):
        self.entry = entry
        self.generation = generation
        self.tracer = tracer


class CompiledEngine(Interpreter):
    """Drop-in replacement for :class:`Interpreter` with translate-once
    execution.  Shares the interpreter's call/guard dispatch helpers, so
    native dispatch, late guard re-linking, and panic semantics are the
    same code path."""

    name = "compiled"

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
        return entry


class _Translator:
    """Translates one function into a :class:`_CompiledFunction`.

    One instance per translation; holds the local-name map, the pending
    (not yet emitted) charges, and the engine/timing/tracer the
    closures specialize against."""

    def __init__(self, engine: CompiledEngine, module: LoadedModule, fn):
        if fn.is_declaration:
            raise InterpreterError(f"cannot execute declaration @{fn.name}")
        self.engine = engine
        self.module = module
        self.fn = fn
        self.timing = engine.timing
        self.tracer = engine.tracer
        # Guard call sites numbered in translation order; the same walk
        # (blocks in order, stopping at terminators) backs the
        # interpreter's VMTracer.site_for, so ids agree across engines.
        self._guard_ordinal = 0
        # Arguments are v1..vn; every instruction gets the next name
        # (void results are simply never assigned).
        self.names: dict = {}
        for slot, v in enumerate(
            [*fn.args, *(i for b in fn.blocks for i in b.instructions)], 1
        ):
            self.names[v] = f"v{slot}"
        self.block_index = {b: i for i, b in enumerate(fn.blocks)}

    def translate(self, generation: int) -> _CompiledFunction:
        fn = self.fn
        # The generated module's namespace: engine/timing/tracer under
        # fixed short names, plus per-site closures (``C<n>``), callee
        # slots (``F<n>``), hoisted non-int constants (``K<n>``), switch
        # tables (``TBL<n>``), and, once a load or store uses them, the
        # TLB dicts (``RT``, ``WT``) and the shared codecs.
        self.ns: dict = {
            "E": self.engine, "T": self.timing, "TR": self.tracer,
            "M": self.module, "IR": self.module.ir, "FN": fn,
            "GEN": generation, "IE": InterpreterError,
        }
        self._nsym = 0
        self._callees: dict = {}
        self.lines: list[str] = []
        # Source line -> (*counts, cycle costs, own counter): what the
        # interpreter has charged but the frame has not yet applied at
        # that line.  ``counts`` follow ``_COUNTER_LOCALS``; ``own`` is
        # the index of the line's own load, store or call count (0 if
        # none), which an undefined operand read keeps uncounted.
        self.replay: dict = {}
        self._pend = [0] * len(_COUNTER_LOCALS)
        self._pc: list = []
        self._own = 0
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
        exec(code, self.ns)
        return _CompiledFunction(self.ns["_f"], generation, self.tracer)

    def _emit_function(self) -> None:
        fn = self.fn
        params = ", ".join(self.names[a] for a in fn.args)
        emit = self._emit
        emit(0, f"def _f({params}):")
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
            for line in self._phi_copies(None, 0):
                emit(2, line)
        emit(2, "while True:")
        for i, block in enumerate(fn.blocks):
            emit(3, f"if b == {i}:")
            self._translate_block(block, i)
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

    def _replayer(self):
        """The exception handler's helper: apply the charges pending at
        the raising line, and report a read of an SSA local that was
        never assigned as the interpreter's undefined-value error (the
        interpreter reads an access's operands before counting it)."""
        table = self.replay
        eng = self.engine
        timing = self.timing
        undefined = {
            name: f"use of undefined value %{v.name} ({v.type})"
            for v, name in self.names.items()
        }

        def replay(exc, _tab=table, _e=eng, _t=timing, _u=undefined):
            tb = exc.__traceback__
            unbound = type(exc) is UnboundLocalError and tb.tb_next is None
            pending = _tab.get(tb.tb_lineno)
            if pending is not None:
                pe, pi, pl, ps, pk, costs, own = pending
                _e.instructions_executed += pe
                if _t is not None:
                    _t.instructions += pi
                    _t.loads += pl - (unbound and own == _TL)
                    _t.stores += ps - (unbound and own == _TS)
                    _t.calls += pk - (unbound and own == _TC)
                    for c in costs:
                        _t.cycles += c
            if unbound:
                msg = _u.get(str(exc).split("'")[1])
                if msg is not None:
                    raise InterpreterError(msg) from None

        return replay

    # -- codegen helpers ---------------------------------------------------

    def _emit(self, level: int, line: str) -> None:
        """Append one source line, recording the charges still pending
        at it for the exception handler's replay."""
        self.lines.append("    " * level + line)
        if self._pend[_N] or self._pc:
            self.replay[len(self.lines)] = (*self._pend, tuple(self._pc),
                                            self._own)

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
        name = self.names.get(v)
        if name is None:
            raise InterpreterError(
                f"use of undefined value %{v.name} ({v.type})"
            )
        return name

    def _literal(self, v):
        """The int an operand's source literal stands for, or None if
        :meth:`_v` gives it no int literal."""
        k = type(v)
        if k is ConstantInt:
            return v.value
        if k is ConstantNull or k is UndefValue:
            return 0
        if k is GlobalVariable:
            return int(self._v(v))
        return None

    def _args(self, values) -> str:
        return ", ".join(self._v(a) for a in values)

    # -- charging ----------------------------------------------------------

    def _charge(self, opcode: str, counter: int = 0) -> None:
        """Charge one instruction, in the interpreter's order (before it
        executes), plus one ``counter`` (``_TL``, ``_TS`` or ``_TC``) if
        given.  The counts stay pending until the block's terminator,
        the cycles until the next :meth:`_flush`."""
        self._pend[_N] += 1
        if self.timing is not None:
            self._pend[_TI] += 1
            if counter:
                self._pend[counter] += 1
            self._pc.append(self.timing.machine.op_cost(opcode))

    def _flush(self) -> None:
        """Emit the pending cycle charges as one left-to-right float sum
        (``repr`` of a float round-trips exactly)."""
        pc = self._pc
        self._pc = []
        if pc:
            self._emit(4, "T.cycles = T.cycles + "
                          + " + ".join(repr(c) for c in pc))

    def _observed(self, opcode: str, line: str, counter: int = 0) -> None:
        """A charged step that may observe ``timing``: flush first."""
        self._charge(opcode, counter)
        self._flush()
        self._own = counter
        self._emit(4, line)
        self._own = 0

    def _count(self) -> str:
        """The block's pending counts as frame-local adds, now applied."""
        line = "; ".join(f"{_COUNTER_LOCALS[k]} += {c}"
                         for k, c in enumerate(self._pend) if c)
        self._used.update(k for k, c in enumerate(self._pend) if c)
        self._pend = [0] * len(_COUNTER_LOCALS)
        return line

    # -- blocks ------------------------------------------------------------

    def _translate_block(self, block, bi: int) -> None:
        """Emit block ``bi``'s arm body.  Leading phis were assigned on
        the incoming edge; a phi later in the block is an execution
        error, matching the interpreter."""
        insts = block.instructions
        k = 0
        while k < len(insts) and isinstance(insts[k], Phi):
            k += 1
        for inst in insts[k:]:
            kind = type(inst)
            if kind is Br or kind is Ret or kind is Switch:
                self._emit_terminator(inst, bi)
                break
            if kind is Unreachable:
                msg = (
                    f"module {self.module.name}: reached 'unreachable' "
                    f"in @{self.fn.name}"
                )
                self._observed(inst.opcode, f"E.kernel.panic({msg!r})")
                break
            self._emit_step(inst)
        else:
            # Falling off a block is an execution error, not an
            # instruction: nothing more is charged.
            msg = f"block {block.name} in @{self.fn.name} fell through"
            self._emit(4, f"raise IE({msg!r})")
        # Nothing pending crosses into the next arm: a terminator applied
        # it, and a raise leaves it to the handler's replay.
        self._pend, self._pc = [0] * len(_COUNTER_LOCALS), []

    # -- straight-line steps -----------------------------------------------

    def _emit_step(self, inst) -> None:
        kind = type(inst)
        s = self.names[inst]
        if kind is BinOp:
            src = None
            if isinstance(inst.type, IntType):  # no int operand binds a slot
                src = arith.binop_src(inst.op, inst.type,
                                      self._v(inst.lhs), self._v(inst.rhs))
            if src is not None:
                self._charge(inst.opcode)
                self._emit(4, f"{s} = {src}")
                return
            # Division (panic path) and float arithmetic stay closures.
            c = self._bind("C", self._binop_core(inst))
            self._observed(inst.opcode,
                           f"{s} = {c}({self._args((inst.lhs, inst.rhs))})")
            return
        if kind is ICmp:
            self._charge(inst.opcode)
            src = arith.icmp_src(inst.pred, inst.lhs.type,
                                 self._v(inst.lhs), self._v(inst.rhs))
            self._emit(4, f"{s} = {src}")
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
            src = arith.cast_src(inst.op, inst.value.type, inst.type,
                                 self._v(inst.value))
            self._emit(4, f"{s} = {src}")
            return
        if kind is Gep:
            self._charge(inst.opcode)
            self._emit(4, f"{s} = {self._gep(inst)}")
            return
        if kind is Select:
            self._charge(inst.opcode)
            c, t, f = (self._v(o) for o in inst.operands[:3])
            self._emit(4, f"{s} = {t} if {c} else {f}")
            return
        if kind is Load:
            self._observed(inst.opcode, f"{s} = {self._load(inst)}", _TL)
            return
        if kind is Store:
            self._observed(inst.opcode, self._store(inst), _TS)
            return
        if kind is Call:
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
        if type(inst.index) is ConstantInt:
            # Constant index: fold the whole displacement, and with a
            # literal base the whole address.
            delta = (abi.to_signed64(inst.index.value) * inst.scale
                     + inst.displacement)
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
        """Closure for the binops codegen doesn't inline: division
        (panic-on-zero path) and float arithmetic."""
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
    # software TLB (see :mod:`repro.kernel.memory`): an intra-page scalar
    # access to a page it holds is one ``dict.get``, an offset check and
    # a shared ``struct`` codec at the page offset (a byte load indexes
    # the page), with no call of its own.  All else (a TLB miss, an MMIO
    # window, a page-straddling access) calls the site's miss closure:
    # the interpreter's path (one ``find``, the MMIO charge, the same
    # faults in the same order) plus a TLB fill.  An aggregate access (no
    # front end emits one) has no codec and always misses.

    def _probe(self, tlb: str, ptr, size: int, hit, miss: str,
               shared=()) -> str:
        """``hit(o)`` on the page ``p`` at offset ``o`` if ``ptr``'s page
        is in the TLB ``tlb`` (``RT`` or ``WT``) and the access stays
        inside it, else ``miss``.  A literal address has its page and
        offset folded.  Binds ``tlb`` and the ``shared`` codec names the
        hit uses."""
        shift, om = layout.PAGE_SHIFT, layout.PAGE_SIZE - 1
        last = layout.PAGE_SIZE - size
        lit = self._literal(ptr)
        if lit is not None and lit & om > last:
            return miss
        mem = self.engine.kernel.address_space
        self.ns[tlb] = mem.rtlb if tlb == "RT" else mem.wtlb
        for name in shared:
            self.ns[name] = _CODEC_NAMES[name]
        if lit is not None:
            return (f"{hit(lit & om)} if (p := {tlb}.get({lit >> shift}))"
                    f" is not None else {miss}")
        a = self._v(ptr)
        if size == 1:
            return (f"{hit(f'{a} & {om}')} if (p := {tlb}.get({a} >> {shift}))"
                    f" is not None else {miss}")
        return (f"{hit('o')} if (p := {tlb}.get({a} >> {shift})) is not None"
                f" and (o := {a} & {om}) <= {last} else {miss}")

    def _load(self, inst: Load) -> str:
        t = inst.type
        size = t.size_bytes()
        miss = (f"{self._bind('C', self._load_miss(inst))}"
                f"({self._v(inst.pointer)})")
        if isinstance(t, FloatType):
            codec = "UF4" if t.bits == 32 else "UF8"
        elif size == 1:
            return self._probe("RT", inst.pointer, 1, lambda o: f"p[{o}]",
                               miss)
        elif size in _INT_CODECS:
            codec = f"U{size}"
        else:
            return miss
        return self._probe("RT", inst.pointer, size,
                           lambda o: f"{codec}(p, {o})[0]", miss, (codec,))

    def _store(self, inst: Store) -> str:
        t = inst.value.type
        size = t.size_bytes()
        miss = (f"{self._bind('C', self._store_miss(inst))}"
                f"({self._args((inst.pointer, inst.value))})")
        v = self._v(inst.value)
        if isinstance(t, FloatType):
            if t.bits == 32:
                pack, x, shared = "PF4", f"RF({v})", ("PF4", "RF")
            else:
                pack, x, shared = "PF8", v, ("PF8",)
        elif size in _INT_CODECS:
            # A constant is already its type's bit pattern; an argument
            # may reach the VM unnormalized.
            pack, shared = f"P{size}", (f"P{size}",)
            lit = self._literal(inst.value)
            x = repr(lit) if lit is not None else f"{v} & {(1 << 8 * size) - 1}"
        else:
            return miss
        return self._probe("WT", inst.pointer, size,
                           lambda o: f"{pack}(p, {o}, {x})", miss, shared)

    def _load_miss(self, inst: Load):
        t = inst.type
        timing = self.timing
        mem = self.engine.kernel.address_space
        mrc = timing.machine.mmio_read_cycles if timing is not None else 0
        size = t.size_bytes()
        if isinstance(t, FloatType):
            codec = _F32 if t.bits == 32 else _F64

            def decode(b, _u=codec.unpack):
                return _u(b)[0]
        else:
            def decode(b):
                return int.from_bytes(b, "little")

        def miss(addr, _z=size, _t=timing, _f=mem.find, _mrc=mrc,
                 _rr=mem.ram.read, _fill=mem.tlb_fill, _dec=decode):
            m = _f(addr)
            if m is not None:
                dev = m.device
                if dev is not None and _t is not None:
                    _t.mmio_reads += 1
                    _t.cycles += _mrc
                if addr + _z <= m.base + m.size:
                    if dev is not None:
                        return _dec(dev.mmio_read(addr - m.base, _z)
                                    .to_bytes(_z, "little"))
                    data = _rr(m.phys_base + (addr - m.base), _z)
                    _fill(m, addr)
                    return _dec(data)
            raise MemoryFault(addr, _z, False, "no mapping")

        return miss

    def _store_miss(self, inst: Store):
        t = inst.value.type
        timing = self.timing
        mem = self.engine.kernel.address_space
        mwc = timing.machine.mmio_write_cycles if timing is not None else 0
        size = t.size_bytes()
        if isinstance(t, FloatType):
            codec = _F32 if t.bits == 32 else _F64
            conv = arith.round_f32 if t.bits == 32 else float

            def encode(value, _p=codec.pack, _c=conv):
                return _p(_c(value))
        else:
            def encode(value, _z=size, _k=(1 << (8 * size)) - 1):
                return (int(value) & _k).to_bytes(_z, "little")

        def miss(addr, value, _z=size, _t=timing, _f=mem.find, _mwc=mwc,
                 _enc=encode, _rw=mem.ram.write, _fill=mem.tlb_fill):
            m = _f(addr)
            if _t is not None and m is not None and m.device is not None:
                _t.mmio_writes += 1
                _t.cycles += _mwc
            data = _enc(value)
            if m is None or addr + _z > m.base + m.size:
                raise MemoryFault(addr, _z, True, "no mapping")
            if not m.writable:
                raise MemoryFault(addr, _z, True, f"{m.name} is read-only")
            if m.device is not None:
                m.device.mmio_write(addr - m.base, _z,
                                    int.from_bytes(data, "little"))
                return
            _rw(m.phys_base + (addr - m.base), data)
            _fill(m, addr)

        return miss

    # -- calls -------------------------------------------------------------

    def _emit_call(self, inst: Call, s: str) -> None:
        callee = inst.callee
        assign = "" if inst.type.is_void else f"{s} = "
        if inst.is_guard or callee.name == abi.GUARD_SYMBOL:
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
                    self._emit(4, f"{s} = 0")
                return
            if inst.is_guard:
                self._pend[_N] += 1
            else:
                self._charge(inst.opcode)
            self._flush()
            c = self._bind("C", self._guard_core(inst))
            self._emit(4, f"{assign}{c}({self._args(inst.args[:3])})")
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
            entry = eng._translation(module, callee).entry
            ns[name] = entry
            return entry(*args)

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
        ``add_guard``'s ``cycles += base + entry * n`` is replicated with
        the same float expression, so accounting stays bit-identical.
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
        callsite id baked in at translate time (no per-hit walk)."""
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
            gb = timing.machine.guard_base_cycles
            ge = timing.machine.guard_entry_cycles

            def core(a, s, f, _e=eng, _m=module, _imp=imports, _n=mname,
                     _g=gsym, _t=timing, _gb=gb, _ge=ge):
                sym = _imp.get(_g)
                if sym is None or sym.native is None:
                    return _e._dispatch_guard(_m, a, s, f)
                _e.guard_checks += 1
                n = int(sym.native(_e, a, s, f, _n) or 0)
                _t.cycles += _gb + _ge * n

            native = getattr(imports.get(gsym), "native", None)
            if getattr(native, "__func__", None) is _policy_guard():
                return self._guard_fast_core(native, core)
            return core
        machine = timing.machine if timing is not None else None
        site = (guard_site_id(mname, self.fn.name, ordinal)
                if tracer is not None else None)

        def core(a, s, f, _e=eng, _m=module, _imp=imports, _n=mname,
                 _g=gsym, _i=inst, _t=timing, _tr=tracer, _site=site,
                 _gb=machine.guard_base_cycles if machine else 0.0,
                 _ge=machine.guard_entry_cycles if machine else 0.0):
            sym = _imp.get(_g)
            if sym is None or sym.native is None:
                return _e._dispatch_guard(_m, a, s, f, _i)
            _e.guard_checks += 1
            n = int(sym.native(_e, a, s, f, _n) or 0)
            cost = 0.0
            if _t is not None:
                cost = _gb + _ge * n
                _t.cycles += cost
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
        machine = self.timing.machine

        def core(a, s, f, _e=self.engine, _imp=self.module.imports,
                 _g=abi.GUARD_SYMBOL, _t=self.timing,
                 _gb=machine.guard_base_cycles, _ge=machine.guard_entry_cycles,
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
                        _t.cycles += _gb + _ge * n
                        return
            return _slow(a, s, f)

        return core

    # -- terminators -------------------------------------------------------

    def _emit_terminator(self, inst, bi: int) -> None:
        """Charge the terminator, flush every pending charge and the
        block's executed count, then leave the arm."""
        self._charge(inst.opcode)
        self._flush()
        self._emit(4, self._count())
        kind = type(inst)
        if kind is Ret:
            self._emit(4, f"return {self._v(inst.value)}"
                       if inst.value is not None else "return")
            return
        if kind is Br:
            targets = [self.block_index[t] for t in inst.targets]
            if not inst.is_conditional:
                self._goto(bi, targets[0], 4)
                return
            c = self._v(inst.operands[0])
            t, f = targets
            if (t > bi and f > bi and not self._phi_copies(bi, t)
                    and not self._phi_copies(bi, f)):
                self._emit(4, f"b = {t} if {c} else {f}")
                return
            self._emit(4, f"if {c}:")
            self._goto(bi, t, 5)
            self._emit(4, "else:")
            self._goto(bi, f, 5)
            return
        assert kind is Switch
        # First matching case wins, like the interpreter's linear scan:
        # keep only the first target for duplicated case values.
        table: dict[int, int] = {}
        for cv_, target in inst.cases:
            table.setdefault(cv_, self.block_index[target])
        default = self.block_index[inst.default]
        tbl = self._bind("TBL", table)
        self._emit(4, f"b = {tbl}.get({self._v(inst.operands[0])}, {default})")
        targets = dict.fromkeys([*table.values(), default])
        for j in targets:
            copies = self._phi_copies(bi, j)
            if copies:
                self._emit(4, f"if b == {j}:")
                for line in copies:
                    self._emit(5, line)
        if min(targets) <= bi:
            self._emit(4, "continue")

    def _goto(self, bi: int, target: int, level: int) -> None:
        """Take the edge ``bi -> target``: phi copies, then ``b = target``
        (a forward edge falls through to the target's arm; a backward
        one restarts the arm chain)."""
        for line in self._phi_copies(bi, target):
            self._emit(level, line)
        self._emit(level, f"b = {target}")
        if target <= bi:
            self._emit(level, "continue")

    def _phi_copies(self, pred, target: int) -> list[str]:
        """The target's phis on the edge from block ``pred`` (None: the
        function entry), as one parallel assignment (phis read
        pre-transfer values) plus their instruction charge.  An edge some
        phi lacks raises the interpreter's ``KeyError``, after evaluating
        the phis before it."""
        pblock = None if pred is None else self.fn.blocks[pred]
        dests, srcs = [], []
        for inst in self.fn.blocks[target].instructions:
            if not isinstance(inst, Phi):
                break
            # First matching edge wins, like ``incoming_for``.
            src = next((v for v, b in inst.incoming if b is pblock), None)
            if src is None:
                msg = ("phi has no incoming edge from "
                       f"{None if pblock is None else pblock.name}")
                lines = [f"({', '.join(srcs)},)"] if srcs else []
                return lines + [f"raise KeyError({msg!r})"]
            dests.append(self.names[inst])
            srcs.append(self._v(src))
        if not dests:
            return []
        lines = [f"{', '.join(dests)} = {', '.join(srcs)}"]
        if self.timing is not None:
            lines.append(f"ti += {len(dests)}")
            self._used.add(_TI)
        return lines


__all__ = ["CompiledEngine", "TRANSLATION_CACHE"]
