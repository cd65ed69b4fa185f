"""VM: the IR execution engines and testbed machine cost models."""

from .compiled import CompiledEngine
from .interp import GuardViolation, Interpreter, InterpreterError
from .machine import MACHINES, MachineModel, get_machine, r350, r415
from .timing import CycleCounter

#: Selectable execution engines.  ``interp`` is the reference
#: tree-walking interpreter; ``compiled`` translates each function once
#: into specialized closures and produces bit-identical results.
ENGINES = {
    "interp": Interpreter,
    "compiled": CompiledEngine,
}

DEFAULT_ENGINE = "compiled"


def make_engine(name: str, kernel, machine=None):
    """Construct the named execution engine for ``kernel``."""
    try:
        cls = ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; have {sorted(ENGINES)}"
        ) from None
    return cls(kernel, machine=machine)


__all__ = [
    "CompiledEngine",
    "CycleCounter",
    "DEFAULT_ENGINE",
    "ENGINES",
    "GuardViolation",
    "Interpreter",
    "InterpreterError",
    "MACHINES",
    "MachineModel",
    "get_machine",
    "make_engine",
    "r350",
    "r415",
]
