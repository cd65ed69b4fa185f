"""The guard tier is at its fixpoint: a second ``GuardOptPass(level)``
over the pass's own output reports no change, counts nothing and leaves
the printed IR identical.

Covered: both drivers, every ``__export`` program of the guard-opt pass
tests, and the hand-built conditional-entry loop, at ``-O1`` and ``-O2``.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from repro.e1000e.driver_source import DRIVER_SOURCE as E1000E_SOURCE
from repro.ir.printer import print_module
from repro.minicc import compile_source
from repro.passes import (
    AttestationPass,
    DCEPass,
    GuardInjectionPass,
    GuardOptPass,
    Mem2RegPass,
    PassManager,
    PeepholePass,
)
from repro.vblk.driver_source import DRIVER_SOURCE as VBLK_SOURCE

HERE = Path(__file__).parent
PASS_TESTS = ("test_guard_opt.py", "test_guard_coalesce.py",
              "test_guard_opt_preheader.py")


def _export_programs() -> dict[str, str]:
    """Every mini-C program (a string naming ``__export``) in the pass
    tests, keyed ``file:line``."""
    programs = {}
    for name in PASS_TESTS:
        for node in ast.walk(ast.parse((HERE / name).read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "__export" in node.value):
                programs[f"{name[:-3]}:{node.lineno}"] = node.value
    return programs


PROGRAMS = {"e1000e": E1000E_SOURCE, "vblk": VBLK_SOURCE, **_export_programs()}


def _conditional_entry_loop():
    path = HERE / "test_guard_opt_preheader.py"
    spec = importlib.util.spec_from_file_location("_preheader", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_conditional_entry_loop()


def _guarded(name: str):
    if name == "conditional-entry-loop":
        m = _conditional_entry_loop()
        PassManager([AttestationPass(), GuardInjectionPass()]).run(m)
        return m
    m = compile_source(PROGRAMS[name], "fixpoint")
    PassManager([Mem2RegPass(), PeepholePass(), DCEPass(), AttestationPass(),
                 GuardInjectionPass()]).run(m)
    return m


def test_every_pass_test_program_is_covered():
    assert len(PROGRAMS) == 2 + 16


@pytest.mark.parametrize("level", (1, 2))
@pytest.mark.parametrize("name", [*PROGRAMS, "conditional-entry-loop"])
def test_second_run_is_a_no_op(name, level):
    m = _guarded(name)
    GuardOptPass(level).run(m)
    text = print_module(m)
    again = GuardOptPass(level)
    assert again.run(m) is False
    assert again.changed_functions == []
    assert (again.guards_removed, again.guards_hoisted,
            again.guards_coalesced) == (0, 0, 0)
    assert print_module(m) == text
