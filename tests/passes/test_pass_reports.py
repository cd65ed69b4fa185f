"""Pass reports are trustworthy.

The pass manager re-verifies only the functions a pass reports it
changed (``changed_functions``), so every pass must name each function
whose printed text it changed.  These tests snoop on every pass of the
real pipelines (both drivers at -O0..-O3, and the program bank) and
compare the report with a before/after print of each function.  A pass
that corrupts a function it reports is caught at that pass, by name.
"""

import pytest

from repro.core.pipeline import CompileOptions, compile_module
from repro.core.system import CaratKopSystem, SystemConfig
from repro.ir import Module, VerificationError, print_function, verify_module
from repro.minicc import compile_source
from repro.passes import DCEPass, Mem2RegPass, PassManager, PeepholePass

STACKS = {
    "e1000e": dict(driver="e1000e"),
    "vblk": dict(driver="vblk", cpus=4, queues="auto"),
}


class _Snoop:
    """Wraps a pass; records what it changed against what it reported."""

    def __init__(self, inner, records):
        self.inner = inner
        self.name = inner.name
        self.records = records

    @property
    def changed_functions(self):
        return self.inner.changed_functions

    def run(self, module: Module) -> bool:
        before = {fn.name: print_function(fn) for fn in module.defined_functions()}
        did = self.inner.run(module)
        changed = {
            fn.name for fn in module.defined_functions()
            if before.get(fn.name) != print_function(fn)
        }
        reported = {fn.name for fn in self.inner.changed_functions}
        self.records.append((self.name, did, changed, reported))
        return did


@pytest.fixture()
def snooped(monkeypatch):
    """Every PassManager run in the test goes through :class:`_Snoop`."""
    records: list = []
    run = PassManager.run

    def snooping_run(self, module):
        self.passes = [_Snoop(p, records) for p in self.passes]
        return run(self, module)

    monkeypatch.setattr(PassManager, "run", snooping_run)
    return records


def _check(records):
    assert records, "no pass ran"
    for name, did, changed, reported in records:
        missing = changed - reported
        assert not missing, f"{name} changed {sorted(missing)} unreported"
        if changed:
            assert did, f"{name} changed IR but returned False"
        if not did:
            assert not reported, f"{name} reported changes but returned False"


@pytest.mark.parametrize("opt_level", [0, 1, 2, 3])
@pytest.mark.parametrize("driver", sorted(STACKS))
def test_driver_pipelines_report_every_change(snooped, driver, opt_level):
    CaratKopSystem(SystemConfig(
        machine="r415", opt_level=opt_level, policy_index="interval",
        regions=64, **STACKS[driver],
    ))
    _check(snooped)
    # The pipeline changes something at every level, so this test
    # really compares reports (mem2reg and the guard pass always run).
    assert any(changed for _, _, changed, _ in snooped)


@pytest.mark.parametrize("options", [
    dict(protect=False),
    dict(protect=True),
    dict(protect=True, opt_level=2, guard_intrinsics=True, guard_calls=True),
])
def test_program_bank_reports_every_change(snooped, program_bank, options):
    for i, (source, _) in enumerate(program_bank):
        compile_module(source, CompileOptions(module_name=f"bank{i}", **options))
    _check(snooped)


class _DropTerminator:
    """A broken pass: removes the terminator of one function's entry."""

    name = "drop-terminator"

    def __init__(self, victim: str, report: bool = True):
        self.victim = victim
        self.report = report
        self.changed_functions = []

    def run(self, module: Module) -> bool:
        fn = module.get_function(self.victim)
        fn.entry.instructions.pop()
        self.changed_functions = [fn] if self.report else []
        return True


SOURCE = """
__export long first(long a) { long b = a + 1; return b * 2; }
__export long second(long a) { if (a) { return 1; } return 2; }
"""


def test_corruption_is_caught_at_the_pass_that_made_it():
    m = compile_source(SOURCE, "m")
    pm = PassManager([Mem2RegPass(), _DropTerminator("second"),
                      PeepholePass(), DCEPass()])
    with pytest.raises(VerificationError) as info:
        pm.run(m)
    message = str(info.value)
    assert "pass drop-terminator" in message
    assert "@second" in message
    assert "lacks a terminator" in message
    assert "@first" not in message
    # Caught at the pass: the later passes never ran.
    assert [name for name, _ in pm.log] == ["mem2reg", "drop-terminator"]


def test_unreported_corruption_is_still_caught_at_the_trust_boundary():
    """A pass that lies about its changes escapes the manager's check,
    but not the whole-module verify that insmod runs."""
    m = compile_source(SOURCE, "m")
    PassManager([Mem2RegPass(), _DropTerminator("first", report=False)]).run(m)
    with pytest.raises(VerificationError, match="@first"):
        verify_module(m)


def test_unchanged_pass_costs_no_verification(monkeypatch):
    from repro.passes import manager

    verified: list = []
    real = manager.verify_functions

    def counting(fns, module=None):
        verified.append([fn.name for fn in fns])
        return real(fns, module)

    monkeypatch.setattr(manager, "verify_functions", counting)
    m = compile_source(SOURCE, "m")
    PassManager([Mem2RegPass(), DCEPass()]).run(m)
    # mem2reg changed both functions; a second DCE sweep finds nothing.
    verified.clear()
    pm = PassManager([DCEPass()])
    assert pm.run(m) is False
    assert verified == []
