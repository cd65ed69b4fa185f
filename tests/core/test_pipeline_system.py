"""Core orchestration tests: the caratcc pipeline and system assembly."""

import pytest

from repro.core.pipeline import CompileOptions, CompileStats, compile_module
from repro.core.system import CaratKopSystem, SystemConfig
from repro.e1000e import DRIVER_SOURCE

SRC = """
long table[8];
__export long f(long i) { table[i] = i; return table[i]; }
"""


class TestPipeline:
    def test_protected_by_default(self):
        compiled = compile_module(SRC, CompileOptions(module_name="p"))
        assert compiled.is_protected
        assert compiled.guard_count > 0

    def test_baseline_build(self):
        compiled = compile_module(
            SRC, CompileOptions(module_name="p", protect=False)
        )
        assert not compiled.is_protected
        assert compiled.guard_count == 0

    def test_stats_populated(self):
        compiled = compile_module(SRC, CompileOptions(module_name="p"))
        st = compiled.stats
        assert isinstance(st, CompileStats)
        assert st.source_lines == 2  # two non-blank source lines
        assert st.functions == 1
        assert st.loads >= 1 and st.stores >= 1
        assert st.guards == st.loads + st.stores
        assert st.code_growth > 1.0
        assert "kop-guard" in st.passes_run
        assert "mem2reg" in st.passes_run

    def test_signing_optional(self, key):
        unsigned = compile_module(SRC, CompileOptions(module_name="p"))
        assert unsigned.signature is None
        signed = compile_module(SRC, CompileOptions(module_name="p", key=key))
        assert signed.signature is not None
        assert signed.signature.guard_count == signed.guard_count

    def test_guard_optimizer_reduces_static_guards(self):
        src = """
        __export long f(long *p, long n) {
            long s = 0;
            for (long i = 0; i < n; i++) { s += *p + *p; }
            return s;
        }
        """
        plain = compile_module(src, CompileOptions(module_name="a"))
        opt = compile_module(
            src, CompileOptions(module_name="b", opt_level=1)
        )
        assert opt.guard_count < plain.guard_count

    def test_options_and_kwargs_exclusive(self):
        with pytest.raises(TypeError):
            compile_module(SRC, CompileOptions(), module_name="x")

    def test_kwargs_shorthand(self):
        compiled = compile_module(SRC, module_name="kw", protect=False)
        assert compiled.name == "kw"

    def test_driver_compiles_both_ways(self):
        base = compile_module(
            DRIVER_SOURCE, CompileOptions(module_name="e1000e", protect=False)
        )
        carat = compile_module(
            DRIVER_SOURCE, CompileOptions(module_name="e1000e", protect=True)
        )
        assert base.guard_count == 0
        assert carat.guard_count >= 40
        # Guard injection grows the instruction count but by a bounded
        # factor (each guard is a call + at most one cast).
        assert 1.0 < carat.stats.code_growth < 2.5


class TestSystemAssembly:
    def test_boot_produces_working_stack(self):
        sys_ = CaratKopSystem(SystemConfig(machine="r350"))
        assert sys_.technique == "carat"
        assert sys_.kernel.lsmod() == ["e1000e"]
        result = sys_.blast(size=128, count=10)
        assert result.errors == 0
        assert sys_.guard_stats()["checks"] > 0

    def test_machine_accepts_model_instance(self):
        from repro.vm import r415

        sys_ = CaratKopSystem(SystemConfig(machine=r415()))
        assert "R415" in sys_.machine.name

    def test_custom_policy_index(self):
        from repro.policy import SortedRegionIndex

        sys_ = CaratKopSystem(
            SystemConfig(machine=None, policy_index=SortedRegionIndex())
        )
        sys_.blast(size=128, count=5)
        assert sys_.policy.index.name == "sorted-bsearch"
        assert sys_.guard_stats()["checks"] > 0

    def test_strict_kernel_validates_driver(self):
        sys_ = CaratKopSystem(SystemConfig(machine=None, strict_kernel=True))
        assert sys_.driver_compiled.signature is not None

    def test_region_sweep_config(self):
        sys_ = CaratKopSystem(SystemConfig(machine=None, regions=16))
        assert sys_.policy_manager.count() == 16
        sys_.blast(size=128, count=5)  # still runs clean

    def test_teardown(self):
        sys_ = CaratKopSystem(SystemConfig(machine=None))
        sys_.blast(size=128, count=3)
        sys_.teardown()
        assert sys_.kernel.lsmod() == []

    def test_config_and_kwargs_exclusive(self):
        with pytest.raises(TypeError):
            CaratKopSystem(SystemConfig(), machine=None)
