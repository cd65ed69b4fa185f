"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.core.pipeline import CompileOptions, compile_module
from repro.kernel import Kernel
from repro.policy import CaratPolicyModule, PolicyManager
from repro.signing import SigningKey


@pytest.fixture(scope="session")
def program_bank() -> list:
    """The engine-differential program bank (``PROGRAMS`` of
    ``tests/vm/test_compiled_vs_interp.py``): ``[(source, calls)]``."""
    path = Path(__file__).parent / "vm" / "test_compiled_vs_interp.py"
    spec = importlib.util.spec_from_file_location("_program_bank", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PROGRAMS


@pytest.fixture(scope="session")
def key() -> SigningKey:
    return SigningKey.generate("test-key")


@pytest.fixture()
def kernel() -> Kernel:
    """A plain booted kernel (no machine model, no signature requirement)."""
    return Kernel()


@pytest.fixture()
def protected_kernel(key) -> Kernel:
    """A kernel that validates signatures and requires protected modules."""
    return Kernel(signing_key=key, require_protected_modules=True)


@pytest.fixture()
def policy_kernel(kernel) -> tuple[Kernel, CaratPolicyModule, PolicyManager]:
    """Kernel + installed policy module + manager, default-deny policy."""
    policy = CaratPolicyModule(kernel).install()
    manager = PolicyManager(kernel)
    return kernel, policy, manager


def compile_c(source: str, name: str = "testmod", *, protect: bool = True,
              key: SigningKey | None = None, **kw):
    """Convenience compile used across test modules."""
    return compile_module(
        source,
        CompileOptions(module_name=name, protect=protect, key=key, **kw),
    )


@pytest.fixture()
def run_c(kernel):
    """Compile a mini-C snippet (unprotected), load it, and call functions.

    Returns ``call(fn_name, *args)``; the module is compiled once per
    source text.
    """
    cache: dict[str, object] = {}

    def runner(source: str, fn: str, *args, signed_bits: int = 64):
        loaded = cache.get(source)
        if loaded is None:
            compiled = compile_c(source, name=f"testmod{len(cache)}",
                                 protect=False)
            loaded = kernel.insmod(compiled)
            cache[source] = loaded
        out = kernel.run_function(loaded, fn, list(args))
        if signed_bits and isinstance(out, int) and out >= 1 << (signed_bits - 1):
            out -= 1 << signed_bits
        return out

    return runner
