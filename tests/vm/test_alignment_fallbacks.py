"""No integer access of the end-to-end workloads falls back for alignment.

A compiled integer load or store indexes the page view of its width, so
it is served inline only at an aligned address; an unaligned access to
RAM takes its site's miss closure (a ``find``, a range-checked read or
write and a TLB fill) every time.  The drivers' fields, descriptors and
stack slots are naturally aligned, so after warm-up none of the four
e2e workloads (``benchmarks/e2e/workloads.py``) makes such an access.
This counts them by wrapping every miss closure the engine builds.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.ir.types import FloatType
from repro.vm import compiled

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
WARMUP = 100
OPS = 300


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(E2E))
    try:
        import workloads
    finally:
        sys.path.remove(str(E2E))
    return workloads


def counting(make, fallbacks: list):
    """``make`` (a ``_Translator`` miss-closure factory) with each integer
    closure wrapped to record an unaligned address that a RAM mapping
    serves."""

    def wrapped(self, t):
        miss = make(self, t)
        size = t.size_bytes()
        if isinstance(t, FloatType) or size == 1:
            return miss
        find = self.engine.kernel.address_space.find

        def counted(addr, *rest):
            if addr & (size - 1):
                m = find(addr)
                if m is not None and m.device is None:
                    fallbacks.append((size, addr))
            return miss(addr, *rest)

        return counted

    return wrapped


@pytest.mark.parametrize("name", ["net-faithful", "net-verified",
                                  "net-churn", "blk-mq"])
def test_no_alignment_fallbacks_after_warm_up(name, workloads, monkeypatch):
    fallbacks: list = []
    for factory in ("_load_miss", "_store_miss"):
        monkeypatch.setattr(compiled._Translator, factory, counting(
            getattr(compiled._Translator, factory), fallbacks))
    load = workloads.make_load(name, 1)
    load.setup()
    load.run_ops(WARMUP)
    del fallbacks[:]
    load.run_ops(OPS)
    assert load.failures() == []
    assert fallbacks == []
