"""The compiled engine's generated source is byte-identical.

The generated Python source of each driver function is the key of the
process-global translation cache and the input of its ``compile()``,
so these digests pin both what the cache stores and what a cold build
pays for.  A change that only touches the engine's per-site closures
(the load/store fast paths, the guard probe) must keep every digest; a
digest that moves on purpose is re-pinned in the same change, with the
reason in CHANGES.md.
"""

import hashlib

import pytest

from repro.core.system import CaratKopSystem, SystemConfig
from repro.vm import compiled

#: sha256 over ``name NUL source NUL`` of every defined driver function,
#: in IR order, translated by a fresh compiled engine on the same
#: systems ``test_build_identity`` pins (r415, interval index, 64
#: regions; vblk on 4 CPUs with per-CPU queues).
SOURCE_DIGESTS = {
    ("e1000e", 0): "31ced2e4870027c07aaf8c8647ac02a978c572ba223192bb57c7e4710cc879c5",
    ("e1000e", 1): "ac511bc4fcd4b83aa3ecff6ce7d43e51fbbedc1a0ca6e5915e7a431102c28d89",
    ("e1000e", 2): "03acd62caaf3ca7b4834a233dd26578a3284caf1b14c31ce0ff42d7458c0f9fb",
    ("e1000e", 3): "bc6d61053dc17473cc0a33207d15783eda7081021b1d477aef9041d2cd02cdae",
    ("vblk", 0): "73f539a0ebaeb2d66b3e439cf19bdbe7dac722c8949ebd4db85dcb54a4f8fdea",
    ("vblk", 1): "80f733b16066d1564e23c569e410517e63e043f873d15a7319bea7b0684ffd05",
    ("vblk", 2): "0641f6432a96eee4c844270b552daf0224b6cf36921840a9dbd056a7611ef7e9",
    ("vblk", 3): "e8787fe5f9b29e41f14950991db217bcd16d712b1e03fb74ace60e226cc106e2",
}

STACKS = {
    "e1000e": dict(driver="e1000e"),
    "vblk": dict(driver="vblk", cpus=4, queues="auto"),
}


class _RecordingCache(compiled._SharedCodeCache):
    """A private code cache that records every source it is asked for."""

    def __init__(self):
        super().__init__()
        self.sources: list[tuple[str, str]] = []

    def fetch(self, filename: str, src: str):
        self.sources.append((filename, src))
        return super().fetch(filename, src)


def generated_source_digest(driver: str, opt_level: int) -> str:
    system = CaratKopSystem(SystemConfig(
        machine="r415", opt_level=opt_level, policy_index="interval",
        regions=64, engine="compiled", **STACKS[driver],
    ))
    engine = system.kernel.vm
    module = system.driver
    recorder = _RecordingCache()
    shared, compiled.TRANSLATION_CACHE = compiled.TRANSLATION_CACHE, recorder
    try:
        for fn in module.ir.functions.values():
            if not fn.is_declaration:
                compiled._Translator(engine, module, fn).translate(
                    module.ir.generation)
    finally:
        compiled.TRANSLATION_CACHE = shared
    h = hashlib.sha256()
    for filename, src in recorder.sources:
        h.update(filename.encode() + b"\0" + src.encode() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("driver, opt_level", sorted(SOURCE_DIGESTS))
def test_generated_source_digest(driver, opt_level):
    assert generated_source_digest(driver, opt_level) == \
        SOURCE_DIGESTS[driver, opt_level]
