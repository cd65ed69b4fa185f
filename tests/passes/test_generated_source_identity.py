"""The compiled engine's generated source is byte-identical.

The generated Python source of each driver function is the key of the
process-global translation cache and the input of its ``compile()``,
so these digests pin both what the cache stores and what a cold build
pays for.  A change that only touches the engine's per-site closures
(the load/store miss paths, the guard probe) must keep every digest; a
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
#: regions; vblk on 4 CPUs with per-CPU queues): each function's first
#: translation, then its hot one (leaves inlined).
SOURCE_DIGESTS = {
    ("e1000e", 0): "9437a54e47aa51d11a2d3b1a3213dcbb84a33327f58b68223d759ba3422e1589",
    ("e1000e", 1): "3e60531e8394684c1ac8d8dee87823d619c1b66905866be7bfd9320ab2240c42",
    ("e1000e", 2): "20dc3cacf2d562cdc7560425f0892d5ec42848c2857ea25ece30f4f11f5730b5",
    ("e1000e", 3): "c76aa25c394f573cc57070f4e32890a4ec77f54af7e79f8a37c464ebeefb5ad6",
    ("vblk", 0): "fb631b9517bee8d8ed7a6313def0766523e563fb508ca20ec6426dac9d04770f",
    ("vblk", 1): "0ec0b5aeba393a1c5fc5752729ab745c862d7003906e38a68c3d0398de0cca21",
    ("vblk", 2): "acae32a58d4e85e5535a5c5a7f1b48294b9402027a8fd8877171c1acd78f9a41",
    ("vblk", 3): "17cd1c07fc267ad22283e76a8736b68f3515c09c9aff5b2a6df57533dda4e780",
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
                for inline in (False, True):
                    compiled._Translator(engine, module, fn,
                                         inline=inline).translate(
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
