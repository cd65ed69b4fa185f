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
#: regions; vblk on 4 CPUs with per-CPU queues).
SOURCE_DIGESTS = {
    ("e1000e", 0): "d97acd4762720047baf1366535ee2034edc2d7eed89cc1017bb8b473e9446930",
    ("e1000e", 1): "db6f4c5aeabb03096758dc8ebf123289db8187d760b28434866be374d5784082",
    ("e1000e", 2): "e3886ce21818df605ae14ca468fb152187144e2728d756beb71751c2a6921fa7",
    ("e1000e", 3): "7e327c1df57232640c148e56b91eb3fac588efb6b8227650e92026f028418d4b",
    ("vblk", 0): "7d21026735e1c9a2db6302f26002eff3f5a58fecd335ae197bb4a95d26dd8bb9",
    ("vblk", 1): "dc1a8a91465af16b2ab5b846385840a2f8f801915e56ba51997fa1ef1b09c21b",
    ("vblk", 2): "9b29905253e2cceaee94c93f440c9a5e17179e53366b09cdadf07e803ba57ce7",
    ("vblk", 3): "cf85242ed938cfca0c65df6fca5dc6b89e34236e085a58fb48c4b2296402bc81",
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
