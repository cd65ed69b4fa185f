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
    ("e1000e", 0): "d9b05f816803078af0818e6b8a54f11294a3e5c09aae8d609a62a7a5afbcf33f",
    ("e1000e", 1): "a8646260b12ad0fcdb2c19fabd5c2e75ab157fb12841be0c0ba91513c13eb8fa",
    ("e1000e", 2): "44270f9238451367be0704d9e5e5450fe6e184ade1a9ea53015744ef8ee09b6b",
    ("e1000e", 3): "217021a53dbe17544e94a7d01d62dd376ea9434425e1cc1430c8fc457c38fe7b",
    ("vblk", 0): "907829373ea3da2f5ca669e498e4fcaf1ea6be2d14c12994e0c5e666a6b741ef",
    ("vblk", 1): "707b0beb92479d03f89d538f9fac659f1b28c359b5ad06a08a24281069bda4ae",
    ("vblk", 2): "60c7cb705a75b54032f8fab8b061c06c7cd885d7d7c85408581c9c65cdb54fbb",
    ("vblk", 3): "680a2fdab1abcd4354bcd2f7c5b572c855944fb83a92291200dbc272d17d592c",
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
