"""The build is byte-identical: pinned digests of every build stage.

The canonical print is what a module's signature covers, so these
digests pin the whole build path (lexer, parser, code generation,
mem2reg, the optimisation and guard passes, the printer).  A change to
any stage that is meant to be a pure speed-up must keep every digest.
A digest that moves on purpose is re-pinned in the same change, with
the reason in CHANGES.md.
"""

import hashlib

import pytest

from repro.core.pipeline import CompileOptions, compile_module
from repro.core.system import CaratKopSystem, SystemConfig
from repro.e1000e.driver_source import DRIVER_SOURCE as E1000E_SOURCE
from repro.minicc.lexer import tokenize
from repro.signing import canonical_bytes
from repro.vblk.driver_source import DRIVER_SOURCE as VBLK_SOURCE

#: sha256(canonical_bytes(ir)) of each driver build (r415, interval
#: index, 64 regions; vblk on 4 CPUs with per-CPU queues).
DRIVER_DIGESTS = {
    ("e1000e", 0): "54db91b740ff97dc9fe32effbfa5cf112e48e8d44dfee2db21d4c8f29e980003",
    ("e1000e", 1): "89c28316babac66c2d94c6decf7915851188dc64c1fefef82f5dfa9720786dc7",
    ("e1000e", 2): "ce0b3402c6ba96cab87e0b3ba2a3e6ada546430da4846bf538f1b1cf392ba2ca",
    ("e1000e", 3): "4af2f9aae68a1f969acec1ce12ab05bb382441dc80c499cb8073b66874d8445d",
    ("vblk", 0): "23354985391857ea1ae876cd2a3e7d9cf1d142558354313b03312fb4499e0ad8",
    ("vblk", 1): "4a56c86bbb1279ecec6f2c3c05277c37b46f20997c519d40bcae9af76089453e",
    ("vblk", 2): "7f0f5d44ff95f8e85ac28d5110c2dfabaf9e1e05e1c6d9e015c6298713bfbcde",
    ("vblk", 3): "abdb4ffcc3dfa5b34a4eaf4528967c8182c7aa9c6614b6f16a4f52ca6db7ee28",
}

#: The same digest for each program-bank entry after the default
#: pipeline (``compile_module`` with default options).
BANK_DIGESTS = [
    "3b45f0971ae4b624215cbce56d65b5000f75e42d1eb38b9caaa646f3b08e2b69",
    "891c51f8694e039778ae3f278b97b1ce2a3d86b3a696e476b7f7df0b0ba06cfb",
    "f97d14acb1fce5c1567451dfb176e058b06ad2e2bc352b3a8e2d0fb79a25cd31",
    "a8090ae19a1a3813e1b9a69e4f785157a0e55d8b7bb4f82cd1b024d810963691",
    "4e4b94d53f11f45cf883df5ae29a2fd173b0c3ef050934de9000e27d0f189968",
]

#: One digest of each driver's ``(kind, text, value, line, col)`` stream.
TOKEN_DIGESTS = {
    "e1000e": "7e466db04a3d61d934642d445b49a7cf6d9e70aedfb471872100d6f23a584444",
    "vblk": "2f36d1ab40dde34f4ac315d85e0037d563b60752d3921a3845a268190fb90b01",
}

STACKS = {
    "e1000e": dict(driver="e1000e"),
    "vblk": dict(driver="vblk", cpus=4, queues="auto"),
}


def _digest(ir) -> str:
    return hashlib.sha256(canonical_bytes(ir)).hexdigest()


@pytest.mark.parametrize("driver, opt_level", sorted(DRIVER_DIGESTS))
def test_driver_build_digest(driver, opt_level):
    system = CaratKopSystem(SystemConfig(
        machine="r415", opt_level=opt_level, policy_index="interval",
        regions=64, **STACKS[driver],
    ))
    compiled = system.driver_compiled
    digest = _digest(compiled.ir)
    assert digest == DRIVER_DIGESTS[driver, opt_level]
    # The signature covers exactly the pinned bytes.
    assert compiled.signature.digest == digest


def test_program_bank_digests(program_bank):
    assert len(program_bank) == len(BANK_DIGESTS)
    for i, (source, _) in enumerate(program_bank):
        ir = compile_module(source, CompileOptions(module_name=f"bank{i}")).ir
        assert _digest(ir) == BANK_DIGESTS[i], f"bank entry {i}"


@pytest.mark.parametrize("driver", sorted(TOKEN_DIGESTS))
def test_token_stream_digest(driver):
    source = {"e1000e": E1000E_SOURCE, "vblk": VBLK_SOURCE}[driver]
    h = hashlib.sha256()
    for t in tokenize(source):
        h.update(repr((t.kind, t.text, t.value, t.line, t.col)).encode())
    assert h.hexdigest() == TOKEN_DIGESTS[driver]
