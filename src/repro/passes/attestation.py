"""Attestation scan: record compilation facts the signer certifies.

Paper §2: "The signature also is in effect an assertion, by the
compilation process, that the code it compiled does not include any
problematic elements such as inline or separate assembly."  This pass
performs that scan and stamps the result into module metadata; the signer
(:mod:`repro.signing`) covers the metadata, and the kernel loader refuses
modules whose attestation is missing or bad.
"""

from __future__ import annotations

from .. import abi
from ..ir import Module
from ..ir.instructions import InlineAsm


class AttestationPass:
    name = "kop-attest"
    changed_functions: tuple = ()  # analysis only; never changes code

    def run(self, module: Module) -> bool:
        has_asm = any(
            isinstance(inst, InlineAsm)
            for fn in module.defined_functions()
            for inst in fn.instructions()
        )
        module.metadata[abi.META_HAS_ASM] = has_asm
        module.metadata[abi.META_COMPILER] = abi.COMPILER_ID
        return False


__all__ = ["AttestationPass"]
