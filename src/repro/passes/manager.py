"""Pass manager: ordered application of module passes with verification.

Mirrors the paper's setup where the CARAT KOP transform is "a compiler
pass that lives within the LLVM framework ... invoked by a script that
wraps the underlying clang compiler" (§3.3).  Each pass is a callable
object; the manager runs them in order and verifies the module after
every one, which is how the compiler "certifies" its own output before
signing.
"""

from __future__ import annotations

from typing import Iterable, Protocol

from ..ir import Module, verify_module


class ModulePass(Protocol):
    """A transformation or analysis over a whole module."""

    name: str

    def run(self, module: Module) -> bool:
        """Apply to ``module``; return True if the IR was changed."""
        ...


class PassManager:
    """Runs a pipeline of module passes, verifying in between."""

    def __init__(self, passes: Iterable[ModulePass] = ()):
        self.passes: list[ModulePass] = list(passes)
        self.log: list[tuple[str, bool]] = []

    def add(self, p: ModulePass) -> "PassManager":
        self.passes.append(p)
        return self

    def run(self, module: Module) -> bool:
        """Run all passes in order; returns True if anything changed."""
        changed = False
        self.log.clear()
        for p in self.passes:
            did = p.run(module)
            self.log.append((p.name, did))
            changed |= did
            if did:
                module.bump_generation()
            verify_module(module)
        return changed


__all__ = ["ModulePass", "PassManager"]
