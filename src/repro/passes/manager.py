"""Pass manager: ordered application of module passes with verification.

Mirrors the paper's setup where the CARAT KOP transform is "a compiler
pass that lives within the LLVM framework ... invoked by a script that
wraps the underlying clang compiler" (§3.3).  Each pass is a callable
object; the manager runs them in order and, after every pass, verifies
each function that pass reports it changed, which is how the compiler
"certifies" its own output before signing.  The whole module is
verified where the IR enters the pipeline (``compile_module``) and again
at insmod, the kernel's trust boundary.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence

from ..ir import Function, Module, VerificationError, verify_functions


class ModulePass(Protocol):
    """A transformation or analysis over a whole module.

    The contract: ``run`` returns True iff it changed the IR, and
    ``changed_functions`` then names every function whose printed text
    it changed.  Those are the only functions re-verified, so a pass
    that changes the module's symbols must also report every function
    that refers to them."""

    name: str
    changed_functions: Sequence[Function]

    def run(self, module: Module) -> bool:
        """Apply to ``module``; return True if the IR was changed."""
        ...


class PassManager:
    """Runs a pipeline of module passes, verifying what each changed."""

    def __init__(self, passes: Iterable[ModulePass] = ()):
        self.passes: list[ModulePass] = list(passes)
        self.log: list[tuple[str, bool]] = []

    def add(self, p: ModulePass) -> "PassManager":
        self.passes.append(p)
        return self

    def run(self, module: Module) -> bool:
        """Run all passes in order; returns True if anything changed.

        A :class:`VerificationError` names the pass that broke the IR."""
        changed = False
        self.log.clear()
        for p in self.passes:
            did = p.run(module)
            self.log.append((p.name, did))
            if not did:
                continue
            changed = True
            module.bump_generation()
            try:
                verify_functions(p.changed_functions, module)
            except VerificationError as e:
                raise VerificationError(
                    [f"pass {p.name}: {msg}" for msg in e.errors]
                ) from None
        return changed


__all__ = ["ModulePass", "PassManager"]
