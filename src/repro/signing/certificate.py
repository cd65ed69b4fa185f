"""Verification certificates: the static-verifier analogue of a signature.

A certificate records what the load-time verifier (`repro.passes.absint`)
proved about a module *against a specific policy table and contract set*:
per-guard-site verdict bits, the policy digest/epoch the verdicts were
computed under, the digest of the trusted contracts used, and the proof
itself — the final argument, return and field summaries of the
compiler's fixpoint plus its ``havoc_fields`` flag.  It travels
alongside the HMAC signature in :class:`CompiledModule`.

The kernel never trusts a certificate by itself.  At insmod it checks
that the certificate's IR digest matches the module being loaded, that
the policy digest matches the *live* table, that the contract digest
matches the kernel's registered contracts — and then checks the proof:
one round of the analysis from the claimed summaries must change none of
them, and the verdicts that round yields must equal the shipped ones
(proof-carrying code: checking a proof is cheaper than finding it).  A
certificate can therefore only ever *lose* elisions (stale/tampered →
demoted to full dynamic guarding, or rejected under
``--verify-policy strict``); it can never smuggle an unsound one in.

:meth:`VerificationCertificate.payload` is the canonical text form and
:meth:`VerificationCertificate.parse` reads it back, so serialising,
parsing and serialising again gives the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass


class CertificateError(ValueError):
    """Certificate stale, mismatched, or failing re-verification."""


def _av_text(av: tuple) -> str:
    """An abstract value as ``lo:hi`` hex atoms joined by ``,``; ``-``
    for the empty value."""
    return ",".join(f"{lo:x}:{hi:x}" for lo, hi in av) or "-"


def _av_parse(text: str) -> tuple:
    if text == "-":
        return ()
    atoms = []
    for atom in text.split(","):
        lo, hi = atom.split(":")
        atoms.append((int(lo, 16), int(hi, 16)))
    return tuple(atoms)


@dataclass(frozen=True)
class VerificationCertificate:
    """Per-guard static verdicts bound to (IR, policy, contracts), plus
    the summaries that prove them."""

    module_name: str
    #: sha256 of the module's canonical IR bytes (same serialization the
    #: HMAC signature covers).
    ir_digest: str
    #: Content digest + epoch of the policy table verdicts were computed
    #: against.  The digest detects a *different* table; the epoch
    #: additionally detects same-content tables republished after
    #: intervening mutations (insmod refuses either).
    policy_digest: str
    policy_epoch: int
    #: Digest of the trusted contract set the analysis consumed.
    contracts_digest: str
    #: ``(function_name, verdict_bits)`` per defined function, guard
    #: sites in block order — the same ordinal scheme the execution
    #: engines use for guard site IDs.
    verdicts: tuple[tuple[str, tuple[int, ...]], ...]
    guards_proven: int = 0
    guards_dynamic: int = 0
    #: The claimed summaries, in the shape of
    #: :class:`repro.passes.absint.VerificationReport`'s fields.
    arg_summaries: tuple[tuple[str, tuple[tuple, ...]], ...] = ()
    ret_summaries: tuple[tuple[str, tuple], ...] = ()
    field_facts: tuple[tuple[str, int, int, tuple], ...] = ()
    havoc_fields: bool = False

    def payload(self) -> bytes:
        lines = [
            f"module={self.module_name}",
            f"ir={self.ir_digest}",
            f"policy={self.policy_digest}@{self.policy_epoch}",
            f"contracts={self.contracts_digest}",
        ]
        for fn, bits in self.verdicts:
            lines.append(f"verdict {fn} {''.join(map(str, bits)) or '-'}")
        for fn, args in self.arg_summaries:
            lines.append(" ".join(["args", fn, *map(_av_text, args)]))
        for fn, av in self.ret_summaries:
            lines.append(f"ret {fn} {_av_text(av)}")
        for glob, offset, size, av in self.field_facts:
            lines.append(f"field {glob} {offset} {size} {_av_text(av)}")
        lines.append(f"havoc={int(self.havoc_fields)}")
        return "\n".join(lines).encode()

    @classmethod
    def parse(cls, data: bytes) -> "VerificationCertificate":
        """Read a :meth:`payload` back; raises :class:`CertificateError`
        on malformed input."""
        try:
            lines = data.decode().split("\n")
            head = dict(line.split("=", 1) for line in lines[:4])
            policy_digest, epoch = head["policy"].rsplit("@", 1)
            if lines[-1] not in ("havoc=0", "havoc=1"):
                raise ValueError("missing havoc line")
            verdicts, args, rets, fields = [], [], [], []
            for line in lines[4:-1]:
                kind, name, *rest = line.split(" ")
                if kind == "verdict" and len(rest) == 1:
                    bits = "" if rest[0] == "-" else rest[0]
                    if set(bits) - {"0", "1"}:
                        raise ValueError(f"bad verdict bits {bits!r}")
                    verdicts.append((name, tuple(map(int, bits))))
                elif kind == "args":
                    args.append((name, tuple(map(_av_parse, rest))))
                elif kind == "ret" and len(rest) == 1:
                    rets.append((name, _av_parse(rest[0])))
                elif kind == "field" and len(rest) == 3:
                    fields.append((name, int(rest[0]), int(rest[1]),
                                   _av_parse(rest[2])))
                else:
                    raise ValueError(f"bad line {line!r}")
            proven = sum(sum(bits) for _, bits in verdicts)
            total = sum(len(bits) for _, bits in verdicts)
            return cls(
                module_name=head["module"],
                ir_digest=head["ir"],
                policy_digest=policy_digest,
                policy_epoch=int(epoch),
                contracts_digest=head["contracts"],
                verdicts=tuple(verdicts),
                guards_proven=proven,
                guards_dynamic=total - proven,
                arg_summaries=tuple(args),
                ret_summaries=tuple(rets),
                field_facts=tuple(fields),
                havoc_fields=lines[-1] == "havoc=1",
            )
        except (KeyError, ValueError, UnicodeDecodeError) as e:
            raise CertificateError(f"malformed certificate: {e}") from e


__all__ = ["CertificateError", "VerificationCertificate"]
