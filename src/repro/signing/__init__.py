"""Code signing and load-time validation (paper §2, §3.2).

CARAT CAKE "performs cryptographic code signing ... used at load time to
prove to the kernel that the proper processing has been performed (e.g.,
that guards have been injected) and by which compiler"; CARAT KOP "needs
a similar code signing and validation process".

We implement that chain with HMAC-SHA256 over the module's canonical
textual serialization plus its attestation metadata.  The signing key
stands in for the build infrastructure's private key; the kernel is
provisioned with the same key (HMAC = symmetric, which is enough to model
the trust relationship — the interesting failure modes are *tampered
code*, *stripped guards*, and *forged attestation*, all of which tests
exercise).

`certificate` extends the chain with the -O3 static-verification tier:
a :class:`VerificationCertificate` records per-guard verdicts bound to a
policy-table digest/epoch, plus the summaries that prove them; insmod
validates it and checks that proof.
"""

from .certificate import CertificateError, VerificationCertificate
from .signer import (
    ModuleSignature,
    SignatureError,
    SigningKey,
    canonical_bytes,
    sign_module,
    verify_signature,
)

__all__ = [
    "CertificateError",
    "ModuleSignature",
    "SignatureError",
    "SigningKey",
    "VerificationCertificate",
    "canonical_bytes",
    "sign_module",
    "verify_signature",
]
