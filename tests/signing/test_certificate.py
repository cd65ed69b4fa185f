"""Proof-carrying -O3 certificates: the text form and the insmod check.

A certificate carries the compiler's final summaries; insmod checks
them with one round of the analysis instead of re-running the fixpoint.
These tests pin the three properties that make that safe:

- the payload is a faithful serialisation (print → parse → print gives
  the same bytes);
- the checker accepts every certificate the compiler emits, including
  one whose fixpoint widened, and then yields exactly the verdicts of a
  full ``ModuleVerifier.run()``;
- any one-field mutation is refused under ``strict`` or demoted under
  ``demote`` — unless the mutated certificate still checks, in which case
  the elisions armed are exactly those of a full run.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import CompileOptions, compile_module
from repro.core.system import CaratKopSystem, SystemConfig
from repro.e1000e.contracts import DRIVER_CONTRACTS as E1000E_CONTRACTS
from repro.e1000e.driver_source import DRIVER_SOURCE as E1000E_SOURCE
from repro.kernel import Kernel, LoadError
from repro.passes.absint import U64_MAX, ModuleVerifier, elidable_guard_ids
from repro.policy import CaratPolicyModule, IntervalRegionTable, PolicyManager
from repro.signing import (
    CertificateError,
    SigningKey,
    VerificationCertificate,
    canonical_bytes,
)
from repro.vblk.contracts import VBLK_CONTRACTS
from repro.vblk.driver_source import DRIVER_SOURCE as VBLK_SOURCE

#: Constant-offset stores only, so the field facts stay live; ``pick`` is
#: internal, so its argument summary is the join of its call sites.
FACTS = """
long cells[8];
long mode;

long pick(long i) { return cells[i]; }
long twice(long k) { return k + k; }

__export long run(long seed) {
    mode = 3;
    cells[1] = twice(mode);
    return pick(mode) + pick(2) + seed;
}
"""

#: ``put`` stores through an index no one bounds: the store cannot be
#: placed, so the field facts are havocked.
HAVOC = """
long cells[8];
long idx;

long put(long i, long v) { cells[i] = v; return v; }

__export long run(long seed) {
    idx = 2;
    put(idx, seed);
    put(seed, 1);
    return cells[idx];
}
"""

#: name -> (source, contracts)
BANK = {
    "facts": (FACTS, None),
    "havoc": (HAVOC, None),
    "e1000e": (E1000E_SOURCE, E1000E_CONTRACTS),
    "vblk": (VBLK_SOURCE, VBLK_CONTRACTS),
}

_COMPILED: dict = {}


def _kernel(name, verify_policy="strict"):
    """A fresh kernel holding the e2e policy (64 regions, interval
    index) and ``name``'s contracts: every fresh kernel has the same
    policy digest and epoch, so one compile serves them all."""
    kernel = Kernel(verify_policy=verify_policy)
    policy = CaratPolicyModule(
        kernel, index=IntervalRegionTable(), mode="audit"
    ).install()
    PolicyManager(kernel).install_n_region_policy(64)
    contracts = BANK[name][1]
    if contracts is not None:
        kernel.register_verify_contracts(contracts, module=name)
    return kernel, policy


def _compiled(name):
    """``(compiled, full report)`` for a bank module, compiled once."""
    got = _COMPILED.get(name)
    if got is None:
        source, contracts = BANK[name]
        _, policy = _kernel(name)
        compiled = compile_module(source, CompileOptions(
            module_name=name, protect=True, opt_level=3,
            verify_table=policy.index, contracts=contracts,
        ))
        full = ModuleVerifier(compiled.ir, policy.index, contracts).run()
        got = _COMPILED[name] = (compiled, full)
    return got


def _with_certificate(compiled, cert):
    return dataclasses.replace(compiled, certificate=cert)


# -- the text form ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(BANK))
def test_payload_roundtrip(name):
    cert = _compiled(name)[0].certificate
    text = cert.payload()
    again = VerificationCertificate.parse(text)
    assert again == cert
    assert again.payload() == text


def test_payload_carries_every_summary_kind():
    facts = _compiled("facts")[0].certificate
    assert facts.field_facts and not facts.havoc_fields
    assert dict(facts.arg_summaries)["pick"] != ()
    assert "pick" in dict(facts.ret_summaries)
    assert _compiled("havoc")[0].certificate.havoc_fields


@pytest.mark.parametrize("text", [
    b"",
    b"module=m\nir=00\npolicy=00\ncontracts=00\nhavoc=0",
    b"module=m\nir=00\npolicy=00@1\ncontracts=00\nverdict f 012\nhavoc=0",
    b"module=m\nir=00\npolicy=00@1\ncontracts=00\nret f 1:2:3\nhavoc=0",
    b"module=m\nir=00\npolicy=00@1\ncontracts=00\nfield g 0 8\nhavoc=0",
    b"module=m\nir=00\npolicy=00@1\ncontracts=00\nverdict f 1",
    b"\xff\xfe",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(CertificateError):
        VerificationCertificate.parse(text)


# -- one canonical print ---------------------------------------------------------

#: ``(ir_digest, signature tag)`` of each driver's default -O3 build
#: (64 regions, interval index).  The certificate reuses the signature's
#: digest of the canonical print, so neither moves.
PINNED = {
    "e1000e": (
        "4af2f9aae68a1f969acec1ce12ab05bb382441dc80c499cb8073b66874d8445d",
        "4607274c42aafd3096a9bab1bdad4e1b2d4a24231890e5c9cec200facc6abc9e",
    ),
    "vblk": (
        "abdb4ffcc3dfa5b34a4eaf4528967c8182c7aa9c6614b6f16a4f52ca6db7ee28",
        "ad71ceda4c579b45b851bf2d244f4b22f4b1efb66fc6a8e51a19a1de7241761b",
    ),
}


@pytest.mark.parametrize("driver", sorted(PINNED))
def test_ir_digest_is_the_signature_digest(driver):
    system = CaratKopSystem(SystemConfig(
        driver=driver, opt_level=3, policy_index="interval", regions=64,
    ))
    compiled = system.driver_compiled
    printed = hashlib.sha256(canonical_bytes(compiled.ir)).hexdigest()
    assert compiled.certificate.ir_digest == compiled.signature.digest
    assert compiled.signature.digest == printed
    assert (printed, compiled.signature.tag) == PINNED[driver]


def test_unsigned_build_still_digests_its_print():
    compiled = _compiled("facts")[0]
    assert compiled.signature is None
    assert compiled.certificate.ir_digest == hashlib.sha256(
        canonical_bytes(compiled.ir)).hexdigest()


# -- the checker accepts what the compiler emits ----------------------------


@pytest.mark.parametrize("name", sorted(BANK))
def test_checker_equals_full_run(name):
    compiled, full = _compiled(name)
    _, policy = _kernel(name)
    checked = ModuleVerifier.checking(
        compiled.ir, policy.index, BANK[name][1], compiled.certificate
    ).run()
    assert checked == full


@pytest.mark.parametrize("name", sorted(BANK))
def test_bank_certificate_loads_under_strict(name):
    compiled, full = _compiled(name)
    kernel, _ = _kernel(name)
    loaded = kernel.insmod(compiled)
    assert loaded.verify_state == "verified"
    assert loaded.elided_guards == elidable_guard_ids(
        compiled.ir, full.proven_map()
    )
    assert len(loaded.elided_guards) == full.guards_proven


@pytest.mark.parametrize("driver, regions, index, cpus", [
    ("e1000e", 2, "linear", 1),
    ("e1000e", 64, "interval", 2),
    ("vblk", 2, "linear", 1),
    ("vblk", 64, "interval", 4),
])
def test_driver_systems_verify_under_strict(driver, regions, index, cpus):
    extra = {"queues": "auto"} if driver == "vblk" else {}
    system = CaratKopSystem(SystemConfig(
        driver=driver, opt_level=3, policy_index=index, regions=regions,
        cpus=cpus, verify_policy="strict", **extra,
    ))
    loaded = system.kernel.loader.loaded[driver]
    compiled = system.driver_compiled
    assert loaded.verify_state == "verified"
    assert len(loaded.elided_guards) == compiled.guards_proven
    want = {"e1000e": "67 proven static / 5 dynamic",
            "vblk": "185 proven static / 1 dynamic"}[driver]
    assert any(want in line for line in system.kernel.dmesg_log)


@pytest.mark.parametrize("name, rounds", [("facts", 1), ("vblk", 2)])
def test_widened_fixpoint_loads_under_strict(monkeypatch, name, rounds):
    """A fixpoint cut off by ``MAX_ROUNDS`` widens to TOP; the widened
    summaries are still inductive, so the certificate checks."""
    converged = _compiled(name)[0].certificate  # cached before the patch
    monkeypatch.setattr(ModuleVerifier, "MAX_ROUNDS", rounds)
    source, contracts = BANK[name]
    kernel, policy = _kernel(name)
    compiled = compile_module(source, CompileOptions(
        module_name=name, protect=True, opt_level=3,
        verify_table=policy.index, contracts=contracts,
    ))
    cert = compiled.certificate
    assert cert.havoc_fields
    assert all(av == ((0, U64_MAX),) for _, av in cert.ret_summaries)
    assert cert.ret_summaries != converged.ret_summaries  # it did widen
    assert cert.guards_proven <= converged.guards_proven
    loaded = kernel.insmod(compiled)
    assert loaded.verify_state == "verified"
    assert len(loaded.elided_guards) == cert.guards_proven


# -- mutations ---------------------------------------------------------------

_SUMMARY_FIELDS = ("arg_summaries", "ret_summaries", "field_facts")


def _replace_at(seq, i, item):
    return seq[:i] + (item,) + seq[i + 1:]


def _arg_index(cert, fn):
    return [name for name, _ in cert.arg_summaries].index(fn)


def _value_slots(cert):
    """``(field, entry index, arg index or None)`` of every claimed value."""
    slots = []
    for i, (_, args) in enumerate(cert.arg_summaries):
        slots += [("arg_summaries", i, j) for j in range(len(args))]
    slots += [("ret_summaries", i, None)
              for i in range(len(cert.ret_summaries))]
    slots += [("field_facts", i, None) for i in range(len(cert.field_facts))]
    return slots


def _get_value(cert, slot):
    field, i, j = slot
    entry = getattr(cert, field)[i]
    return entry[1][j] if j is not None else entry[-1]


def _set_value(cert, slot, av):
    field, i, j = slot
    entries = getattr(cert, field)
    entry = entries[i]
    if j is not None:
        entry = (entry[0], _replace_at(entry[1], j, av))
    else:
        entry = entry[:-1] + (av,)
    return dataclasses.replace(cert, **{field: _replace_at(entries, i, entry)})


def _mutate(cert, kind, draw):
    if kind == "havoc":
        return dataclasses.replace(cert, havoc_fields=not cert.havoc_fields)
    if kind == "digest":
        field = draw(st.sampled_from(
            ["ir_digest", "policy_digest", "contracts_digest", "policy_epoch"]
        ))
        if field == "policy_epoch":
            return dataclasses.replace(cert, policy_epoch=cert.policy_epoch + 1)
        old = getattr(cert, field)
        return dataclasses.replace(
            cert, **{field: ("1" if old[0] == "0" else "0") + old[1:]}
        )
    if kind == "verdict":
        sites = [(i, k) for i, (_, bits) in enumerate(cert.verdicts)
                 for k in range(len(bits))]
        i, k = draw(st.sampled_from(sites))
        fn, bits = cert.verdicts[i]
        bits = _replace_at(bits, k, 1 - bits[k])
        return dataclasses.replace(
            cert, verdicts=_replace_at(cert.verdicts, i, (fn, bits))
        )
    if kind == "rename":
        field = draw(st.sampled_from(
            [f for f in ("verdicts",) + _SUMMARY_FIELDS if getattr(cert, f)]
        ))
        entries = getattr(cert, field)
        i = draw(st.integers(0, len(entries) - 1))
        entry = (entries[i][0] + "_x",) + tuple(entries[i][1:])
        return dataclasses.replace(
            cert, **{field: _replace_at(entries, i, entry)}
        )
    if kind == "drop_arg":
        funcs = [i for i, (_, args) in enumerate(cert.arg_summaries) if args]
        i = draw(st.sampled_from(funcs))
        fn, args = cert.arg_summaries[i]
        j = draw(st.integers(0, len(args) - 1))
        return dataclasses.replace(cert, arg_summaries=_replace_at(
            cert.arg_summaries, i, (fn, args[:j] + args[j + 1:])
        ))
    slot = draw(st.sampled_from(_value_slots(cert)))
    av = _get_value(cert, slot)
    if not av:
        return _set_value(cert, slot, ((0, draw(st.integers(0, 64))),))
    k = draw(st.integers(0, len(av) - 1))
    lo, hi = av[k]
    if kind == "widen":
        d = draw(st.integers(1, 1 << draw(st.integers(0, 40))))
        atom = (max(0, lo - d), min(U64_MAX, hi + d))
        if draw(st.booleans()):
            atom = (lo, min(U64_MAX, hi + d))
        return _set_value(cert, slot, _replace_at(av, k, atom))
    # narrow: shrink one atom, or drop it when it is a single point
    if hi == lo:
        return _set_value(cert, slot, av[:k] + av[k + 1:])
    d = draw(st.integers(1, hi - lo))
    atom = (lo + d, hi) if draw(st.booleans()) else (lo, hi - d)
    return _set_value(cert, slot, _replace_at(av, k, atom))


MUTATIONS = ("widen", "narrow", "rename", "drop_arg", "havoc", "digest",
             "verdict")


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(BANK)),
    verify_policy=st.sampled_from(["strict", "demote"]),
    kind=st.sampled_from(MUTATIONS),
    data=st.data(),
)
def test_mutated_certificate_is_refused_or_exact(name, verify_policy, kind,
                                                 data):
    compiled, full = _compiled(name)
    cert = _mutate(compiled.certificate, kind, data.draw)
    kernel, _ = _kernel(name, verify_policy)
    try:
        loaded = kernel.insmod(_with_certificate(compiled, cert))
    except LoadError as e:
        assert verify_policy == "strict"
        assert "verification certificate rejected" in str(e)
        assert name not in kernel.lsmod()
        return
    if loaded.verify_state == "verified":
        # The mutation left a proof that still checks: the elisions
        # armed are exactly a full run's.
        assert loaded.elided_guards == elidable_guard_ids(
            compiled.ir, full.proven_map()
        )
    else:
        assert verify_policy == "demote"
        assert loaded.verify_state.startswith("demoted:")
        assert not loaded.elided_guards


@pytest.mark.parametrize("reason, mutate", [
    ("argument summary of @pick",
     lambda c: _set_value(c, ("arg_summaries", _arg_index(c, "pick"), 0),
                          ((2, 2),))),
    ("return summaries",
     lambda c: dataclasses.replace(c, ret_summaries=c.ret_summaries[1:])),
    ("field facts",
     lambda c: dataclasses.replace(c, field_facts=c.field_facts[1:])),
    ("do not name the module's functions",
     lambda c: dataclasses.replace(c, arg_summaries=c.arg_summaries[1:])),
    ("arguments, the claim",
     lambda c: dataclasses.replace(c, arg_summaries=_replace_at(
         c.arg_summaries, _arg_index(c, "pick"), ("pick", ())))),
    ("not a normalized set of u64 intervals",
     lambda c: _set_value(c, ("arg_summaries", _arg_index(c, "pick"), 0),
                          ((-8, 3),))),
    ("not a normalized set of u64 intervals",
     lambda c: _set_value(c, ("arg_summaries", _arg_index(c, "pick"), 0),
                          ((0, 3), (2, 5)))),
    ("not a normalized set of u64 intervals",
     lambda c: _set_value(c, ("arg_summaries", _arg_index(c, "pick"), 0),
                          ("junk",))),
    ("verdicts do not reproduce",
     lambda c: dataclasses.replace(c, verdicts=tuple(
         (fn, tuple(0 for _ in bits)) for fn, bits in c.verdicts))),
])
def test_refusal_names_the_failed_check(reason, mutate):
    compiled, _ = _compiled("facts")
    kernel, _ = _kernel("facts", "demote")
    loaded = kernel.insmod(
        _with_certificate(compiled, mutate(compiled.certificate))
    )
    assert loaded.verify_state.startswith("demoted:")
    assert reason in loaded.verify_state


def test_narrowed_internal_argument_cannot_smuggle_a_proof():
    """Claiming an unreached-looking, narrow range for an internal
    function's argument fails: the kernel recomputes ``reached`` and the
    call sites' join, and never takes exported arguments from the
    claim."""
    compiled, _ = _compiled("havoc")
    cert = compiled.certificate
    narrowed = _set_value(cert, ("arg_summaries", _arg_index(cert, "put"), 0),
                          ((0, 7),))
    exported = _set_value(cert, ("arg_summaries", _arg_index(cert, "run"), 0),
                          ((0, 7),))
    for claim in (narrowed, exported):
        kernel, _ = _kernel("havoc", "strict")
        with pytest.raises(LoadError, match="summaries do not check"):
            kernel.insmod(_with_certificate(compiled, claim))


def test_signed_insmod_checks_the_certificate_digest():
    """With a signing key set, the certificate's IR digest is compared
    against the digest the signature check verified."""
    key = SigningKey.generate("cert-test")
    source, contracts = BANK["facts"]
    kernel = Kernel(verify_policy="strict", signing_key=key)
    policy = CaratPolicyModule(
        kernel, index=IntervalRegionTable(), mode="audit"
    ).install()
    PolicyManager(kernel).install_n_region_policy(64)
    compiled = compile_module(source, CompileOptions(
        module_name="facts", protect=True, opt_level=3, key=key,
        verify_table=policy.index, contracts=contracts,
    ))
    forged = dataclasses.replace(compiled.certificate, ir_digest="0" * 64)
    with pytest.raises(LoadError, match="IR digest mismatch"):
        kernel.insmod(_with_certificate(compiled, forged))
    assert kernel.insmod(compiled).verify_state == "verified"
