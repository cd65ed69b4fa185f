"""Fault fingerprints: whole soak reports and the policyd chaos tallies,
pinned.

Every fault schedule is deterministic, so a refactor of the injector or
of a host's hook site must leave these byte-for-byte unchanged; a change
that moves them on purpose re-pins them and says why.  The
``translation_*`` guard stats are stripped: they count hits in the
process-wide translation cache, so they depend on what ran earlier in
the process (see ``CaratKopSystem.guard_stats``).
"""

import hashlib
import json

import pytest

from repro.faults.soak import run_soak
from repro.policy.policyd import chaos_injector, run_policyd


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items()
                if not k.startswith("translation_")}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


@pytest.mark.parametrize("kwargs, digest", [
    pytest.param(
        dict(cycles=5),
        "6b79fcddca55537b1de6c4d2869eb4eb4d79380b39d1a76ddc64eb6d8cd28ab9",
        id="untimed"),
    pytest.param(
        dict(cycles=3, machine="r350"),
        "4226ad81d5381cf09b0f6e01f417baeeb16fa28e5fa985318aaa9eeedfad3df7",
        id="r350"),
])
def test_soak_report_fingerprint(kwargs, digest):
    report = _strip(run_soak(**kwargs))
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest, (
        report["injector"])


def test_policyd_chaos_tallies():
    report = run_policyd(injector=chaos_injector(), tenants=3, regions=24,
                         rounds=1, batch_ops=8, blast_count=8)
    fired = {k: n for k, n in report["injector"].items() if n}
    assert fired == {
        "dropped_publishes": 4, "stalled_publishes": 3,
        "corrupted_replicas": 1, "torn_batches": 1, "quota_race_storms": 1,
    }
