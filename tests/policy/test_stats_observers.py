"""Every observer of the policy's guard statistics, pinned by digest.

The guard counters are read through five views: ``/proc/carat``,
``/proc/trace_stat`` (its per-driver rows), the ``CMD_GET_STATS`` and
``CMD_GET_VIOLATIONS`` ioctl replies, and ``guard_stats()``.  Each fixed
run below hashes all five; the digests were taken from the policy module
that kept separate per-CPU totals, per-module rows, a violations dict and
guard counts on the timing model, so a change to how the counters are
stored must reproduce every byte.  The runs cover the linear and interval
indexes, 1/2/4 CPUs, both stacks, and an audit-mode module that is denied
a memory access, a privileged intrinsic and a kernel call; each runs
under both engines (the compiled engine serves allowed decision-cache
hits at the guard site, the interpreter always calls the policy).

``guard_stats()`` drops its ``translation_*`` keys: they count traffic
against the process-global translation cache, which depends on what ran
earlier in the process.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.core.pipeline import CompileOptions, compile_module
from repro.core.system import CaratKopSystem, SystemConfig
from repro.kernel import layout
from repro.policy import module as pm

ENGINES = ("interp", "compiled")

#: A module that, in audit mode, makes allowed guarded accesses (repeated
#: keys, so decision-cache hits) and, per call, is denied a load and a
#: store of its own global, one privileged intrinsic and two kernel calls.
AUDITEE_SOURCE = r"""
extern void *kmalloc(long size, int flags);
extern void kfree(void *p);
extern void wrmsr(long msr, long value);
extern int printk(char *fmt, ...);

long hits;

__export long poke(long n) {
    long *buf = (long *)kmalloc(64, 0);
    long i;
    long acc = 0;
    for (i = 0; i < n; i = i + 1) {
        buf[i & 7] = i;
        acc = acc + buf[i & 3];
    }
    hits = hits + 1;
    wrmsr(16, acc);
    printk("poke %ld\n", acc);
    kfree(buf);
    return acc;
}
"""
AUDITEE = "auditee"


def _net(engine, opt_level, policy_index, cpus):
    system = CaratKopSystem(SystemConfig(
        machine="r415", engine=engine, opt_level=opt_level,
        policy_index=policy_index, regions=64, cpus=cpus,
    ))
    assert system.blast(size=128, count=40).errors == 0
    return system


def _blk(engine):
    system = CaratKopSystem(SystemConfig(
        machine="r415", engine=engine, driver="vblk", opt_level=3,
        policy_index="interval", regions=64, cpus=4, queues="auto",
    ))
    assert system.blkblast(count=32, pattern="rand", seed=3).errors == 0
    return system


def _audit(engine):
    """Memory, intrinsic and call denials in audit mode on two CPUs."""
    system = CaratKopSystem(SystemConfig(
        machine="r415", engine=engine, enforce_mode="audit", cpus=2,
    ))
    compiled = compile_module(AUDITEE_SOURCE, CompileOptions(
        module_name=AUDITEE, key=system.signing_key,
        guard_calls=True, guard_intrinsics=True,
    ))
    loaded = system.kernel.insmod(compiled)
    mgr = system.policy_manager
    mgr.clear()
    mgr.deny(loaded.base, loaded.size)  # its own globals: first match
    mgr.allow(layout.KERNEL_SPACE_START,
              (1 << 64) - layout.KERNEL_SPACE_START)
    mgr.deny(0, layout.USER_SPACE_END + 1)
    mgr.set_default(False)
    mgr.set_call_allowlist(True)
    mgr.allow_call("kmalloc")
    mgr.allow_call("kfree")
    for i in range(4):
        system.kernel.smp.current = i % 2
        assert system.kernel.run_function(loaded, "poke", [6]) == 7
    return system


RUNS = {
    "e1000e-O0-linear-cpus1": lambda e: _net(e, 0, "linear", 1),
    "e1000e-O0-linear-cpus2": lambda e: _net(e, 0, "linear", 2),
    "e1000e-O2-interval-cpus1": lambda e: _net(e, 2, "interval", 1),
    "e1000e-O2-interval-cpus2": lambda e: _net(e, 2, "interval", 2),
    "vblk-O3-cpus4": _blk,
    "audit-three-denials": _audit,
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _observers(system) -> dict[str, str]:
    kernel = system.kernel
    policy = system.policy

    def ioctl(cmd, arg=b""):
        return policy.ioctl(cmd, arg, uid=0)

    names = sorted(set(kernel.lsmod()) | {AUDITEE, "?"})
    violations = b"".join(
        ioctl(pm.CMD_GET_VIOLATIONS, name.encode().ljust(32, b"\0"))
        for name in names
    )
    stats = {k: v for k, v in system.guard_stats().items()
             if not k.startswith("translation_")}
    return {
        "proc_carat": _sha(kernel.proc.read("/proc/carat")),
        "trace_stat": _sha(kernel.proc.read("/proc/trace_stat")),
        "get_stats": _sha(ioctl(pm.CMD_GET_STATS)),
        "get_violations": _sha(violations),
        "guard_stats": _sha(repr(list(stats.items()))),
    }


PINS = {
    "audit-three-denials": {
        "proc_carat":
            "e96c7e0d3fe09610532dc613e57c8d72698994ff93bbd4d744f61eac0bf500f3",
        "trace_stat":
            "eca01dca4cfcbbdcd94d0735904867a05ed4b6f24e20b2cb7c23e848f5b81993",
        "get_stats":
            "e6229087caa82e1cb87e8e65917da1e5335f18277d636d9dba1cdcb4056e13cf",
        "get_violations":
            "5f68c1959eaec10fb8e07a085461862595dce9214581a95d01523601f90d93e7",
        "guard_stats":
            "5231f5f2e9d41b434d5d84e74d66aa7d92db0c9f0d4dcba640e774b96cae218f",
    },
    "e1000e-O0-linear-cpus1": {
        "proc_carat":
            "7a584cd85c8c89adcf3110465b4c59f543116ba5f90c2fea9b339608a6d8ff25",
        "trace_stat":
            "47527b735ee6fac71d62a073f862c606257a227a7a2cf64681b37a56559f7e48",
        "get_stats":
            "13c81e0a21eb1474bf201d57e07aecf744f991ac1f7921f973b4c7764dfabe49",
        "get_violations":
            "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
        "guard_stats":
            "aa06eacf652fbeb66374f4168c605c389895121f31f27fb4ee33a6f851b514ef",
    },
    "e1000e-O0-linear-cpus2": {
        "proc_carat":
            "4b0d4bfe3f2c7230ae88083fa10da99caae6945361cd6d2af6f589b4cb5ffbf0",
        "trace_stat":
            "83e9f152a1746995880718cc7e8514c25615964de021336c5d6b10615ef78546",
        "get_stats":
            "13c81e0a21eb1474bf201d57e07aecf744f991ac1f7921f973b4c7764dfabe49",
        "get_violations":
            "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
        "guard_stats":
            "c57374bc8bdf39019d5302fc7c7090966ca936af605b75945f0be633c85c36a9",
    },
    "e1000e-O2-interval-cpus1": {
        "proc_carat":
            "88dc8fcdf15540a5c3823c4ae6d3a145d855db0580be1c6e4b0306d9c381502b",
        "trace_stat":
            "5490041ef4fdfad75f883ddce2d8671c91ad4b2a6c597b0d762b9872fb6d8179",
        "get_stats":
            "f016c1e20ef42b720a9ca9d7b2171000cc093ad9aad8bf394252da0609467ecd",
        "get_violations":
            "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
        "guard_stats":
            "26292a23336c8bca7eeac7cc08639e39a512aed17a72a8963a375322426fdc5b",
    },
    "e1000e-O2-interval-cpus2": {
        "proc_carat":
            "4a9857458cd8c96588e26c87e1c275901841609b5c0e66a0c2ecb6f34b87457d",
        "trace_stat":
            "520009d74e647a6e52a11b45340abfa1fbce40a35aa263533dcd39a9b88a2b4e",
        "get_stats":
            "f016c1e20ef42b720a9ca9d7b2171000cc093ad9aad8bf394252da0609467ecd",
        "get_violations":
            "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
        "guard_stats":
            "215b82449e64cd21667d9caf72e16529e32fb6b5dc38b537b2e81ec737d104cc",
    },
    "vblk-O3-cpus4": {
        "proc_carat":
            "8c09edd0df74b4d9060106667c88e6f93dd3ddbe636d7283be4f9182985c4a50",
        "trace_stat":
            "8c454ed1575e207e21d8c6fa6d0ca83a60749137c7ccbb3e3ed5c07b392bb4b7",
        "get_stats":
            "02fcc2779f399df32118344a95b0e3a2bf97fc83166e461052f547fc06cc3b7b",
        "get_violations":
            "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
        "guard_stats":
            "09dbb784690a8687f210f6e551731ca32e90f39d2a7d43d473fd2507759362fb",
    },
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("run", sorted(RUNS))
def test_observers_pinned(run, engine):
    assert _observers(RUNS[run](engine)) == PINS[run]


def test_audit_run_denies_every_kind():
    """The audit run exercises all three deny paths (else its pin would
    not cover them)."""
    system = _audit("compiled")
    log = "\n".join(system.kernel.dmesg_log)
    for tag in ("DENY module=auditee", "DENY-INTRINSIC module=auditee",
                "DENY-CALL module=auditee"):
        assert tag in log
    (count,) = struct.unpack("<Q", system.policy.ioctl(
        pm.CMD_GET_VIOLATIONS, AUDITEE.encode().ljust(32, b"\0"), uid=0))
    assert count == 4 * (2 + 1 + 2)  # load+store of hits, wrmsr, 2 calls
