"""docs/TUTORIAL.md must stay executable — this test IS the tutorial."""

import pytest

from repro import CompileOptions, Kernel, KernelPanic, SigningKey, compile_module
from repro.policy import CaratPolicyModule, PolicyManager, PolicyMiner

SOURCE = """
extern void *kmalloc(long size, int flags);
extern int printk(char *fmt, ...);

enum { SLOTS = 64 };

long *samples;
long head;

__export int init_module(void) {
    samples = (long *)kmalloc(SLOTS * 8, 0);
    printk("stats_collector ready");
    return 0;
}

__export void record(long value) {
    samples[head % SLOTS] = value;
    head += 1;
}

__export long latest(void) {
    return head ? samples[(head - 1) % SLOTS] : 0;
}
"""

BUGGY = SOURCE.replace("samples[head % SLOTS]", "samples[SLOTS]")


def test_tutorial_end_to_end():
    # step 2: compile twice
    key = SigningKey.generate()
    baseline = compile_module(
        SOURCE, CompileOptions(module_name="stats", protect=False, key=key)
    )
    protected = compile_module(
        SOURCE, CompileOptions(module_name="stats", protect=True, key=key)
    )
    assert protected.guard_count > 0
    assert protected.stats.code_growth > 1.0
    assert protected.signature.guarded

    # step 3: boot + insmod
    kernel = Kernel(signing_key=key, require_protected_modules=True)
    policy = CaratPolicyModule(kernel).install()
    manager = PolicyManager(kernel)
    manager.install_two_region_policy()

    from repro.kernel import LoadError

    with pytest.raises(LoadError):
        kernel.insmod(baseline)  # strict kernel refuses the baseline

    loaded = kernel.insmod(protected)
    kernel.run_function(loaded, "record", [42])
    assert kernel.run_function(loaded, "latest", []) == 42
    assert policy.stats.checks > 0

    # step 4: mine a tight policy
    miner = PolicyMiner(policy, max_regions=8)
    with miner:
        for v in range(200):
            kernel.run_function(loaded, "record", [v])
    mined = miner.mine(page_align=False)
    assert 1 <= len(mined.regions) <= 8
    mined.install(manager)
    denied_before = policy.stats.denied
    for v in range(200):
        kernel.run_function(loaded, "record", [v])
    assert policy.stats.denied == denied_before  # zero denials on replay

    # step 5: the buggy build gets caught on its first stray store
    kernel2 = Kernel(signing_key=key, require_protected_modules=True)
    policy2 = CaratPolicyModule(kernel2).install()
    manager2 = PolicyManager(kernel2)
    manager2.install_two_region_policy()
    buggy = compile_module(
        BUGGY, CompileOptions(module_name="stats", protect=True, key=key)
    )
    loaded2 = kernel2.insmod(buggy)
    # The operator's tight hand-written policy: the module's globals plus
    # exactly its 64-slot ring (the pointer is in the module's `samples`
    # global), nothing else.
    ring = kernel2.address_space.read_int(loaded2.address_of("samples"), 8)
    manager2.clear()
    manager2.allow(loaded2.base, loaded2.size)
    manager2.allow(ring, 64 * 8)
    manager2.set_default(False)
    # The stray store lands one slot past the ring: out of policy.
    with pytest.raises(KernelPanic, match="forbidden W"):
        kernel2.run_function(loaded2, "record", [1])
    assert any("DENY module=stats" in l for l in kernel2.dmesg_log)


def test_tutorial_trace_the_crash(tmp_path):
    # step 6: same buggy module, but traced and ejected instead of panicked
    key = SigningKey.generate()
    kernel = Kernel(signing_key=key, require_protected_modules=True)
    policy = CaratPolicyModule(kernel, mode="eject").install()
    manager = PolicyManager(kernel)
    manager.install_two_region_policy()

    trace = kernel.trace
    trace.enable()  # flip every static key on

    buggy = compile_module(
        BUGGY, CompileOptions(module_name="stats", protect=True, key=key)
    )
    loaded = kernel.insmod(buggy)
    ring = kernel.address_space.read_int(loaded.address_of("samples"), 8)
    manager.clear()
    manager.allow(loaded.base, loaded.size)
    manager.allow(ring, 64 * 8)
    manager.set_default(False)

    rc = kernel.run_function(loaded, "record", [1])
    trace.disable()

    assert rc == -14  # -EFAULT: the call failed cleanly
    assert loaded.ejected
    assert "stats" not in kernel.lsmod()
    assert kernel.panicked is None  # nobody died this time

    # the whole story is on film
    names = [e.name for e in trace.snapshot()]
    for expected in ("module:verify", "module:load", "mem:kmalloc",
                     "guard:check", "guard:deny", "module:eject",
                     "journal:rollback"):
        assert expected in names, f"missing {expected}"
    deny = next(e for e in trace.snapshot() if e.name == "guard:deny")
    assert deny.args["module"] == "stats"
    assert deny.args["kind"] == "memory"

    stat = kernel.proc.read("/proc/trace_stat")
    assert "[guard cycle cost]" in stat
    assert "stats:@" in stat  # per-callsite attribution

    from repro.trace import to_folded

    folded = tmp_path / "stats.folded"
    folded.write_text(to_folded(trace.snapshot(), weight="cycles"))
    lines = folded.read_text().splitlines()
    assert lines
    assert all(l.rsplit(" ", 1)[0].endswith("carat_guard") for l in lines)
    assert any(";record;" in l or ";init_module;" in l for l in lines)


def test_tutorial_tenant_quota_rollback():
    # step 7: a tenant blows its violation budget; the canary generation
    # auto-rolls back and /proc/carat + the trace carry the evidence
    from repro.policy import (
        ControlPlaneConfig, OP_ADD, PolicyControlPlane, PolicyManager,
    )

    kernel = Kernel(ncpus=2)
    policy = CaratPolicyModule(kernel, mode="audit").install()
    manager = PolicyManager(kernel)
    cp = PolicyControlPlane(
        kernel, policy, ControlPlaneConfig(canary_tick_limit=4),
    ).attach()
    trace = kernel.trace
    trace.enable()

    manager.create_tenant("metrics", max_regions=8, violation_budget=2)
    gen = manager.batch_mutate("metrics", [
        (OP_ADD, 0x5000_0000, 0x1000, 0),      # prot=0: a deny region
    ])
    assert gen == 2  # staged on the canary CPU only
    assert manager.cp_status()["staged_generation"] == 2

    for _ in range(4):          # CPU 0 is the canary; these all deny
        policy._guard(None, 0x5000_0040, 8, 1, "metrics_probe")
    assert manager.cp_tick() == 2  # AUTO-ROLLED BACK: 4 denies > budget 2
    trace.disable()

    # the staged generation is gone and its number went back to the pool
    status = manager.cp_status()
    assert status["generation"] == 1
    assert status["staged_generation"] == 0
    assert status["rollbacks"] == 1
    assert manager.tenant_stats("metrics")["regions"] == 0  # undone

    # the operator's evidence: /proc/carat...
    text = kernel.proc.read("/proc/carat")
    assert "controlplane: generation 1, 1 tenant(s)" in text
    assert "1 rolled back" in text
    assert "rollback gen 2 (metrics): violation budget exceeded" in text

    # ...and the lifecycle on film
    names = [e.name for e in trace.snapshot()]
    for expected in ("cp:batch", "cp:stage", "cp:rollback"):
        assert expected in names, f"missing {expected}"
    rollback = next(e for e in trace.snapshot() if e.name == "cp:rollback")
    assert rollback.args["tenant"] == "metrics"
    assert "violation budget exceeded" in rollback.args["reason"]


FLUSHER = """
/* stale: points into the user half after a buffer-reuse bug
   (0x400000000000 = userspace) */
long pending_bio = 70368744177664;

__export long flush_one(long tag) {
    long *bio = (long *)pending_bio;
    *bio = tag;                     /* stray store through the stale bio */
    return tag;
}
"""


def test_tutorial_storage_violation_eject():
    # step 8: a second guarded stack — the disk keeps serving after a
    # sidecar module is ejected for a storage violation
    from repro.core.system import CaratKopSystem

    system = CaratKopSystem(driver="vblk", machine=None, protect=True,
                            enforce_mode="eject")
    before = system.blkblast(count=32, pattern="rand", seed=2)
    assert before.errors == 0

    flusher = compile_module(FLUSHER, CompileOptions(
        module_name="flusherd", protect=True, key=system.signing_key,
    ))
    loaded = system.kernel.insmod(flusher)
    rc = system.kernel.run_function(loaded, "flush_one", [7])

    assert rc == -14            # -EFAULT: the stray store never landed
    assert loaded.ejected
    assert "flusherd" not in system.kernel.lsmod()
    assert system.kernel.panicked is None

    # the disk driver is untouched and still moving data
    assert "vblk" in system.kernel.lsmod()
    after = system.blkblast(count=32, pattern="rand", seed=3)
    assert after.errors == 0

    # /proc/carat attributes the denial to the module that caused it
    text = system.kernel.proc.read("/proc/carat")
    assert "driver[flusherd]: checks=" in text
    assert "denied=1" in text.split("driver[flusherd]")[1].split("\n")[0]
    assert "denied=0" in text.split("driver[vblk]")[1].split("\n")[0]


def test_tutorial_multiqueue_scaling():
    # step 8b: per-CPU queue pairs vs one shared queue — 2x+ the iops,
    # bit-identical disk image, per-queue stats in /proc
    from repro.core.system import CaratKopSystem, SystemConfig

    workload = dict(count=240, nsect=8, pattern="rand", seed=7,
                    flush_interval=8)

    sq = CaratKopSystem(SystemConfig(
        machine="r415", driver="vblk", cpus=4, queues=1,
    ))
    slow = sq.blkblast(**workload)
    assert slow.errors == 0

    mq = CaratKopSystem(SystemConfig(
        machine="r415", driver="vblk", cpus=4, queues="auto",
    ))
    fast = mq.blkblast(**workload)
    assert fast.errors == 0

    assert fast.throughput_iops >= 2 * slow.throughput_iops
    assert bytes(sq.device.store) == bytes(mq.device.store)

    # queue 0 (admin) created the four I/O pairs; all carried traffic
    # let the trailing requests' media time elapse, then harvest
    mq.kernel.vm.timing.add_cycles(10_000_000)
    mq.device.sync()
    rows = {r["queue"]: r for r in mq.device.queue_stats()}
    assert all(rows[q]["created"] for q in range(5))
    assert all(rows[q]["doorbells"] > 0 for q in range(1, 5))
    assert all(rows[q]["in_flight"] == 0 for q in range(5))

    carat = mq.kernel.proc.read("/proc/carat")
    for q in range(1, 5):
        assert f"queue[{q}]: io" in carat
    stat = mq.kernel.proc.read("/proc/trace_stat")
    assert "[blk queues]" in stat
