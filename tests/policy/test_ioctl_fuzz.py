"""ioctl fuzz: the /dev/carat surface fails closed on arbitrary payloads.

The device is the user-space attack surface: any cmd/arg/uid combination
must yield a result or an errno-carrying IoctlError — never an internal
exception, and non-root must never mutate the policy.
"""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.kernel import IoctlError, Kernel
from repro.policy import CaratPolicyModule
from repro.policy import module as pm

ALL_CMDS = [
    pm.CMD_ADD_REGION, pm.CMD_DEL_REGION, pm.CMD_CLEAR, pm.CMD_SET_DEFAULT,
    pm.CMD_GET_STATS, pm.CMD_GET_REGION, pm.CMD_COUNT,
    pm.CMD_ALLOW_INTRINSIC, pm.CMD_DENY_INTRINSIC, pm.CMD_ALLOW_CALL,
    pm.CMD_DENY_CALL, pm.CMD_CALL_POLICY, pm.CMD_ADD_REGION_FOR,
    pm.CMD_CLEAR_FOR, pm.CMD_SET_MODE, pm.CMD_SET_MODE_FOR, pm.CMD_GET_MODE,
    pm.CMD_GET_VIOLATIONS, pm.CMD_UNQUARANTINE,
]


def fresh():
    kernel = Kernel()
    policy = CaratPolicyModule(kernel).install()
    return kernel, policy


@settings(max_examples=400, deadline=None)
@example(pm.CMD_ALLOW_INTRINSIC, b"\x96\xb4B", 0)   # non-UTF8 (regression)
@example(pm.CMD_ADD_REGION_FOR, b"\xff" * 52, 0)
@example(pm.CMD_CLEAR_FOR, b"\xc5}", 0)
@example(pm.CMD_ADD_REGION, b"\x00" * 20, 0)        # zero-length region
@example(pm.CMD_SET_MODE, b"\x09\x00\x00\x00", 0)   # unknown mode code
@example(pm.CMD_SET_MODE, b"\x01", 0)               # short payload
@example(pm.CMD_SET_MODE_FOR, b"\x00" * 35, 0)      # truncated name+code
@example(pm.CMD_SET_MODE_FOR, b"\xff" * 36, 0)      # non-UTF8 name
@example(pm.CMD_GET_MODE, b"\x00" * 7, 0)           # neither empty nor name
@example(pm.CMD_GET_VIOLATIONS, b"", 0)             # missing name
@example(pm.CMD_UNQUARANTINE, b"x" * 33, 0)         # oversized name
@given(
    st.sampled_from(ALL_CMDS + [0, 1, 0xDEAD]),
    st.binary(max_size=64),
    st.sampled_from((0, 1000)),
)
def test_ioctl_fails_closed(cmd, arg, uid):
    kernel, policy = fresh()
    try:
        kernel.devices.ioctl(pm.DEVICE_PATH, cmd, arg, uid=uid)
    except IoctlError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALL_CMDS), st.binary(max_size=64))
def test_non_root_never_mutates(cmd, arg):
    kernel, policy = fresh()
    before = (
        len(policy.index), policy.index.default_allow, policy.mode,
        set(policy.allowed_intrinsics),
        None if policy.allowed_calls is None else set(policy.allowed_calls),
        dict(policy.module_indexes),
    )
    try:
        kernel.devices.ioctl(pm.DEVICE_PATH, cmd, arg, uid=1000)
    except IoctlError as e:
        assert e.errno == 1  # EPERM
    after = (
        len(policy.index), policy.index.default_allow, policy.mode,
        set(policy.allowed_intrinsics),
        None if policy.allowed_calls is None else set(policy.allowed_calls),
        dict(policy.module_indexes),
    )
    assert before == after
