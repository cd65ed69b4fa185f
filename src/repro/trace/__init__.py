"""repro.trace: the ftrace/perf-style observability layer.

Static tracepoints woven through every subsystem feed one per-kernel
:class:`TraceSubsystem`: a ring buffer of timestamped events, named
counters, BPF-style log2 histograms, and per-guard-callsite profiles.
Tracing is strictly *observational* — no tracepoint ever touches the
``timing`` accounting — so simulated results are bit-identical with
tracing enabled, disabled, or absent.  The compiled engine goes further
and specializes its guard closures on the tracer's identity (the Linux
static-key analogy): with tracing off, the generated code is exactly the
code an engine without the subsystem would generate.
"""

from .aggregate import CounterSet, GuardSiteStats, Log2Histogram
from .events import EVENT_SCHEMA, TraceEvent
from .exporters import (
    to_chrome_trace,
    to_folded,
    to_perf_script,
    validate_chrome_trace,
    write_artifacts,
)
from .ring import RingBuffer
from .subsystem import TraceSubsystem
from .tracepoint import Tracepoint
from .vmhook import VMTracer, guard_site_id

__all__ = [
    "CounterSet",
    "EVENT_SCHEMA",
    "GuardSiteStats",
    "Log2Histogram",
    "RingBuffer",
    "TraceEvent",
    "TraceSubsystem",
    "Tracepoint",
    "VMTracer",
    "guard_site_id",
    "to_chrome_trace",
    "to_folded",
    "to_perf_script",
    "validate_chrome_trace",
    "write_artifacts",
]
