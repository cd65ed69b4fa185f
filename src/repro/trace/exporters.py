"""Trace exporters: chrome://tracing JSON, perf-script text, folded stacks.

Three interchange formats over one event list:

- :func:`to_chrome_trace` — the Trace Event Format consumed by
  ``chrome://tracing`` and Perfetto.  ``syscall:enter``/``exit`` pairs
  become complete ("X") duration slices; ``guard:check`` events become
  slices whose duration is the simulated guard cost; everything else is
  an instant event.
- :func:`to_perf_script` — the ``perf script``-style one-line-per-event
  text dump (what ``/proc/trace`` renders).
- :func:`to_folded` — Brendan Gregg folded stacks for flamegraph.pl:
  one ``frame;frame;frame count`` line per distinct guard stack, with
  ``carat_guard`` as the leaf frame.

:func:`write_artifacts` writes a trace subsystem's events through each
of them, plus its ``/proc/trace_stat`` dump, to files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

from .events import TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from .subsystem import TraceSubsystem

#: Trace Event Format phase codes this exporter emits / the validator accepts.
_PHASES = {"X", "i", "I", "B", "E", "M", "C"}

_ROOT_FRAME = "caratkop"
_GUARD_FRAME = "carat_guard"


def to_chrome_trace(
    events: Iterable[TraceEvent],
    freq_hz: Optional[float] = None,
    process_name: str = "caratkop-sim",
) -> dict:
    """Render events as a Trace Event Format document (JSON-ready dict)."""
    out: list[dict] = [{
        "ph": "M",
        "name": "process_name",
        "pid": 0,
        "tid": 0,
        "ts": 0,
        "args": {"name": process_name},
    }]
    open_syscalls: list[TraceEvent] = []
    for ev in events:
        if ev.name == "syscall:enter":
            open_syscalls.append(ev)
            continue
        if ev.name == "syscall:exit" and open_syscalls:
            enter = open_syscalls.pop()
            out.append({
                "ph": "X",
                "name": str(enter.args.get("name", "syscall")),
                "cat": "syscall",
                "pid": 0,
                "tid": 0,
                "ts": enter.ts_us,
                "dur": max(ev.ts_us - enter.ts_us, 0.0),
                "args": {**enter.args, **ev.args},
            })
            continue
        if ev.name == "guard:check":
            cycles = float(ev.args.get("cycles", 0.0) or 0.0)
            dur = cycles / freq_hz * 1e6 if freq_hz else 0.0
            args = dict(ev.args)
            if ev.stack:
                args["stack"] = list(ev.stack)
            out.append({
                "ph": "X",
                "name": _GUARD_FRAME,
                "cat": "guard",
                "pid": 0,
                "tid": 0,
                "ts": ev.ts_us,
                "dur": dur,
                "args": args,
            })
            continue
        out.append({
            "ph": "i",
            "s": "t",
            "name": ev.name,
            "cat": ev.category,
            "pid": 0,
            "tid": 0,
            "ts": ev.ts_us,
            "args": dict(ev.args),
        })
    # Unbalanced enters (snapshot taken mid-call) surface as instants.
    for enter in open_syscalls:
        out.append({
            "ph": "i",
            "s": "t",
            "name": enter.name,
            "cat": "syscall",
            "pid": 0,
            "tid": 0,
            "ts": enter.ts_us,
            "args": dict(enter.args),
        })
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: object) -> list[str]:
    """Schema-check a Trace Event Format document.

    Returns a list of problems; an empty list means the document is
    valid.  This is what the CI trace-smoke job runs against the
    artifact (``caratkop-trace validate``).
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        name = ev.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing 'name'")
        ph = ev.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
            continue
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)):
                problems.append(f"{where}: missing numeric 'ts'")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: 'X' event needs 'dur' >= 0")
        if ph in ("i", "I") and ev.get("s") not in (None, "t", "p", "g"):
            problems.append(f"{where}: bad instant scope {ev.get('s')!r}")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"{where}: missing integer {key!r}")
        if "args" in ev and not isinstance(ev["args"], dict):
            problems.append(f"{where}: 'args' must be an object")
    return problems


def to_perf_script(
    events: Iterable[TraceEvent], comm: str = "pktblast"
) -> str:
    """perf-script-style text: ``comm [cpu] time: name: k=v ...``."""
    lines = []
    for ev in events:
        args = " ".join(
            f"{k}={_fmt_value(k, v)}" for k, v in ev.args.items()
        )
        lines.append(
            f"{comm:>16} [000] {ev.ts_us / 1e6:12.6f}: {ev.name}: {args}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def _fmt_value(key: str, value) -> str:
    if key == "addr" and isinstance(value, int):
        return f"{value:#x}"
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def to_folded(events: Iterable[TraceEvent], weight: str = "hits") -> str:
    """Folded flamegraph stacks from guard:check events.

    ``weight`` is ``"hits"`` (one sample per check) or ``"cycles"``
    (samples proportional to attributed guard cost).  Every stack is
    rooted at ``caratkop`` and leafed at ``carat_guard``, so any
    rendered flamegraph's top frame set includes the guard itself.
    """
    if weight not in ("hits", "cycles"):
        raise ValueError("weight must be 'hits' or 'cycles'")
    folded: dict[str, int] = {}
    for ev in events:
        if ev.name != "guard:check":
            continue
        frames = [_ROOT_FRAME]
        if ev.stack:
            frames.extend(ev.stack)
        frames.append(_GUARD_FRAME)
        key = ";".join(frames)
        if weight == "hits":
            w = 1
        else:
            w = max(int(float(ev.args.get("cycles", 0.0) or 0.0)), 1)
        folded[key] = folded.get(key, 0) + w
    lines = [f"{stack} {count}" for stack, count in sorted(folded.items())]
    return "\n".join(lines) + ("\n" if lines else "")


def write_artifacts(
    trace: "TraceSubsystem",
    chrome: str | Path | None = None,
    folded: str | Path | None = None,
    perf: str | Path | None = None,
    stat: str | Path | None = None,
    process_name: str = "caratkop-sim",
    comm: str = "pktblast",
) -> list[str]:
    """Write ``trace``'s events as a chrome trace, folded stacks
    (weighted by guard cycles) and perf-script text (under ``comm``),
    and its ``/proc/trace_stat`` dump, each to its path if one is given.
    Returns the paths written, in that order."""
    events = trace.snapshot()
    renders = (
        (chrome, lambda: json.dumps(to_chrome_trace(
            events, freq_hz=trace.freq_hz, process_name=process_name))),
        (folded, lambda: to_folded(events, weight="cycles")),
        (perf, lambda: to_perf_script(events, comm=comm)),
        (stat, trace.render_stat),
    )
    written = []
    for path, render in renders:
        if path is not None:
            Path(path).write_text(render())
            written.append(str(path))
    return written


__all__ = [
    "to_chrome_trace",
    "to_folded",
    "to_perf_script",
    "validate_chrome_trace",
    "write_artifacts",
]
