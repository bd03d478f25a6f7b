"""Chrome Trace Event export for telemetry span trees.

Converts the merged span tree a run report carries (parent-process
spans plus the worker-task subtrees :func:`telemetry.merge_snapshot`
grafts back in task order) into the Trace Event JSON format that
``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_ load:
one ``"X"`` (complete) event per span, ``ts``/``dur`` in microseconds,
span metadata in ``args``.

**Track layout.**  The parent process renders as track ``main``
(tid 0).  Worker-task subtrees are laid out on ``worker-K`` tracks by
the *deterministic* round-robin ``K = task_index % workers``, where
*workers* is the size of the pool that ran the task, with a
per-track time cursor that places each task's subtree after the
previous one on its track, starting at the launching span's start.
This is a reconstruction of the deterministic task schedule — task
order and worker count only, never actual OS interleaving — so the
same run report always exports byte-identical JSON, and two reports of
the same workload differ only in measured durations.  Worker span
durations are the workers' real measured wall-clock.

**Counter annotations.**  The report's native-kernel and solver
counters (``backend.native.*``, ``ensemble.*``, ``ipc.*``) are
attached as a global instant event (``native-counters``) plus
``otherData``, so the numbers that explain the ``solve`` bucket ride
along with the timeline.

``canonical=True`` strips timestamps, tracks, and worker bookkeeping
meta from the events, leaving the pure task-ordered event sequence —
the exporter's determinism contract (``workers=1`` and ``N`` produce
the identical canonical sequence) is tested against it.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "chrome_trace",
    "default_trace_path",
    "trace_events",
    "write_trace",
]

#: Counter-name prefixes attached to the trace as annotations.
COUNTER_PREFIXES = ("backend.native.", "ensemble.", "ipc.", "solver.")


def _us(seconds: float) -> float:
    """Seconds -> integer-ish microseconds (stable under JSON round-trip)."""
    return round(seconds * 1e6, 3)


def _span_event(node: dict, offset: float, tid: int,
                canonical: bool) -> dict:
    meta = dict(node.get("meta", {}))
    if canonical:
        meta.pop("task", None)
        meta.pop("workers", None)
        meta.pop("worker_task", None)
        event = {"name": node.get("name", "?"), "ph": "X", "pid": 0,
                 "tid": 0, "ts": 0, "dur": 0}
    else:
        event = {
            "name": node.get("name", "?"),
            "ph": "X",
            "pid": 0,
            "tid": tid,
            "ts": _us(offset + float(node.get("t_start", 0.0))),
            "dur": _us(float(node.get("seconds", 0.0))),
        }
    if meta:
        event["args"] = meta
    return event


def _walk(node: dict, offset: float, tid: int, tracks: set[int],
          events: list[dict], canonical: bool) -> None:
    events.append(_span_event(node, offset, tid, canonical))
    start = offset + float(node.get("t_start", 0.0))
    cursors: dict[int, float] = {}
    for child in node.get("children", ()):
        meta = child.get("meta", {})
        if meta.get("worker_task"):
            task = int(meta.get("task", 0))
            track = 1 + task % max(1, int(meta.get("workers", 1)))
            tracks.add(track)
            cursor = cursors.get(track, start)
            _walk(child, cursor, track, tracks, events, canonical)
            cursors[track] = cursor + float(child.get("t_start", 0.0)) \
                + float(child.get("seconds", 0.0))
        else:
            _walk(child, offset, tid, tracks, events, canonical)


def _annotation_counters(report: dict) -> dict:
    counters = report.get("metrics", {}).get("counters", {})
    return {name: value for name, value in sorted(counters.items())
            if name.startswith(COUNTER_PREFIXES)}


def trace_events(report: dict, canonical: bool = False) -> list[dict]:
    """The Trace Event list for *report* (see module docstring)."""
    spans: list[dict] = []
    tracks: set[int] = set()
    for root in report.get("span_tree", ()):
        _walk(root, 0.0, 0, tracks, spans, canonical)
    events: list[dict] = []
    if not canonical:
        target = str(report.get("target", "run"))
        events.append({"name": "process_name", "ph": "M", "pid": 0,
                       "tid": 0, "args": {"name": f"repro:{target}"}})
        events.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": 0, "args": {"name": "main"}})
        for tid in sorted(tracks):
            events.append({"name": "thread_name", "ph": "M", "pid": 0,
                           "tid": tid,
                           "args": {"name": f"worker-{tid - 1}"}})
    events += spans
    counters = _annotation_counters(report)
    if counters and not canonical:
        events.append({"name": "native-counters", "ph": "i", "s": "g",
                       "pid": 0, "tid": 0, "ts": 0, "args": counters})
    return events


def chrome_trace(report: dict, canonical: bool = False) -> dict:
    """Full Chrome Trace JSON document (object form) for *report*."""
    doc = {
        "traceEvents": trace_events(report, canonical=canonical),
        "displayTimeUnit": "ms",
    }
    if not canonical:
        doc["otherData"] = {
            "target": report.get("target"),
            "timestamp": report.get("timestamp"),
            "schema": report.get("schema"),
            "counters": _annotation_counters(report),
        }
    return doc


def default_trace_path(report_path: str | Path) -> Path:
    """``foo.json`` -> ``foo.trace.json`` next to the report."""
    path = Path(report_path)
    return path.with_name(path.stem + ".trace.json")


def write_trace(report: dict, path: str | Path) -> Path:
    """Write the Chrome trace for *report* to *path* and return it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(report),
                               separators=(",", ":"),
                               sort_keys=False) + "\n")
    return path
