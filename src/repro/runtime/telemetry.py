"""Process-aware telemetry: metrics registry plus hierarchical spans.

The pipeline spans four instrumentation-blind layers (scalar/ensemble
SPICE solves, NLDM characterisation, STA/synthesis, IPC sweeps) that fan
out across worker processes and a persistent result cache.  This module
is their shared observability substrate:

- a **metrics registry** with three instrument kinds —

  * *counters* (monotonic integers: Newton iterations, LTE rejections,
    cache hits),
  * *timers* (accumulated wall-clock seconds + call counts; the
    ``solver.<stage>`` timers of :data:`STAGES` are the per-layer
    breakdown every run report carries),
  * *distributions* (count/sum/min/max summaries of observed values:
    ensemble batch occupancy, cycles per simulation);

- **hierarchical spans**: nested timed regions forming a tree per
  process (``with telemetry.span("characterize:nand2"): ...``), with a
  flat per-path total view (:func:`span_totals`) that survives
  cross-process aggregation;

- **deterministic cross-process merge**: worker processes serialise a
  registry snapshot per task back through ``parallel_map``'s result
  channel and the parent folds them in **task order**
  (:func:`merge_snapshot`), so integer metrics are bit-identical to a
  serial run whatever the worker count.  Worker span paths are grafted
  under the parent's span active at the ``parallel_map`` call site.

Cost model: the *disabled* hot path is one module-attribute load and
branch per instrumentation site, and sites sit at natural aggregation
boundaries — per solve, per batch, per run — never inside per-iteration
inner loops; counts accumulate in locals and flush once.  The one
exception is the SPICE stage entry points (``solver.stamp`` / ``solve``
/ ``rhs`` / ...), which run per Newton iteration or timestep so the
stage breakdown can split a solve; the ``telemetry_overhead`` bench
holds them, with everything else, to its 2 % budget.  The enabled path
appends to plain dicts.

Stage time has one booking mechanism: :func:`timed`, placed on the
definition of each layer's entry points.  It books *self time* — a
call's duration minus the time spent in nested ``timed`` calls — so
nested stages never double-count and no caller subtracts a callee's
time by hand.

Collection is off until a driver — the ``python -m repro`` CLI,
``run_bench --profile``/``--report`` — calls :func:`enable`.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "ENABLED",
    "ProfileAccountingError",
    "STAGES",
    "breakdown",
    "count",
    "counters",
    "current_path",
    "enable",
    "merge_snapshot",
    "observe",
    "reset",
    "snapshot",
    "span",
    "span_totals",
    "span_tree",
    "stage_seconds",
    "timed",
    "timers",
    "warn",
    "warnings",
]

#: Hot-path guard: instrumentation sites only touch the registry when
#: this is True.  One attribute load + branch when telemetry is off.
ENABLED = False

#: Separator used in flattened span paths ("fig11/characterize/cell:inv").
PATH_SEP = "/"

#: The clock :func:`timed` reads, looked up on this module at each call
#: so a test can substitute a fake one.
_clock = time.perf_counter


class _Span:
    """One node of the span tree (name, relative start, duration, children)."""

    __slots__ = ("name", "t_start", "seconds", "children", "meta")

    def __init__(self, name: str, t_start: float) -> None:
        self.name = name
        self.t_start = t_start
        self.seconds = 0.0
        self.children: list[_Span] = []
        self.meta: dict[str, Any] = {}

    def to_dict(self) -> dict:
        node = {
            "name": self.name,
            "t_start": round(self.t_start, 6),
            "seconds": round(self.seconds, 6),
        }
        if self.meta:
            node["meta"] = dict(self.meta)
        if self.children:
            node["children"] = [c.to_dict() for c in self.children]
        return node

    @classmethod
    def from_dict(cls, node: dict) -> "_Span":
        span = cls(str(node.get("name", "?")),
                   float(node.get("t_start", 0.0)))
        span.seconds = float(node.get("seconds", 0.0))
        span.meta = dict(node.get("meta", {}))
        span.children = [cls.from_dict(c) for c in node.get("children", ())]
        return span


class _Registry:
    """The per-process metric store.  One instance per process."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timers: dict[str, list[float]] = {}   # name -> [seconds, calls]
        self.dists: dict[str, list[float]] = {}    # name -> [n, sum, min, max]
        self.roots: list[_Span] = []
        self._tls = threading.local()
        self.span_totals: dict[str, list[float]] = {}  # path -> [count, secs]
        self.warnings: list[str] = []
        self.epoch = time.perf_counter()

    @property
    def stack(self) -> list[_Span]:
        """This thread's open-span stack.

        Thread-local so library callers timing work on several threads
        each build their own span hierarchy instead of corrupting one
        shared stack; counters/timers/roots stay registry-wide (their
        updates are associative and append-only).
        """
        stack = getattr(self._tls, "spans", None)
        if stack is None:
            stack = self._tls.spans = []
        return stack

    @property
    def frames(self) -> list[list[float]]:
        """This thread's open :func:`timed` frames, innermost last.

        Each frame is a one-element list holding the seconds its nested
        timed calls took, which its own booking subtracts.
        """
        frames = getattr(self._tls, "frames", None)
        if frames is None:
            frames = self._tls.frames = []
        return frames

    # -- instruments --------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def time_add(self, name: str, seconds: float, calls: int = 1) -> None:
        cell = self.timers.get(name)
        if cell is None:
            self.timers[name] = [seconds, calls]
        else:
            cell[0] += seconds
            cell[1] += calls

    def observe(self, name: str, value: float) -> None:
        cell = self.dists.get(name)
        if cell is None:
            self.dists[name] = [1, value, value, value]
        else:
            cell[0] += 1
            cell[1] += value
            if value < cell[2]:
                cell[2] = value
            if value > cell[3]:
                cell[3] = value

    def warn(self, message: str) -> None:
        self.warnings.append(str(message))

    # -- spans ---------------------------------------------------------------

    def span_path(self) -> str:
        return PATH_SEP.join(s.name for s in self.stack)

    def open_span(self, name: str) -> _Span:
        node = _Span(name, time.perf_counter() - self.epoch)
        if self.stack:
            self.stack[-1].children.append(node)
        else:
            self.roots.append(node)
        self.stack.append(node)
        return node

    def close_span(self, node: _Span, t0: float) -> None:
        node.seconds = time.perf_counter() - t0
        # Tolerate exceptions having unwound intermediate spans.
        while self.stack and self.stack[-1] is not node:
            self.stack.pop()
        if self.stack:
            self.stack.pop()
        path = (PATH_SEP.join([self.span_path(), node.name])
                if self.stack else node.name)
        cell = self.span_totals.get(path)
        if cell is None:
            self.span_totals[path] = [1, node.seconds]
        else:
            cell[0] += 1
            cell[1] += node.seconds


_REG = _Registry()


def enable(flag: bool = True) -> None:
    """Turn collection on/off (leaves accumulated data in place)."""
    global ENABLED
    ENABLED = bool(flag)


def reset() -> None:
    """Drop all accumulated metrics, spans and warnings."""
    global _REG
    _REG = _Registry()


# -- module-level instrument helpers (call only behind an ENABLED check
#    on hot paths; cold paths may call unconditionally) ----------------------

def count(name: str, n: int = 1) -> None:
    """Add *n* to counter *name*."""
    if ENABLED:
        _REG.count(name, n)


def timed(name: str) -> Callable[[Callable], Callable]:
    """Decorator booking the self time of every call into timer *name*.

    Self time is the call's duration minus the time spent in nested
    ``timed`` calls, which book their own, so entry points may call
    each other in any order and the stage sum still never exceeds wall
    time; same-stage nesting books the outer call's duration once.  The
    frame stack is per thread and unwinds on exceptions.

    Disabled, a call costs one extra frame plus the ``ENABLED`` branch.
    """
    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed_call(*args, **kwargs):
            if not ENABLED:
                return fn(*args, **kwargs)
            frames = _REG.frames
            frame = [0.0]
            frames.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                _REG.time_add(name, elapsed - frame[0])
        return timed_call
    return decorate


def observe(name: str, value: float) -> None:
    """Fold *value* into the count/sum/min/max summary of *name*."""
    if ENABLED:
        _REG.observe(name, float(value))


def warn(message: str) -> None:
    """Record a warning line for the run report (always collected)."""
    _REG.warn(message)


@contextmanager
def span(name: str, **meta) -> Iterator[None]:
    """A timed hierarchical region; nests under the enclosing span.

    No-op (and allocation-free) while telemetry is disabled.
    """
    if not ENABLED:
        yield
        return
    node = _REG.open_span(name)
    if meta:
        node.meta.update(meta)
    t0 = time.perf_counter()
    try:
        yield
    finally:
        _REG.close_span(node, t0)


def current_path() -> str:
    """Flattened path of the innermost open span ('' at top level)."""
    return _REG.span_path()


# -- snapshots and deterministic merge ---------------------------------------

def snapshot() -> dict:
    """Serialisable copy of the registry (ships across process pools).

    Workers call this once per task (on a freshly reset registry, so the
    snapshot *is* the task's delta); the parent merges snapshots in task
    order with :func:`merge_snapshot`.  Open spans are not included —
    only completed spans have defined durations.
    """
    return {
        "counters": dict(_REG.counters),
        "timers": {k: list(v) for k, v in _REG.timers.items()},
        "dists": {k: list(v) for k, v in _REG.dists.items()},
        "span_totals": {k: list(v) for k, v in _REG.span_totals.items()},
        "span_tree": [root.to_dict() for root in _REG.roots],
        "warnings": list(_REG.warnings),
    }


def merge_snapshot(snap: dict, prefix: str | None = None,
                   task: int | None = None,
                   workers: int | None = None) -> None:
    """Fold a worker snapshot into this process's registry.

    Counters/timers/span totals add; distributions merge count/sum and
    take elementwise min/max — all associative and applied in task
    order, so the merged totals are independent of worker scheduling.
    *prefix* (default: the caller's current span path) grafts the
    worker's span paths under the span that launched the workers.

    The worker's completed **span tree** is grafted as child nodes of
    the currently open span (or as new roots at top level), each tagged
    ``meta["task"] = task`` and ``meta["workers"] = workers`` (the
    launching pool's size) so the trace exporter can reconstruct the
    deterministic worker schedule.  Worker ``t_start`` values are
    relative to the worker task's own epoch, not the parent's.
    """
    if prefix is None:
        prefix = _REG.span_path()
    for node in snap.get("span_tree", ()):
        span = _Span.from_dict(node)
        if task is not None:
            span.meta.setdefault("task", task)
        if workers is not None:
            span.meta.setdefault("workers", workers)
        span.meta.setdefault("worker_task", True)
        if _REG.stack:
            _REG.stack[-1].children.append(span)
        else:
            _REG.roots.append(span)
    for name, n in snap.get("counters", {}).items():
        _REG.count(name, n)
    for name, (seconds, calls) in snap.get("timers", {}).items():
        _REG.time_add(name, seconds, int(calls))
    for name, (n, total, lo, hi) in snap.get("dists", {}).items():
        cell = _REG.dists.get(name)
        if cell is None:
            _REG.dists[name] = [n, total, lo, hi]
        else:
            cell[0] += n
            cell[1] += total
            if lo < cell[2]:
                cell[2] = lo
            if hi > cell[3]:
                cell[3] = hi
    for path, (n, seconds) in snap.get("span_totals", {}).items():
        full = f"{prefix}{PATH_SEP}{path}" if prefix else path
        cell = _REG.span_totals.get(full)
        if cell is None:
            _REG.span_totals[full] = [n, seconds]
        else:
            cell[0] += n
            cell[1] += seconds
    for message in snap.get("warnings", []):
        _REG.warn(message)


# -- read-side views ----------------------------------------------------------

def counters() -> dict[str, int]:
    """Copy of all counters."""
    return dict(_REG.counters)


def timers() -> dict[str, dict[str, float]]:
    """``{name: {"seconds": s, "calls": n}}`` for all timers."""
    return {k: {"seconds": v[0], "calls": int(v[1])}
            for k, v in _REG.timers.items()}


def distributions() -> dict[str, dict[str, float]]:
    """``{name: {count, sum, min, max, mean}}`` for all distributions."""
    out = {}
    for k, (n, total, lo, hi) in _REG.dists.items():
        out[k] = {"count": int(n), "sum": total, "min": lo, "max": hi,
                  "mean": total / n if n else 0.0}
    return out


def span_totals() -> dict[str, dict[str, float]]:
    """Flat per-path ``{count, seconds}`` totals (includes worker spans)."""
    return {k: {"count": int(v[0]), "seconds": v[1]}
            for k, v in sorted(_REG.span_totals.items())}


def span_tree() -> list[dict]:
    """This process's completed top-level spans as nested dicts."""
    return [root.to_dict() for root in _REG.roots]


def warnings() -> list[str]:
    """Warning lines recorded (or merged from workers) this run."""
    return list(_REG.warnings)


def metrics_snapshot() -> dict:
    """Everything a run report embeds: counters, timers, distributions."""
    return {
        "counters": dict(sorted(_REG.counters.items())),
        "timers": {k: v for k, v in sorted(timers().items())},
        "distributions": {k: v for k, v in
                          sorted(distributions().items())},
    }


@contextmanager
def collecting() -> Iterator[None]:
    """Enable collection on a fresh registry for the duration of a block."""
    reset()
    enable(True)
    try:
        yield
    finally:
        enable(False)


# -- solver stage breakdown ---------------------------------------------------

#: The layers a run's wall time is split into, each booked as the timer
#: ``solver.<stage>`` by :func:`timed` on that layer's entry points
#: (DESIGN §7d lists them).  Stages book self time, so they are
#: disjoint however the entry points nest:
#:
#: - ``stamp`` — residual/Jacobian assembly (scalar and ensemble MNA),
#:   less the device kernels it calls;
#: - ``device_eval`` — batched device-model kernels;
#: - ``solve`` — Newton iterations and linear solves: the scalar and
#:   ensemble Newton loops less their stamping, and the whole native
#:   per-iteration and whole-timestep kernels, which fuse stamping,
#:   device evaluation and step control into the solve;
#: - ``rhs`` / ``probe`` — the ensemble sources and threshold-crossing
#:   probes;
#: - ``step_control`` — the ensemble transient loop's own time: timestep
#:   control, warm-start prediction, Newton-failure halving and LTE
#:   rejection;
#: - ``cache`` — result-cache lookups and writes, wherever they happen;
#: - ``netlist`` / ``mapping`` / ``sta`` — generic netlist construction,
#:   technology mapping and static timing;
#: - ``structures`` — the structure-model arithmetic of
#:   :mod:`repro.core.physical`;
#: - ``ipc`` — :func:`repro.core.superscalar.simulate`, any kernel;
#: - ``pipeline`` — pipeline cutting in ``pipeline_sweep``.
#:
#: Whatever no stage accounts for is the derived ``overhead`` line.
STAGES = ("stamp", "device_eval", "solve", "rhs", "probe", "step_control",
          "cache", "netlist", "mapping", "sta", "structures", "ipc",
          "pipeline")


class ProfileAccountingError(RuntimeError):
    """Stage timers sum to more than the measured wall time.

    Raised by :func:`breakdown`: some stage is being double-counted.
    :func:`timed` keeps one process's stages disjoint, so the usual
    cause is stage time merged from pool workers into a region whose
    wall time they ran in parallel.  Without this check ``overhead``
    would clamp to zero and the double-count would ship silently.
    """


#: Slack before :func:`breakdown` declares a double-count: per-call timer
#: granularity legitimately pushes the stage sum a little past wall time,
#: but a double-counted stage overshoots by its whole runtime.
_SUM_SLACK_FRACTION = 0.02
_SUM_SLACK_SECONDS = 2e-3


def stage_seconds() -> dict[str, float]:
    """Accumulated seconds of every stage in :data:`STAGES` (0 if unbooked)."""
    return {stage: _REG.timers.get(f"solver.{stage}", (0.0,))[0]
            for stage in STAGES}


def breakdown(total_seconds: float, check: bool = True,
              stages: dict[str, float] | None = None) -> dict[str, float]:
    """Per-stage seconds of a region plus its derived ``overhead`` line.

    *stages* is a ``{stage: seconds}`` map — typically the difference of
    two :func:`stage_seconds` calls around the region — and defaults to
    everything booked so far.  With *check*, a stage sum beyond
    *total_seconds* (plus slack) raises :class:`ProfileAccountingError`.
    """
    if stages is None:
        stages = stage_seconds()
    out = {stage: stages[stage] for stage in STAGES}
    tracked = sum(out.values())
    out = {stage: round(seconds, 4) for stage, seconds in out.items()}
    if check and tracked > (total_seconds * (1.0 + _SUM_SLACK_FRACTION)
                            + _SUM_SLACK_SECONDS):
        raise ProfileAccountingError(
            f"profiled stages sum to {tracked:.4f}s but the region's wall "
            f"time is only {total_seconds:.4f}s — a stage is being "
            f"double-counted (stages: {out})")
    out["overhead"] = round(max(0.0, total_seconds - tracked), 4)
    return out
