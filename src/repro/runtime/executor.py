"""Process-pool map with deterministic ordering and error capture.

The depth/width/DSE sweeps' simulations are an embarrassingly
parallel outer loop around an expensive, picklable, side-effect-free
function.  :func:`parallel_map` runs them:

- results come back **in task order**, regardless of completion order, so
  parallel runs are bit-identical to serial runs;
- the worker count is the ``workers`` argument, serial (``1``) when it
  is ``None``: the caller decides where fan-out pays (the sweeps fan
  out only when the IPC kernel runs the reference loop, see
  :func:`repro.core.tradeoffs.sweep_workers`); kernel lane threads
  follow :func:`thread_budget` (every usable CPU, one inside a pool
  worker);
- ``workers=0`` asks for one worker per CPU;
- worker exceptions do not abort the whole map: each task's error is
  captured in its :class:`TaskResult` and re-raised (or reported) by the
  caller, labelled with the task that failed;
- when a pool cannot be created at all (restricted environments, missing
  semaphores), the map degrades to serial execution, logging a
  once-per-process warning so an unexpectedly slow sweep is diagnosable;
- when a worker process **dies** mid-map (crash, OOM kill), the whole map
  re-runs serially in the parent — mapped functions are side-effect-free
  by contract, so no task is dropped and no caller ever hangs on a broken
  pool; the degradation is logged every time it happens;
- when telemetry is enabled in the parent, each task additionally
  returns a :mod:`repro.runtime.telemetry` registry snapshot (collected
  on a per-task-reset registry, so it is exactly that task's delta) and
  the parent merges the snapshots **in task order** — metrics and stage
  breakdowns are therefore complete and deterministic at any worker
  count.

Workers are plain ``fork``/``spawn`` processes: the mapped function and its
arguments must be picklable.  Use :func:`functools.partial` over module-level
functions, not closures.

The parent-side ``shared`` payload is **thread-local** and restored when
a map returns or raises, so a nested map hands the outer payload back and
library callers running maps on their own threads never observe each
other's payloads.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.runtime import progress, telemetry
from repro.runtime.log import get_logger

_logger = get_logger(__name__)

#: Set once the serial-fallback warning has been emitted, so a sweep with
#: hundreds of parallel_map calls reports the degradation exactly once.
_fallback_warned = False

#: True inside a :func:`parallel_map` pool worker (set by its initializer).
_IN_WORKER = False

__all__ = ["TaskError", "TaskResult", "get_shared", "parallel_map",
           "resolve_workers", "thread_budget"]

#: Read-only payload of the enclosing :func:`parallel_map` call.
#: Thread-local in the parent: a library caller may run maps on several
#: threads at once, and a module global would leak one map's
#: library/traces into another's tasks (a silent wrong-results bug, not
#: a crash).  Pool workers run tasks on their main thread, so the
#: initializer's value is visible there too.
_SHARED_TLS = threading.local()


def _init_shared(obj: Any) -> None:
    _SHARED_TLS.value = obj


def _init_worker(shared: Any) -> None:
    global _IN_WORKER
    _IN_WORKER = True
    _init_shared(shared)


def get_shared() -> Any:
    """The ``shared`` object of the enclosing :func:`parallel_map` call.

    Valid inside a mapped function (both serial and pooled execution).
    """
    return getattr(_SHARED_TLS, "value", None)


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one task of a :func:`parallel_map` call."""

    index: int
    label: str
    value: Any = None
    error: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> Any:
        """Return the value, re-raising the captured worker error if any."""
        if self.error is not None:
            raise self.error
        return self.value


class TaskError(RuntimeError):
    """Raised by :meth:`parallel_map` when ``on_error='raise'`` and a task
    failed; chains the original worker exception."""


def resolve_workers(workers: int | None = None) -> int:
    """Effective worker count: the argument, ``None`` meaning serial.

    ``0`` means one worker per available CPU; negative counts run
    serially.
    """
    if workers is None:
        return 1
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, workers)


def thread_budget() -> int:
    """Threads one kernel call may use: 1 inside a pool worker (the
    fan-out owns the CPUs), else the CPUs this process may run on."""
    if _IN_WORKER:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):         # no affinity API (macOS)
        return os.cpu_count() or 1


def _run_one(fn: Callable[..., Any], task: Any,
             collect: bool | None = None
             ) -> tuple[Any, BaseException | None, dict | None]:
    """Run one task; optionally collect and return a telemetry snapshot.

    *collect* is ``None`` in-process (instrumentation writes straight
    into the caller's registry) and the parent's ``telemetry.ENABLED``
    in pool workers.  ``True`` makes the worker reset its registry
    before the task (fork inherits the parent's accumulations; a reused
    worker holds earlier tasks' — both would double-count), enable
    collection, and ship the resulting per-task delta back.
    """
    snap: dict | None = None
    if collect:
        telemetry.reset()
        telemetry.enable(True)
    try:
        value, error = fn(task), None
    except Exception as exc:  # noqa: BLE001 - captured and re-raised by caller
        value, error = None, exc
    if collect:
        snap = telemetry.snapshot()
    return value, error, snap


def parallel_map(fn: Callable[[Any], Any], tasks: Sequence[Any],
                 *, workers: int | None = None,
                 labels: Iterable[str] | None = None,
                 on_error: str = "raise",
                 shared: Any = None,
                 phase: str | None = None) -> list[TaskResult]:
    """Apply *fn* to every task, possibly across worker processes.

    Parameters
    ----------
    fn:
        Picklable callable of one argument (module-level function or
        :func:`functools.partial` thereof).
    tasks:
        Sequence of picklable task descriptions.
    workers:
        Worker process count; see :func:`resolve_workers`.  With one worker
        the map runs in-process (no pool, no pickling).
    labels:
        Optional human-readable label per task, used in error reports.
    on_error:
        ``'raise'`` (default) re-raises the first failing task's exception
        (in task order) wrapped in :class:`TaskError` naming the task;
        ``'capture'`` returns all results and leaves error handling to the
        caller.
    shared:
        Optional read-only payload pickled **once per worker process**
        instead of once per task; the mapped function reads it back with
        :func:`get_shared`.  Use this for large invariants (a characterised
        library, benchmark traces) shared by every task.
    phase:
        Optional :mod:`repro.runtime.progress` phase name for the
        per-task heartbeat; defaults to the mapped function's name.

    Returns
    -------
    list[TaskResult] in the same order as *tasks*.
    """
    if on_error not in ("raise", "capture"):
        raise ValueError(f"on_error must be 'raise' or 'capture', got {on_error!r}")
    tasks = list(tasks)
    label_list = [str(lbl) for lbl in labels] if labels is not None else \
        [f"task[{i}]" for i in range(len(tasks))]
    if len(label_list) != len(tasks):
        raise ValueError("labels must match tasks in length")

    n_workers = resolve_workers(workers)
    phase_name = phase or getattr(fn, "__name__", None) or getattr(
        getattr(fn, "func", None), "__name__", None) or "parallel_map"
    outcomes: list[tuple[Any, BaseException | None, dict | None]] | None = None
    if n_workers > 1 and len(tasks) > 1:
        collect = telemetry.ENABLED
        pool_size = min(n_workers, len(tasks))
        try:
            with ProcessPoolExecutor(
                    max_workers=pool_size,
                    initializer=_init_worker, initargs=(shared,)) as pool:
                # pool.map yields results in task order as they complete;
                # consuming lazily lets the parent heartbeat per task.
                ph = progress.begin(phase_name, len(tasks)) \
                    if progress.ENABLED else None
                try:
                    outcomes = []
                    for outcome in pool.map(_run_one, [fn] * len(tasks),
                                            tasks, [collect] * len(tasks)):
                        outcomes.append(outcome)
                        progress.update(ph)
                finally:
                    progress.end(ph)
            # Graft every task's metrics delta into this process, in task
            # order, under the span enclosing this parallel_map call.
            if collect:
                prefix = telemetry.current_path()
                for i, (_value, _error, snap) in enumerate(outcomes):
                    if snap:
                        telemetry.merge_snapshot(snap, prefix=prefix,
                                                 task=i, workers=pool_size)
        except BrokenProcessPool as exc:
            # A worker process died mid-map (crash, OOM kill, os._exit).
            # The mapped functions are side-effect-free by contract, so
            # nothing is lost by re-running the whole map serially in
            # this process: no task is dropped, no deadlock, and per-task
            # errors are still captured individually.  Warned every time
            # — a dying worker is an exceptional event worth surfacing —
            # and later maps still get to try a fresh pool.
            _logger.warning(
                "parallel_map: a worker process died (%s); re-running all "
                "%d task(s) serially in this process", exc, len(tasks))
            outcomes = None
        except (OSError, PermissionError, ImportError) as exc:
            # Restricted environment (no semaphores / fork denied): degrade
            # to serial rather than failing the analysis.
            global _fallback_warned
            if not _fallback_warned:
                _fallback_warned = True
                _logger.warning(
                    "parallel_map: cannot create a %d-worker process pool "
                    "(%s: %s); falling back to serial execution for this "
                    "and later maps in this process",
                    n_workers, type(exc).__name__, exc)
            outcomes = None
    if outcomes is None:
        # Serial path.  The previous shared payload is restored in a
        # finally of its own: a nested map must hand the outer payload
        # back, and an exception anywhere (including progress.begin)
        # must not leave a stale payload behind for the next map on
        # this thread.
        previous_shared = get_shared()
        ph = None
        try:
            if shared is not None:
                _init_shared(shared)
            ph = progress.begin(phase_name, len(tasks)) \
                if progress.ENABLED and len(tasks) > 1 else None
            outcomes = []
            for task in tasks:
                outcomes.append(_run_one(fn, task))
                progress.update(ph)
        finally:
            try:
                progress.end(ph)
            finally:
                _init_shared(previous_shared)

    results = [TaskResult(index=i, label=label_list[i], value=value, error=error)
               for i, (value, error, _snap) in enumerate(outcomes)]
    if on_error == "raise":
        for result in results:
            if result.error is not None:
                raise TaskError(
                    f"{result.label} failed: {result.error}") from result.error
    return results
