"""Parallel-map executor: ordering, error capture, worker resolution."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.errors import ConvergenceError
from repro.runtime import (TaskError, TaskResult, get_shared, parallel_map,
                           resolve_workers)
from repro.runtime.executor import thread_budget


# Mapped functions must be module-level so they pickle by reference.

def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError(f"bad task {x}")
    return x


def _shared_plus(x):
    return get_shared() + x


def _thread_budget(_x):
    return thread_budget()


def _raise_convergence(x):
    raise ConvergenceError("no convergence", iterations=7,
                           residual=1e-3).with_context(cell="nand2", task=x)


# -- resolve_workers --------------------------------------------------------

def test_resolve_workers_argument_wins():
    assert resolve_workers(3) == 3


def test_resolve_workers_default_serial():
    assert resolve_workers(None) == 1
    assert resolve_workers() == 1


def test_resolve_workers_zero_means_cpu_count():
    assert resolve_workers(0) == (os.cpu_count() or 1)


def test_resolve_workers_negative_is_serial():
    assert resolve_workers(-3) == 1


# -- thread_budget ----------------------------------------------------------

def test_thread_budget_is_the_affinity_set_outside_a_pool(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    assert thread_budget() == 3


def test_thread_budget_is_one_inside_pool_workers(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    results = parallel_map(_thread_budget, [0, 1, 2], workers=2)
    assert [r.value for r in results] == [1, 1, 1]
    assert thread_budget() == 4


# -- ordering and determinism ----------------------------------------------

@pytest.mark.parametrize("workers", [1, 3])
def test_results_in_task_order(workers):
    tasks = list(range(20))
    results = parallel_map(_square, tasks, workers=workers)
    assert [r.index for r in results] == tasks
    assert [r.value for r in results] == [x * x for x in tasks]
    assert all(r.ok for r in results)


def test_parallel_matches_serial():
    tasks = list(range(12))
    serial = parallel_map(_square, tasks, workers=1)
    pooled = parallel_map(_square, tasks, workers=4)
    assert [r.value for r in serial] == [r.value for r in pooled]


def test_labels():
    results = parallel_map(_square, [2, 5], labels=["a", "b"])
    assert [r.label for r in results] == ["a", "b"]
    with pytest.raises(ValueError):
        parallel_map(_square, [1, 2], labels=["only-one"])


# -- error handling ---------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_on_error_raise_names_task(workers):
    with pytest.raises(TaskError, match=r"t3 failed: bad task 3") as info:
        parallel_map(_fail_on_three, [1, 2, 3, 4], workers=workers,
                     labels=["t1", "t2", "t3", "t4"])
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("workers", [1, 2])
def test_on_error_capture_keeps_going(workers):
    results = parallel_map(_fail_on_three, [1, 3, 5], workers=workers,
                           on_error="capture")
    assert [r.ok for r in results] == [True, False, True]
    assert results[0].value == 1 and results[2].value == 5
    with pytest.raises(ValueError):
        results[1].unwrap()


def test_invalid_on_error():
    with pytest.raises(ValueError):
        parallel_map(_square, [1], on_error="ignore")


# -- serial fallback --------------------------------------------------------

def test_serial_fallback_warns_once(monkeypatch, caplog):
    """A dead process pool degrades to serial with ONE logged warning."""
    import logging

    import repro.runtime.executor as executor

    class _NoPool:
        def __init__(self, *a, **k):
            raise OSError("no semaphores in this sandbox")

    monkeypatch.setattr(executor, "ProcessPoolExecutor", _NoPool)
    monkeypatch.setattr(executor, "_fallback_warned", False)
    with caplog.at_level(logging.WARNING, logger="repro.runtime.executor"):
        first = parallel_map(_square, [1, 2, 3], workers=4)
        second = parallel_map(_square, [4, 5], workers=4)
    assert [r.value for r in first] == [1, 4, 9]   # correct, just serial
    assert [r.value for r in second] == [16, 25]
    warnings = [r for r in caplog.records
                if "falling back to serial" in r.message]
    assert len(warnings) == 1                      # once per process
    assert "no semaphores" in warnings[0].message


def test_serial_run_does_not_warn(monkeypatch, caplog):
    import logging

    import repro.runtime.executor as executor

    monkeypatch.setattr(executor, "_fallback_warned", False)
    with caplog.at_level(logging.WARNING, logger="repro.runtime.executor"):
        parallel_map(_square, [1, 2], workers=1)
    assert not [r for r in caplog.records
                if "falling back to serial" in r.message]


# -- shared payload ---------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_shared_payload(workers):
    results = parallel_map(_shared_plus, [1, 2, 3], workers=workers,
                           shared=100)
    assert [r.value for r in results] == [101, 102, 103]


def test_shared_restored_after_serial_map():
    parallel_map(_shared_plus, [1], workers=1, shared=7)
    assert get_shared() is None


# -- ConvergenceError context across process boundaries ---------------------

def test_convergence_error_pickles_with_context():
    exc = ConvergenceError("stuck", iterations=12, residual=2.5e-7)
    exc.with_context(cell="nor3", slew=1e-4)
    clone = pickle.loads(pickle.dumps(exc))
    assert isinstance(clone, ConvergenceError)
    assert clone.iterations == 12
    assert clone.residual == 2.5e-7
    assert clone.context == {"cell": "nor3", "slew": 1e-4}
    assert "cell='nor3'" in str(clone)


def test_with_context_does_not_overwrite():
    exc = ConvergenceError("x").with_context(cell="inv")
    exc.with_context(cell="nand2", load=1e-12)
    assert exc.context == {"cell": "inv", "load": 1e-12}


@pytest.mark.parametrize("workers", [1, 2])
def test_convergence_context_survives_worker(workers):
    results = parallel_map(_raise_convergence, ["a", "b"], workers=workers,
                           on_error="capture")
    for r, task in zip(results, ("a", "b")):
        assert not r.ok
        assert isinstance(r.error, ConvergenceError)
        assert r.error.context["cell"] == "nand2"
        assert r.error.context["task"] == task
        assert r.error.iterations == 7


def test_task_result_unwrap_ok():
    assert TaskResult(index=0, label="t", value=42).unwrap() == 42


def _crash_in_worker(task):
    value, parent_pid = task
    if value == 2 and os.getpid() != parent_pid:
        os._exit(41)  # simulate an OOM kill: no exception, no cleanup
    return value * 10


def test_worker_crash_falls_back_to_serial(caplog):
    # Regression: a worker dying mid-map used to propagate
    # BrokenProcessPool out of parallel_map (only pool-*creation*
    # failures degraded to serial).  The map must complete with every
    # task's result, in order, and warn about the degradation.
    tasks = [(v, os.getpid()) for v in range(5)]
    with caplog.at_level("WARNING", logger="repro"):
        results = parallel_map(_crash_in_worker, tasks, workers=2)
    assert [r.unwrap() for r in results] == [0, 10, 20, 30, 40]
    assert any("worker process died" in r.getMessage()
               for r in caplog.records)


# -- shared-payload lifecycle (thread isolation, nesting, exceptions) --------

def test_shared_isolated_between_threads():
    """Regression: the shared payload was a module global, so two
    threads running serial maps concurrently (a library caller fanning
    work out over threads) observed each other's payloads — silent
    wrong results."""
    import threading

    from repro.runtime import executor

    barrier = threading.Barrier(2)
    seen: dict[str, object] = {}
    failures: list[BaseException] = []

    def probe(tag):
        # Rendezvous so both maps are in-flight, then read the payload
        # while the other thread's map has already set its own.
        barrier.wait(timeout=10)
        seen[tag] = executor.get_shared()
        barrier.wait(timeout=10)
        return tag

    def run(tag):
        try:
            parallel_map(probe, [tag], workers=1, shared=f"payload-{tag}")
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    threads = [threading.Thread(target=run, args=(t,)) for t in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not failures
    assert seen == {"a": "payload-a", "b": "payload-b"}
    assert get_shared() is None


def _outer_with_nested_map(x):
    inner = parallel_map(_shared_plus, [x], workers=1, shared=1000)
    return get_shared(), inner[0].value


def test_nested_serial_map_restores_outer_shared():
    results = parallel_map(_outer_with_nested_map, [5], workers=1, shared=7)
    outer_shared_after_inner, inner_value = results[0].value
    assert inner_value == 1005           # inner map saw its own payload
    assert outer_shared_after_inner == 7  # ...and restored the outer one
    assert get_shared() is None


def test_shared_restored_when_map_raises():
    with pytest.raises(TaskError):
        parallel_map(_fail_on_three, [3], workers=1, shared=13)
    assert get_shared() is None


def test_shared_restored_when_progress_begin_raises(monkeypatch):
    """Regression: progress.begin sat outside the serial path's
    try/finally, so an exception there skipped the payload restore."""
    from repro.runtime import progress

    monkeypatch.setattr(progress, "ENABLED", True)
    monkeypatch.setattr(progress, "begin",
                        lambda *a, **k: (_ for _ in ()).throw(
                            RuntimeError("boom")))
    with pytest.raises(RuntimeError, match="boom"):
        parallel_map(_square, [1, 2], workers=1, shared=99)
    assert get_shared() is None

