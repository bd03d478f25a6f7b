"""Seeded fault-injection primitives for the validation layer.

Each primitive patches exactly one failure point the runtime claims to
survive — a worker process dying mid-map, a cache entry corrupted on
disk, a Newton solve that cannot converge, a machine with no C
toolchain — and restores the patched state on exit.  The fault checks in
:mod:`repro.validate.fault_checks` drive these and assert the documented
degradation actually happens: fallback instead of hang, recompute
instead of poisoned result, a structured event trail instead of a bare
stack trace.

The primitives are deliberately importable on their own (no check
framework dependency) so regression tests can reuse them directly.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterator

from repro.core import ipc_native
from repro.runtime import native_build
from repro.runtime.cache import ResultCache

#: Exit code used by :func:`crashy_double` so a genuine crash is
#: distinguishable from an ordinary worker exception in post-mortems.
CRASH_EXIT_CODE = 43


def crashy_double(task: tuple[int, int, int]) -> int:
    """Double ``value`` — but die (hard) on one task when run in a worker.

    *task* is ``(value, crash_on, parent_pid)``.  When ``value ==
    crash_on`` **and** the executing process is not the parent, the
    process exits with :data:`CRASH_EXIT_CODE` via :func:`os._exit` — no
    exception, no cleanup, exactly what an OOM kill looks like to the
    pool.  In the parent (the serial fallback re-run) every task
    computes normally, so a correct fallback yields complete results.

    Module-level and argument-picklable by design: ``parallel_map``
    ships it to spawn/fork workers.
    """
    value, crash_on, parent_pid = task
    if value == crash_on and os.getpid() != parent_pid:
        os._exit(CRASH_EXIT_CODE)
    return 2 * value


def corrupt_cache_entry(cache: ResultCache, category: str, key: str,
                        mode: str = "truncate") -> Path:
    """Damage a stored cache entry in place; returns the entry path.

    ``mode='truncate'`` cuts the JSON payload mid-token (a crash during
    a non-atomic write); ``mode='garbage'`` overwrites it with bytes
    that are not JSON at all (disk corruption, foreign file).
    """
    path = cache.path_for(category, key)
    if not path.exists():
        raise FileNotFoundError(f"no cache entry to corrupt at {path}")
    if mode == "truncate":
        text = path.read_text()
        path.write_text(text[: max(1, len(text) // 2)].rstrip("}"))
    elif mode == "garbage":
        path.write_bytes(b"\x00\xffnot json\xfe" * 3)
    else:
        raise ValueError(f"mode must be 'truncate' or 'garbage', got {mode!r}")
    return path


@contextmanager
def strangled_newton(max_iterations: int = 1) -> Iterator[None]:
    """Force every Newton solve to give up after *max_iterations*.

    Wraps :func:`repro.spice.dc._newton` so the iteration budget is
    clamped for the direct attempt **and** for the gmin / source-stepping
    continuation fallbacks — the whole chain must fail, which is the
    only way to observe the complete structured event trail on the
    final :class:`~repro.errors.ConvergenceError`.
    """
    from repro.spice import dc

    original = dc._newton

    def starved(sys, G_lin, b, x0, options, gmin=0.0):
        clamped = replace(options, max_iterations=max_iterations)
        return original(sys, G_lin, b, x0, clamped, gmin=gmin)

    dc._newton = starved
    try:
        yield
    finally:
        dc._newton = original


@contextmanager
def missing_native_toolchain(scratch_dir: str | Path) -> Iterator[None]:
    """Simulate a machine with no C compiler and no prebuilt kernel.

    Two patches are needed because
    :meth:`repro.runtime.native_build.Kernel.compile` returns an
    already-cached shared object *before* looking for a compiler: the
    kernel cache directory is pointed at an empty scratch directory (so
    there is nothing prebuilt) and compiler discovery
    (:func:`repro.runtime.native_build.find_compiler`) is forced to
    fail.  The cached load state is reset on entry and on exit, so the
    simulation neither sees nor leaks a previously bound kernel.
    """
    scratch = Path(scratch_dir)
    scratch.mkdir(parents=True, exist_ok=True)
    saved_dir = os.environ.get(native_build.NATIVE_DIR_ENV)
    saved_find = native_build.find_compiler
    os.environ[native_build.NATIVE_DIR_ENV] = str(scratch)
    native_build.find_compiler = lambda: None
    ipc_native.reset()
    try:
        yield
    finally:
        native_build.find_compiler = saved_find
        if saved_dir is None:
            os.environ.pop(native_build.NATIVE_DIR_ENV, None)
        else:
            os.environ[native_build.NATIVE_DIR_ENV] = saved_dir
        ipc_native.reset()
