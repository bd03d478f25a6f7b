"""Process-level runtime: parallel fan-out, caching, and observability.

Besides the executor and result cache, this package hosts the shared
observability substrate: :mod:`repro.runtime.telemetry` (metrics
registry + hierarchical spans, merged deterministically across worker
processes), :mod:`repro.runtime.log` (unified logging config for the
CLIs), :mod:`repro.runtime.profiling` (the solver stage breakdown, now
a view over the telemetry registry), and :mod:`repro.runtime.report`
(per-experiment JSON run reports).
"""

import os

from repro.runtime import log, telemetry
from repro.runtime.cache import ResultCache, default_cache, default_cache_root
from repro.runtime.executor import (
    TaskError,
    TaskResult,
    get_shared,
    parallel_map,
    resolve_workers,
)
from repro.runtime.log import get_logger


def ensemble_enabled() -> bool:
    """Batched ensemble solves are on unless ``REPRO_ENSEMBLE=0``."""
    return os.environ.get("REPRO_ENSEMBLE", "1") != "0"


def ensemble_batch() -> int:
    """Max members per stacked solve (``REPRO_ENSEMBLE_BATCH``, default 32).

    The chunk size is fixed by this knob alone (never by the worker
    count), so batched results are bit-identical for any ``REPRO_WORKERS``.
    """
    try:
        return max(1, int(os.environ.get("REPRO_ENSEMBLE_BATCH", "32")))
    except ValueError:
        return 32


def chunked(items: list, size: int) -> list[list]:
    """Split *items* into consecutive chunks of at most *size*."""
    return [items[i:i + size] for i in range(0, len(items), size)]


__all__ = [
    "ResultCache",
    "TaskError",
    "TaskResult",
    "chunked",
    "default_cache",
    "default_cache_root",
    "ensemble_batch",
    "ensemble_enabled",
    "get_logger",
    "get_shared",
    "log",
    "parallel_map",
    "resolve_workers",
    "telemetry",
]
