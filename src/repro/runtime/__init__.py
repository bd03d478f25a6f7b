"""Process-level runtime: parallel fan-out, caching, and observability.

Besides the executor and result cache, this package hosts the shared
observability substrate: :mod:`repro.runtime.telemetry` (metrics
registry + hierarchical spans, merged deterministically across worker
processes), :mod:`repro.runtime.log` (unified logging config for the
CLIs), :mod:`repro.runtime.profiling` (the solver stage breakdown, now
a view over the telemetry registry), and :mod:`repro.runtime.report`
(per-experiment JSON run reports).

It also holds the ensemble-solver constants :data:`ENSEMBLE` and
:data:`ENSEMBLE_BATCH`, which callers read at call time.
"""

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

#: Batched ensemble solves: characterisation grids, DFF probes and Monte
#: Carlo VTC populations integrate as one stacked system.  Read at call
#: time as ``runtime.ENSEMBLE``; tests and validation patch it to
#: ``False`` to reach the scalar per-circuit oracle.  A patched value
#: reaches only fork-started workers.
ENSEMBLE = True

#: Max members per stacked solve, read at call time as
#: ``runtime.ENSEMBLE_BATCH``.  The chunk size is fixed by this constant
#: alone (never by the worker count), so batched results are
#: bit-identical for any ``REPRO_WORKERS``.  A patched value reaches
#: only fork-started workers.
ENSEMBLE_BATCH = 32


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
    "get_logger",
    "get_shared",
    "log",
    "parallel_map",
    "resolve_workers",
    "telemetry",
]
