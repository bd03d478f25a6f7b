"""Parallelism extension (paper Sections 2 and 7).

"More advanced architectural techniques such as using massive parallelism
could even be harnessed to help close the fundamental organic-silicon
performance gap."  This module asks the concrete version of that question:
given a fixed die-area budget, is the budget better spent on one big
(wide/deep) organic core or on many small ones?

Throughput follows Amdahl's law over the per-core performance measured by
the real IPC simulator and physical model, so the answer inherits the
process-specific width/depth costs from the main experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.characterization.library import Library
from repro.core.config import CoreConfig
from repro.core.physical import core_physical
from repro.core.superscalar import simulate
from repro.core.trace import Trace
from repro.core.tradeoffs import make_traces
from repro.errors import ConfigError
from repro.synthesis.wires import WireModel


@dataclass(frozen=True)
class ManycoreDesign:
    """One point of the area-budgeted parallelism study."""

    config_name: str
    n_cores: int
    core_area: float
    total_area: float
    per_core_performance: float     # instructions/second
    throughput: float               # Amdahl-limited instructions/second


def amdahl_throughput(per_core: float, n_cores: int,
                      serial_fraction: float) -> float:
    """Attainable throughput of n cores on a partially serial workload."""
    if not 0.0 <= serial_fraction <= 1.0:
        raise ConfigError(f"serial_fraction must be in [0,1], "
                          f"got {serial_fraction}")
    if n_cores < 1:
        raise ConfigError("need at least one core")
    speedup = 1.0 / (serial_fraction + (1.0 - serial_fraction) / n_cores)
    return per_core * speedup


def manycore_study(library: Library, wire: WireModel,
                   area_budget_factor: float = 8.0,
                   serial_fraction: float = 0.05,
                   candidates: list[CoreConfig] | None = None,
                   trace: Trace | None = None) -> list[ManycoreDesign]:
    """Compare core configurations under a fixed total-area budget.

    ``area_budget_factor`` expresses the budget in multiples of the
    baseline core's area.  Candidates default to the baseline, a wide
    core, and a wide+deep core (the single-core alternatives the area
    could buy).
    """
    if trace is None:
        trace = make_traces(workloads=["gap"], n_instructions=15_000)["gap"]
    base = CoreConfig()
    if candidates is None:
        candidates = [
            base,
            base.widened(2, 4),
            base.widened(2, 7),
            base.widened(4, 7),
        ]

    budget = area_budget_factor * core_physical(base, library, wire).area
    designs = []
    for config in candidates:
        physical = core_physical(config, library, wire)
        n_cores = max(1, int(budget // physical.area))
        ipc = simulate(config, trace).ipc
        per_core = ipc * physical.frequency
        designs.append(ManycoreDesign(
            config_name=config.name,
            n_cores=n_cores,
            core_area=physical.area,
            total_area=n_cores * physical.area,
            per_core_performance=per_core,
            throughput=amdahl_throughput(per_core, n_cores, serial_fraction),
        ))
    return designs


def best_design(designs: list[ManycoreDesign]) -> ManycoreDesign:
    return max(designs, key=lambda d: d.throughput)
