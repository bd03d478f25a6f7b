"""What one iteration of each workload runs, inside the child process.

Every operation calls a public function of the program at the sizes the
``python -m repro`` command line uses.  An operation is the unit of
failure accounting: one figure, one DSE grid or one library build.  An
iteration is the unit of timing: one whole reproduction, one grid, or
one organic+silicon library pair.

Importing this module imports nothing from the program, so the child can
time the program's imports itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

#: ``--seed`` picks one of this many DSE trace seeds (``seed % 8``), so
#: every seed maps onto inputs that ``reference.json`` covers.
DSE_TRACE_SEEDS = 8


@dataclass(frozen=True)
class Op:
    name: str
    fn: Callable[[], Any]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Program modules imported during set-up (timed as ``import_s``).
    modules: tuple[str, ...]
    #: ``(seed, scratch dir) -> state``; timed as ``prepare_s``.
    prepare: Callable[[int, Path], Any]
    #: ``(state, iteration index) -> ops``; any reset it does is untimed.
    iteration: Callable[[Any, int], list[Op]]
    #: True: one iteration per child, so every iteration starts in a
    #: fresh interpreter with empty in-process memos.
    one_per_process: bool = False


# -- reproduce_cold -----------------------------------------------------------

def _reproduce_ops(_state, _i: int) -> list[Op]:
    from repro.analysis import dse as D
    from repro.analysis import figures as F
    return [
        Op("fig3", F.fig3_transfer_characteristics),
        Op("fig4", F.fig4_model_fits),
        Op("fig6", F.fig6_inverter_comparison),
        Op("fig7", F.fig7_vdd_scaling),
        Op("fig8", F.fig8_vss_tuning),
        Op("fig11", partial(F.fig11_pipeline_depth, n_instructions=25_000)),
        Op("fig12", F.fig12_alu_depth),
        Op("fig13", partial(F.fig13_width_performance,
                            n_instructions=20_000)),
        Op("fig14", F.fig14_width_area),
        Op("fig15", F.fig15_wire_ablation),
        Op("dse", D.dse_sweep),
    ]


def simulated(outputs: dict[str, Any]) -> dict[str, int]:
    """Simulated optima of a reproduction; a speed-only change keeps them."""
    out: dict[str, int] = {}
    if "fig11" in outputs:
        for process in ("organic", "silicon"):
            out[f"{process}_opt_depth"] = outputs["fig11"].optimal_depth(
                process)
    if "fig13" in outputs:
        for process in ("organic", "silicon"):
            back, _front = outputs["fig13"].optimum(process)
            out[f"{process}_opt_back_width"] = back
    return out


_REPRO_MODULES = ("repro.analysis.figures", "repro.analysis.dse")


# -- dse_grid ----------------------------------------------------------------

def trace_seed(seed: int) -> int:
    return seed % DSE_TRACE_SEEDS


def _dse_prepare(seed: int, scratch: Path):
    from repro.analysis.dse import DSE_TRACE_LENGTH, default_combos
    from repro.core.tradeoffs import make_traces
    combos = default_combos()
    traces = make_traces(workloads=["gzip"], n_instructions=DSE_TRACE_LENGTH,
                         seed=trace_seed(seed))
    return combos, traces, trace_seed(seed), scratch


def _dse_ops(state, i: int) -> list[Op]:
    from repro.analysis import dse as D
    from repro.core.physical import reset_structure_caches
    combos, traces, tseed, scratch = state
    # Every grid is cold: an empty result cache and no in-process
    # synthesis memos.  Libraries and traces stay from set-up.
    os.environ["REPRO_CACHE_DIR"] = str(scratch / f"grid-{i}")
    reset_structure_caches()
    return [Op(f"dse_grid[trace_seed={tseed}]",
               partial(D.dse_sweep, combos=combos, traces=traces))]


# -- characterize ------------------------------------------------------------

def _char_prepare(_seed: int, _scratch: Path):
    from repro.cells.library_def import (organic_library_definition,
                                         silicon_library_definition)
    return organic_library_definition(), silicon_library_definition()


def _char_ops(state, _i: int) -> list[Op]:
    from repro.characterization import harness as H
    organic, silicon = state
    return [Op("organic_library", partial(H.characterize_library, organic,
                                          use_cache=False)),
            Op("silicon_library", partial(H.characterize_library, silicon,
                                          use_cache=False))]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("reproduce_cold", _REPRO_MODULES, lambda seed, scratch: None,
             _reproduce_ops, one_per_process=True),
    Workload("dse_grid", ("repro.analysis.dse", "repro.core.physical"),
             _dse_prepare, _dse_ops),
    Workload("characterize", ("repro.characterization.harness",
                              "repro.cells.library_def"),
             _char_prepare, _char_ops),
)}
