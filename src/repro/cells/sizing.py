"""Design-space exploration for cell sizing (paper Section 4.3.4).

"The fine-tuning of circuit sizing is crucial for creating a good logic
gate.  [...] we utilized a script to explore the design space and select
the best parameter sets for each gate.  The switching threshold, noise
margin, gate delay, and area are all taken into consideration when we
define the utility function."

This module is that script.  Candidates are evaluated with real DC solves
(VTC-derived VM / gain / noise margins) plus a current-over-capacitance
delay estimate, and ranked by a weighted utility.  The default library
sizes in :mod:`repro.cells.library_def` were selected with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.cells.topologies import CellDesign, build_dc_testbench, pseudo_e_inverter
from repro.cells.vtc import VtcAnalysis, analyze_inverter
from repro.errors import AnalysisError, ConvergenceError
from repro.spice.elements import FetModel


@dataclass(frozen=True)
class UtilityWeights:
    """Relative importance of each criterion in the sizing utility."""

    noise_margin: float = 3.0
    gain: float = 1.0
    vm_centering: float = 1.5
    delay: float = 1.5
    area: float = 0.5


@dataclass(frozen=True)
class CandidateScore:
    """One evaluated sizing candidate."""

    sizes: dict[str, float]
    analysis: VtcAnalysis
    delay_estimate: float
    area_estimate: float
    utility: float


@dataclass(frozen=True)
class SizingResult:
    """Outcome of a sizing exploration, best candidate first."""

    best: CandidateScore
    candidates: tuple[CandidateScore, ...] = field(repr=False, default=())


def estimate_gate_delay(cell: CellDesign, load_cap: float) -> float:
    """First-order delay: average of rise/fall ``C * VDD/2 / I_switch``."""
    return estimate_gate_delays(cell, [load_cap])[0]


def estimate_gate_delays(cell: CellDesign, load_caps: list[float],
                         currents: list[float] | None = None) -> list[float]:
    """:func:`estimate_gate_delay` at each load, from one current solve.

    *currents* are the cell's :func:`switching_currents` (solved here if
    not given).  They do not depend on the load, so every load shares
    them, and a caller that already holds them solves nothing.
    """
    if currents is None:
        currents = switching_currents(cell)
    if any(i_net <= 0 for i_net in currents):
        return [float("inf")] * len(load_caps)
    vdd = cell.rails["vdd"]
    return [float(np.mean([load_cap * (vdd / 2.0) / i_net
                           for i_net in currents]))
            for load_cap in load_caps]


def switching_currents(cell: CellDesign) -> list[float]:
    """Pull-up and pull-down drive current with the output held mid-rail.

    Currents are taken from real DC operating points — for the pseudo-E
    topology this captures the level-shifter's effect on the pull-down
    gate drive, which a hand formula would miss.
    """
    from repro.spice.elements import VoltageSource
    from repro.spice.ensemble import ensemble_operating_point

    vdd = cell.rails["vdd"]
    ckt = build_dc_testbench(cell, {p: 0.0 for p in cell.inputs})
    # Pin the output mid-rail and measure the net charging current.
    ckt.add(VoltageSource("v_probe", "out", "0", vdd / 2.0))
    # Pull-up, then pull-down drive: two members of one testbench, one
    # stacked DC solve instead of two scalar operating points.
    levels = [0.0, vdd]
    try:
        x, es = ensemble_operating_point(
            ckt, {(f"v_{p}", "value"): levels for p in cell.inputs})
    except ConvergenceError as exc:
        raise AnalysisError(
            f"delay estimate failed for {cell.name!r}: {exc}") from exc
    return [abs(float(x[lane, es.branch_index["v_probe"]]))
            for lane in range(2)]


def estimate_area(cell: CellDesign) -> float:
    """Active-area proxy: sum of W*L over all transistors, m^2."""
    return sum(d.w * d.l for d in cell.devices)


def _utility(analysis: VtcAnalysis, delay: float, area: float,
             delay_ref: float, area_ref: float,
             weights: UtilityWeights) -> float:
    vdd = analysis.vdd
    nm = min(analysis.nmh, analysis.nml) / vdd
    gain = min(analysis.max_gain, 5.0) / 5.0
    vm_center = 1.0 - abs(analysis.vm - vdd / 2.0) / (vdd / 2.0)
    delay_pen = delay / delay_ref
    area_pen = area / area_ref
    return (weights.noise_margin * nm
            + weights.gain * gain
            + weights.vm_centering * vm_center
            - weights.delay * delay_pen
            - weights.area * area_pen)


def optimize_inverter_sizing(model: FetModel,
                             vdd: float = 5.0, vss: float = -15.0,
                             w_drive_grid: tuple[float, ...] = (50e-6, 100e-6, 150e-6),
                             load_ratio_grid: tuple[float, ...] = (0.1, 0.15, 0.25),
                             down_ratio_grid: tuple[float, ...] = (1.0, 1.5, 2.0),
                             weights: UtilityWeights | None = None,
                             n_vtc_points: int = 61) -> SizingResult:
    """Explore pseudo-E inverter sizings and rank them by utility.

    The grid spans the drive width, the shifter-load-to-drive ratio, and
    the pull-down-to-pull-up ratio; the pull-up reuses the drive width (as
    in the paper's layouts, Figure 5c, where both input transistors match).
    """
    weights = weights or UtilityWeights()
    scored: list[CandidateScore] = []

    # Reference delay/area: the mid-grid candidate.
    ref_cell = pseudo_e_inverter(model, w_drive=w_drive_grid[len(w_drive_grid) // 2],
                                 vdd=vdd, vss=vss)
    ref_load = ref_cell.input_capacitance("a")
    delay_ref = max(estimate_gate_delay(ref_cell, ref_load), 1e-12)
    area_ref = max(estimate_area(ref_cell), 1e-18)

    for w_drive, load_ratio, down_ratio in itertools.product(
            w_drive_grid, load_ratio_grid, down_ratio_grid):
        sizes = {
            "w_drive": w_drive,
            "w_shift_load": w_drive * load_ratio,
            "w_up": w_drive,
            "w_down": w_drive * down_ratio,
        }
        cell = pseudo_e_inverter(model, vdd=vdd, vss=vss, **sizes)
        try:
            analysis = analyze_inverter(cell, n_points=n_vtc_points)
            load = cell.input_capacitance("a")
            delay = estimate_gate_delay(cell, load)
        except (AnalysisError, ConvergenceError):
            continue
        area = estimate_area(cell)
        utility = _utility(analysis, delay, area, delay_ref, area_ref, weights)
        scored.append(CandidateScore(sizes=sizes, analysis=analysis,
                                     delay_estimate=delay,
                                     area_estimate=area, utility=utility))

    if not scored:
        raise AnalysisError("no sizing candidate converged")
    scored.sort(key=lambda c: c.utility, reverse=True)
    return SizingResult(best=scored[0], candidates=tuple(scored))
