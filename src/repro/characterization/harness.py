"""Characterisation runs: transistor-level transients -> NLDM tables.

For every timing arc of every cell, the harness builds a testbench
(:class:`repro.spice.Circuit` with a ramp input source and a capacitive
load), runs a transient for each point of the slew x load grid, and
measures 50%-to-50% propagation delay plus the output's 20%-80% transition.
The flip-flop additionally gets clk->q tables and bisection-based setup and
hold times, mirroring what a commercial characterisation tool performs.

Grid points run as stacked ensemble transients, in chunks of
:data:`repro.runtime.ENSEMBLE_BATCH`; with :data:`repro.runtime.ENSEMBLE`
patched to ``False`` every point runs its own scalar transient, the
oracle the ensemble path is checked against.

Because a library build runs hundreds of multi-transistor transients,
:func:`characterize_library` caches its result as JSON keyed by a hash of
the full cell-design description (device parameters, sizes, rails, grid).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from repro import runtime
from repro.cells.library_def import CellLibraryDefinition
from repro.cells.sizing import estimate_gate_delay
from repro.cells.topologies import CellDesign, CompositeCell
from repro.characterization.library import (
    CellTiming,
    Library,
    SequentialTiming,
    TimingArc,
)
from repro.characterization.nldm import NldmTable
from repro.errors import (
    AnalysisError,
    CharacterizationError,
    ConvergenceError,
    LibraryError,
)
from repro.runtime import chunked as _chunked, parallel_map, telemetry
from repro.runtime.cache import ResultCache, default_cache_root
from repro.spice.dc import operating_point
from repro.spice.elements import Capacitor, RampValue, VoltageSource
from repro.spice.ensemble import (EnsembleTransient, Probe,
                                  ensemble_operating_point)
from repro.spice.netlist import Circuit
from repro.spice.transient import TransientOptions, transient
from repro.spice.waveform import delay_between, resolve_effect_delay

#: Measurement thresholds (fractions of the rail swing).
DELAY_THRESHOLD = 0.5
SLEW_LOW, SLEW_HIGH = 0.2, 0.8
#: Ratio of full-ramp time to 20-80 slew.
_RAMP_FACTOR = 1.0 / (SLEW_HIGH - SLEW_LOW)
#: Adaptive-step error tolerance as a fraction of the rail swing: steps
#: may only grow past nominal while the predictor misses by less than this.
_LTE_FRACTION = 5e-4


@dataclass(frozen=True)
class CharacterizationGrid:
    """The slew x load index grid used for every NLDM table."""

    slews: tuple[float, ...]
    loads: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.slews) < 2 or len(self.loads) < 2:
            raise CharacterizationError("grid needs at least 2x2 points")
        if any(s <= 0 for s in self.slews) or any(c <= 0 for c in self.loads):
            raise CharacterizationError("grid values must be positive")
        if (list(self.slews) != sorted(self.slews)
                or list(self.loads) != sorted(self.loads)):
            raise CharacterizationError("grid values must be ascending")


def ramp_source(v0: float, v1: float, t_start: float, slew: float) -> RampValue:
    """A voltage-vs-time callable: hold v0, ramp to v1 over the 20-80 *slew*.

    Returns a :class:`~repro.spice.elements.RampValue` rather than a bare
    closure so the ensemble engine can read the breakpoints and evaluate
    all members' ramps as one array expression.
    """
    return RampValue(v0, v1, t_start, slew * _RAMP_FACTOR)


def _non_controlling(design: CellDesign, pin: str) -> dict[str, float]:
    """Side-input levels that let *pin* control the output.

    Found by logic evaluation: a side-value assignment under which
    toggling *pin* toggles the output.  All six library cells admit one
    (NAND: others high; NOR: others low; INV: none).
    """
    vdd = design.rails["vdd"]
    others = [p for p in design.inputs if p != pin]
    if not others:
        return {}
    for assignment in itertools.product((False, True), repeat=len(others)):
        values = dict(zip(others, assignment))
        lo = design.evaluate(**values, **{pin: False})
        hi = design.evaluate(**values, **{pin: True})
        if lo != hi:
            return {p: (vdd if v else 0.0) for p, v in values.items()}
    raise CharacterizationError(
        f"no sensitising side-input assignment for {design.name!r}.{pin}")


def _arc_testbench(design: CellDesign, pin: str, v0: float, v1: float,
                   t_start: float, slew: float, load: float) -> Circuit:
    ckt = Circuit(f"char_{design.name}_{pin}")
    node_map = {p: p for p in design.inputs}
    node_map["out"] = "out"
    for rail, volts in design.rails.items():
        if volts == 0.0:
            node_map[rail] = "0"
        else:
            node_map[rail] = rail
            ckt.add(VoltageSource(f"v_{rail}", rail, "0", volts))
    side = _non_controlling(design, pin)
    for p, v in side.items():
        ckt.add(VoltageSource(f"v_{p}", p, "0", v))
    ckt.add(VoltageSource(f"v_{pin}", pin, "0",
                          ramp_source(v0, v1, t_start, slew)))
    design.instantiate(ckt, node_map)
    ckt.add(Capacitor("c_load", "out", "0", load))
    return ckt


def measure_arc(design: CellDesign, pin: str, input_rise: bool,
                slew: float, load: float,
                delay_hint: float | None = None) -> tuple[float, float]:
    """One (delay, output transition) measurement via transient analysis.

    ``input_rise`` selects the input edge; our inverting cells produce the
    opposite output edge.  Returns 50%-50% delay and the output's 20%-80%
    transition time.  The time window auto-extends (up to 3 retries) if the
    output has not completed its swing.
    """
    vdd = design.rails["vdd"]
    v0, v1 = (0.0, vdd) if input_rise else (vdd, 0.0)
    if delay_hint is None:
        delay_hint = estimate_gate_delay(design, load + 1e-18)
    t_start = 0.25 * slew * _RAMP_FACTOR + 0.05 * delay_hint

    # The expected final output level comes from the cell's logic function,
    # NOT from the waveform shape: slow two-stage cells can couple the
    # output the wrong way first (capacitive overshoot), which would fool
    # a direction guess based on initial/final samples.
    side = _non_controlling(design, pin)
    side_logic = {p: v > vdd / 2 for p, v in side.items()}
    final_logic = design.evaluate(**side_logic, **{pin: input_rise})
    target = vdd if final_logic else 0.0
    out_direction = "rise" if final_logic else "fall"

    window = max(8.0 * delay_hint, 3.0 * slew * _RAMP_FACTOR)
    t_stop = t_start
    for _attempt in range(5):
        t_stop = t_start + slew * _RAMP_FACTOR + window
        n_steps = 700
        dt = t_stop / n_steps
        # The ramp must be resolved by several steps.
        dt = min(dt, slew * _RAMP_FACTOR / 8.0)
        ckt = _arc_testbench(design, pin, v0, v1, t_start, slew, load)
        try:
            result = transient(ckt, TransientOptions(
                dt=dt, t_stop=t_stop, dt_max=16.0 * dt,
                lte_tol=_LTE_FRACTION * vdd))
        except ConvergenceError as exc:
            raise exc.with_context(cell=design.name, pin=pin,
                                   input_rise=input_rise,
                                   slew=slew, load=load)
        w_in = result.waveform(pin)
        w_out = result.waveform("out")
        if not w_out.settled(target, 0.05 * vdd):
            if telemetry.ENABLED:
                telemetry.count("char.window_retries")
            window *= 4.0
            continue
        try:
            delay = delay_between(
                w_in, w_out, DELAY_THRESHOLD * vdd, DELAY_THRESHOLD * vdd,
                cause_direction="rise" if input_rise else "fall",
                effect_direction=out_direction,
                context=f"{design.name}.{pin} "
                        f"{'rise' if input_rise else 'fall'} "
                        f"slew={slew:g} load={load:g}")
            out_slew = w_out.transition_time(0.0, vdd, SLEW_LOW, SLEW_HIGH)
        except AnalysisError as exc:
            raise CharacterizationError(
                f"measurement failed for {design.name!r}.{pin} "
                f"(slew={slew:g}, load={load:g}): {exc}") from exc
        return delay, out_slew
    raise CharacterizationError(
        f"output of {design.name!r}.{pin} did not settle within "
        f"{t_stop:g}s (slew={slew:g}, load={load:g})")


def measure_arc_batch(design: CellDesign, pin: str, input_rise: bool,
                      points: list[tuple[float, float]],
                      hints: dict[float, float] | None = None
                      ) -> list[tuple[float, float]]:
    """All (slew, load) measurements of one timing arc as stacked solves.

    Builds one :class:`~repro.spice.ensemble.EnsembleTransient` per chunk
    of grid points — every member gets the exact testbench, timestep
    schedule and window :func:`measure_arc` would use — and extracts the
    delay/transition crossings online.  Members whose output has not
    settled in the first window (or whose batch hits a convergence
    failure) fall back to the scalar :func:`measure_arc`, which retries
    with its usual window growth; results are therefore the scalar
    results, just batched where batching is possible.
    """
    vdd = design.rails["vdd"]
    v0, v1 = (0.0, vdd) if input_rise else (vdd, 0.0)
    hints = hints or {}
    side = _non_controlling(design, pin)
    side_logic = {p: v > vdd / 2 for p, v in side.items()}
    final_logic = design.evaluate(**side_logic, **{pin: input_rise})
    target = vdd if final_logic else 0.0
    out_direction = "rise" if final_logic else "fall"

    point_hints = [
        hints[load] if load in hints
        else estimate_gate_delay(design, load + 1e-18)
        for _slew, load in points]

    results: list[tuple[float, float] | None] = [None] * len(points)
    batch = runtime.ENSEMBLE_BATCH
    for chunk_start in range(0, len(points), batch):
        chunk_idx = list(range(chunk_start,
                               min(chunk_start + batch, len(points))))
        # The scalar controller's retry loop, batched: members whose
        # output has not settled get the same window *= 4 re-run (with
        # the same recomputed dt) as measure_arc, as an ever-shrinking
        # straggler ensemble.
        windows = {k: max(8.0 * point_hints[k],
                          3.0 * points[k][0] * _RAMP_FACTOR)
                   for k in chunk_idx}
        # The testbench depends only on (slew, load, t_start) — all
        # attempt-invariant.  Build each circuit once per chunk and reuse
        # it across window retries; only the TransientOptions (t_stop,
        # dt) are recomputed per attempt.
        starts = {k: (0.25 * points[k][0] * _RAMP_FACTOR
                      + 0.05 * point_hints[k])
                  for k in chunk_idx}
        circuits = {k: _arc_testbench(design, pin, v0, v1, starts[k],
                                      points[k][0], points[k][1])
                    for k in chunk_idx}
        pending = chunk_idx
        for _attempt in range(5):
            if not pending:
                break
            members, opts = [], []
            for k in pending:
                slew, _load = points[k]
                t_stop = starts[k] + slew * _RAMP_FACTOR + windows[k]
                dt = min(t_stop / 700.0, slew * _RAMP_FACTOR / 8.0)
                members.append(circuits[k])
                opts.append(TransientOptions(
                    dt=dt, t_stop=t_stop, dt_max=16.0 * dt,
                    lte_tol=_LTE_FRACTION * vdd))
            probes = [Probe(pin, DELAY_THRESHOLD * vdd),
                      Probe("out", DELAY_THRESHOLD * vdd),
                      Probe("out", SLEW_LOW * vdd),
                      Probe("out", SLEW_HIGH * vdd)]
            try:
                ens = EnsembleTransient(members, opts, probes).run()
            except ConvergenceError:
                break  # scalar fallback reproduces the context-rich error
            still_pending = []
            for m, k in enumerate(pending):
                if abs(ens.final_value("out")[m] - target) > 0.05 * vdd:
                    if telemetry.ENABLED:
                        telemetry.count("char.window_retries")
                    windows[k] *= 4.0
                    still_pending.append(k)
                    continue
                slew_k, load_k = points[k]
                results[k] = _arc_from_ensemble(
                    ens, m, vdd, input_rise, out_direction, target,
                    context=f"{design.name}.{pin} "
                            f"{'rise' if input_rise else 'fall'} "
                            f"slew={slew_k:g} load={load_k:g}")
                # Settled but unmeasurable stays None: the scalar path
                # raises the canonical CharacterizationError for it.
            pending = still_pending

    if telemetry.ENABLED:
        fallbacks = sum(1 for v in results if v is None)
        if fallbacks:
            telemetry.count("char.scalar_point_fallbacks", fallbacks)
    return [
        value if value is not None
        else measure_arc(design, pin, input_rise, slew, load,
                         delay_hint=hint)
        for value, (slew, load), hint in zip(results, points, point_hints)]


def _arc_from_ensemble(ens: EnsembleTransient, m: int, vdd: float,
                       input_rise: bool, out_direction: str, target: float,
                       context: str | None = None
                       ) -> tuple[float, float] | None:
    """(delay, out_slew) for one settled member, or None for a scalar retry.

    Replays :func:`repro.spice.waveform.delay_between` and
    :meth:`~repro.spice.waveform.Waveform.transition_time` on the online
    crossing records: first cause crossing, then the shared
    :func:`~repro.spice.waveform.resolve_effect_delay` policy (first
    effect crossing at or after it; the heavy-input-loading fallback is
    clamped and logged exactly as on the scalar path), and the 20%/80%
    crossings anchored to the output's **final** transition — the same
    last-monotone-edge rule :meth:`Waveform.transition_time` applies, so
    glitchy outputs measure identically on both paths.
    """
    final_out = ens.final_value("out")[m]
    if abs(final_out - target) > 0.05 * vdd:
        return None
    cause = ens.crossing_times(0, m, "rise" if input_rise else "fall")
    if len(cause) == 0:
        return None
    t_cause = cause[0]
    effect = ens.crossing_times(1, m, out_direction)
    if len(effect) == 0:
        return None
    delay = resolve_effect_delay(float(t_cause), effect, context=context)
    rising = final_out > ens.initial_value("out")[m]
    slew_dir = "rise" if rising else "fall"
    t_lo = ens.crossing_times(2, m, slew_dir)
    t_hi = ens.crossing_times(3, m, slew_dir)
    if len(t_lo) == 0 or len(t_hi) == 0:
        return None
    # Final-transition anchoring (see Waveform.transition_time): the edge
    # finishes at the threshold reached last in the transition direction.
    if rising:
        t_second = float(t_hi[-1])
        firsts = t_lo[t_lo <= t_second]
    else:
        t_second = float(t_lo[-1])
        firsts = t_hi[t_hi <= t_second]
    if len(firsts) == 0:
        return None
    return float(delay), float(abs(t_second - float(firsts[-1])))


def _static_power(design: CellDesign, input_levels: dict[str, float]) -> float:
    from repro.cells.topologies import build_dc_testbench

    ckt = build_dc_testbench(design, input_levels)
    x, sys = operating_point(ckt)
    power = 0.0
    for rail, volts in design.rails.items():
        if volts == 0.0:
            continue
        power -= volts * sys.source_current(x, f"v_{rail}")
    return power


def average_leakage(design: CellDesign) -> float:
    """Static power averaged over all input states.

    The 2**n input-state testbenches are structurally identical (only
    source values differ), so they solve as one stacked ensemble DC —
    rail currents come straight off each lane's branch variables.
    """
    from repro.cells.topologies import build_dc_testbench

    vdd = design.rails["vdd"]
    states = list(itertools.product((0.0, vdd), repeat=len(design.inputs)))
    circuits = [build_dc_testbench(design, dict(zip(design.inputs, state)))
                for state in states]
    x, es = ensemble_operating_point(circuits)
    total = 0.0
    for lane in range(len(states)):
        for rail, volts in design.rails.items():
            if volts == 0.0:
                continue
            total -= volts * float(x[lane, es.branch_index[f"v_{rail}"]])
    return total / len(states)


def _measure_arc_task(task) -> tuple[float, float]:
    """Module-level (picklable) worker for one characterisation arc."""
    design, pin, input_rise, slew, load, hint = task
    edge = "rise" if input_rise else "fall"
    with telemetry.span(f"arc:{design.name}.{pin}:{edge}"):
        return measure_arc(design, pin, input_rise, slew, load,
                           delay_hint=hint)


def _measure_arc_batch_task(task) -> list[tuple[float, float]]:
    """Module-level (picklable) worker for one arc's whole grid ensemble."""
    design, pin, input_rise, points, hints = task
    edge = "rise" if input_rise else "fall"
    with telemetry.span(f"arc:{design.name}.{pin}:{edge}"):
        return measure_arc_batch(design, pin, input_rise, points,
                                 hints=hints)


def characterize_cell(design: CellDesign, grid: CharacterizationGrid,
                      area: float, workers: int | None = None) -> CellTiming:
    """Full NLDM characterisation of one combinational cell.

    By default each timing arc's entire slew x load grid runs as **one**
    stacked ensemble transient (``runtime.ENSEMBLE = False`` restores the
    scalar one-transient-per-point path), so ``parallel_map`` shards
    whole-arc batches rather than single grid points.  Results are
    identical to the scalar serial run either way.
    """
    with telemetry.span(f"cell:{design.name}"):
        return _characterize_cell(design, grid, area, workers)


def _characterize_cell(design: CellDesign, grid: CharacterizationGrid,
                       area: float, workers: int | None) -> CellTiming:
    telemetry.count("char.cells")
    hints = {load: estimate_gate_delay(design, load + 1e-18)
             for load in grid.loads}
    if runtime.ENSEMBLE:
        points = [(slew, load) for load in grid.loads
                  for slew in grid.slews]
        tasks = [(design, pin, input_rise, points, hints)
                 for pin in design.inputs for input_rise in (True, False)]
        labels = [f"{design.name}.{pin} "
                  f"{'rise' if input_rise else 'fall'} grid"
                  for pin in design.inputs for input_rise in (True, False)]
        results = parallel_map(_measure_arc_batch_task, tasks,
                               workers=workers, labels=labels,
                               on_error="capture",
                               phase=f"characterize[{design.name}]")
        measured = [value for r in results for value in r.unwrap()]
    else:
        tasks = []
        labels = []
        for pin in design.inputs:
            for input_rise in (True, False):
                for j, load in enumerate(grid.loads):
                    for i, slew in enumerate(grid.slews):
                        tasks.append((design, pin, input_rise, slew, load,
                                      hints[load]))
                        labels.append(f"{design.name}.{pin} "
                                      f"{'rise' if input_rise else 'fall'} "
                                      f"slew[{i}] load[{j}]")
        results = parallel_map(_measure_arc_task, tasks, workers=workers,
                               labels=labels, on_error="capture",
                               phase=f"characterize[{design.name}]")
        # Re-raise the first failure in task order (same exception, and
        # thus the same behaviour, as the serial loop).
        measured = [r.unwrap() for r in results]

    arcs: list[TimingArc] = []
    k = 0
    for pin in design.inputs:
        for input_rise in (True, False):
            delays = np.empty((len(grid.slews), len(grid.loads)))
            slews_out = np.empty_like(delays)
            for j in range(len(grid.loads)):
                for i in range(len(grid.slews)):
                    delays[i, j], slews_out[i, j] = measured[k]
                    k += 1
            # Inverting cells: input rise -> output fall.
            out_dir = "fall" if input_rise else "rise"
            arcs.append(TimingArc(
                input_pin=pin,
                output_transition=out_dir,
                delay=NldmTable(np.asarray(grid.slews),
                                np.asarray(grid.loads), delays),
                transition=NldmTable(np.asarray(grid.slews),
                                     np.asarray(grid.loads), slews_out),
            ))
    return CellTiming(
        name=design.name,
        function=design.function,
        inputs=design.inputs,
        input_caps={p: design.input_capacitance(p) for p in design.inputs},
        area=area,
        arcs=tuple(arcs),
        leakage=average_leakage(design),
    )


# ---------------------------------------------------------------------------
# Flip-flop characterisation
# ---------------------------------------------------------------------------

def _dff_testbench(dff: CompositeCell, load: float,
                   sources: dict[str, object]) -> Circuit:
    ckt = Circuit(f"char_{dff.name}")
    node_map = {p: p for p in dff.inputs}
    node_map.update({o: o for o in dff.outputs})
    for rail, volts in dff.rails.items():
        if volts == 0.0:
            node_map[rail] = "0"
        else:
            node_map[rail] = rail
            ckt.add(VoltageSource(f"v_{rail}", rail, "0", volts))
    for pin in dff.inputs:
        ckt.add(VoltageSource(f"v_{pin}", pin, "0", sources[pin]))
    dff.instantiate(ckt, node_map)
    ckt.add(Capacitor("c_load", "q", "0", load))
    return ckt


def _dff_stimulus(dff: CompositeCell, load: float, clk_slew: float,
                  t_unit: float, d_level: float, q_rises: bool,
                  d_offset_before_clk: float | None = None,
                  t_extra: float = 0.0
                  ) -> tuple[Circuit, float, TransientOptions]:
    """Shared clk->q stimulus: clear/preset pulse, then one clock edge.

    Returns (testbench, t_clk_edge, options).  When
    ``d_offset_before_clk`` is given, D starts at the complement of
    ``d_level`` and toggles that long before the clock edge (the setup
    search's knob); otherwise D is held constant.
    """
    vdd = dff.rails["vdd"]
    t_release = 6.0 * t_unit
    t_clk = t_release + 12.0 * t_unit
    t_stop = t_clk + 14.0 * t_unit + t_extra

    # Force the opposite initial state so the clock edge produces a Q edge.
    force_pin = "clr_n" if q_rises else "pre_n"
    idle_pin = "pre_n" if q_rises else "clr_n"
    sources: dict[str, object] = {
        force_pin: ramp_source(0.0, vdd, t_release, 2.0 * t_unit * 0.6),
        idle_pin: vdd,
        "clk": ramp_source(0.0, vdd, t_clk, clk_slew),
    }
    if d_offset_before_clk is None:
        sources["d"] = d_level
    else:
        d0 = vdd - d_level
        sources["d"] = ramp_source(d0, d_level, t_clk - d_offset_before_clk,
                                   clk_slew)
    ckt = _dff_testbench(dff, load, sources)
    dt = min(t_stop / 900.0, clk_slew * _RAMP_FACTOR / 6.0, 2.0 * t_unit)
    options = TransientOptions(dt=dt, t_stop=t_stop, dt_max=16.0 * dt,
                               lte_tol=_LTE_FRACTION * vdd)
    return ckt, t_clk, options


def _dff_transient(dff: CompositeCell, load: float, clk_slew: float,
                   t_unit: float, d_level: float, q_rises: bool,
                   d_offset_before_clk: float | None = None,
                   t_extra: float = 0.0):
    """Run the shared clk->q stimulus; returns (result, t_clk_edge)."""
    ckt, t_clk, options = _dff_stimulus(
        dff, load, clk_slew, t_unit, d_level, q_rises,
        d_offset_before_clk=d_offset_before_clk, t_extra=t_extra)
    try:
        result = transient(ckt, options)
    except ConvergenceError as exc:
        raise exc.with_context(cell=dff.name, clk_slew=clk_slew, load=load)
    return result, t_clk


def measure_clk_to_q(dff: CompositeCell, clk_slew: float, load: float,
                     t_unit: float, q_rises: bool = True) -> float:
    """Clock-50% to Q-50% delay for one grid point.

    The observation window grows with the Q load (a heavily loaded output
    takes many gate delays to swing) and auto-extends if Q has not
    completed its transition.
    """
    vdd = dff.rails["vdd"]
    d_level = vdd if q_rises else 0.0
    target = vdd if q_rises else 0.0
    direction = "rise" if q_rises else "fall"
    t_extra = 4.0 * t_unit
    last_error: Exception | None = None
    for _attempt in range(5):
        result, t_clk = _dff_transient(dff, load, clk_slew, t_unit,
                                       d_level, q_rises, t_extra=t_extra)
        w_q = result.waveform("q")
        if w_q.settled(target, 0.05 * vdd):
            w_clk = result.waveform("clk")
            try:
                return delay_between(w_clk, w_q, 0.5 * vdd, 0.5 * vdd,
                                     cause_direction="rise",
                                     effect_direction=direction)
            except AnalysisError as exc:
                last_error = exc
        if telemetry.ENABLED:
            telemetry.count("char.dff_window_retries")
        t_extra *= 4.0
    raise CharacterizationError(
        f"clk->q measurement failed (slew={clk_slew:g}, load={load:g}): "
        f"{last_error or 'Q did not settle'}")


def _captures(dff: CompositeCell, load: float, clk_slew: float,
              t_unit: float, setup_candidate: float) -> bool:
    """Does a 0->1 D edge at ``t_clk - setup_candidate`` get captured?

    D starts low (so a missed capture leaves Q low) and rises
    *setup_candidate* before the clock's 50% point; capture is judged by
    the final Q level.
    """
    vdd = dff.rails["vdd"]
    # The flop is cleared first, so an uncaptured Q stays at 0.
    result, _t_clk = _dff_transient(
        dff, load, clk_slew, t_unit, d_level=vdd, q_rises=True,
        d_offset_before_clk=setup_candidate, t_extra=4.0 * t_unit)
    w_q = result.waveform("q")
    return w_q.final_value > 0.6 * vdd


def _captures_batch(dff: CompositeCell, load: float, clk_slew: float,
                    t_unit: float, offsets: list[float]
                    ) -> list[bool] | None:
    """Capture verdicts for several setup candidates as one ensemble.

    Same judgement as :func:`_captures` (final Q above 60% of the rail),
    one stacked transient for all candidates.  Returns None when the
    batch hits a convergence failure, letting the caller fall back to
    the scalar search.
    """
    vdd = dff.rails["vdd"]
    members, opts = [], []
    for offset in offsets:
        ckt, _t_clk, options = _dff_stimulus(
            dff, load, clk_slew, t_unit, d_level=vdd, q_rises=True,
            d_offset_before_clk=offset, t_extra=4.0 * t_unit)
        members.append(ckt)
        opts.append(options)
    try:
        ens = EnsembleTransient(members, opts).run()
    except ConvergenceError:
        return None
    return [bool(v > 0.6 * vdd) for v in ens.final_value("q")]


def _setup_bisect(dff: CompositeCell, clk_slew: float, load: float,
                  t_unit: float, lo: float, hi: float,
                  resolution: float) -> float:
    """Scalar bisection on a (lo fails, hi captures) bracket."""
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if _captures(dff, load, clk_slew, t_unit, mid):
            hi = mid
        else:
            lo = mid
    return hi


def measure_setup_time(dff: CompositeCell, clk_slew: float, load: float,
                       t_unit: float, resolution_frac: float = 0.1) -> float:
    """Minimum D-before-clock time that still captures.

    Maintains a (``lo`` fails, ``hi`` captures) bracket and shrinks it to
    ``resolution``.  The default search probes several interior
    candidates per round as one stacked ensemble (a K-way section search,
    ~3 rounds instead of ~7 serial bisection transients); with
    ``runtime.ENSEMBLE = False`` it is the classic one-probe-per-round
    bisection.
    Either way the returned ``hi`` is a capturing upper bracket within
    ``resolution`` of the true threshold.
    """
    lo, hi = 0.0, 10.0 * t_unit
    resolution = resolution_frac * t_unit
    use_ensemble = runtime.ENSEMBLE

    if use_ensemble:
        flags = _captures_batch(dff, load, clk_slew, t_unit, [hi, lo])
        use_ensemble = flags is not None
    if use_ensemble:
        captures_hi, captures_lo = flags
    else:
        captures_hi = _captures(dff, load, clk_slew, t_unit, hi)
        captures_lo = (_captures(dff, load, clk_slew, t_unit, lo)
                       if captures_hi else False)
    if not captures_hi:
        raise CharacterizationError("flop does not capture even with "
                                    f"setup {hi:g}s; check sizing")
    if captures_lo:
        return 0.0

    while use_ensemble and hi - lo > resolution:
        k = min(7, max(1, int(np.ceil((hi - lo) / resolution)) - 1))
        candidates = lo + (hi - lo) * np.arange(1, k + 1) / (k + 1)
        flags = _captures_batch(dff, load, clk_slew, t_unit,
                                list(candidates))
        if flags is None:
            use_ensemble = False
            break
        capturing = [i for i, f in enumerate(flags) if f]
        if capturing:
            first = capturing[0]
            hi = float(candidates[first])
            if first > 0:
                lo = float(candidates[first - 1])
        else:
            lo = float(candidates[-1])
    if hi - lo > resolution:
        return _setup_bisect(dff, clk_slew, load, t_unit, lo, hi,
                             resolution)
    return hi


def _clk_to_q_task(task) -> float:
    """Module-level (picklable) worker for one clk->q grid point."""
    dff, slew, load, t_unit = task
    return measure_clk_to_q(dff, slew, load, t_unit)


def measure_clk_to_q_batch(dff: CompositeCell,
                           points: list[tuple[float, float]],
                           t_unit: float) -> list[float]:
    """Clk->q delays for several (clk_slew, load) points, one ensemble.

    Members whose Q has not settled after the first observation window —
    or whose batch fails to converge — fall back to the scalar
    :func:`measure_clk_to_q` with its window-growing retries.
    """
    vdd = dff.rails["vdd"]
    delays: list[float | None] = [None] * len(points)
    # Scalar retry loop, batched: members whose Q has not settled (or
    # whose crossings are incomplete) re-run with the same t_extra *= 4
    # growth as measure_clk_to_q, as a shrinking straggler ensemble.
    t_extras = {k: 4.0 * t_unit for k in range(len(points))}
    pending = list(range(len(points)))
    for _attempt in range(5):
        if not pending:
            break
        members, opts = [], []
        for k in pending:
            clk_slew, load = points[k]
            ckt, _t_clk, options = _dff_stimulus(
                dff, load, clk_slew, t_unit, d_level=vdd, q_rises=True,
                t_extra=t_extras[k])
            members.append(ckt)
            opts.append(options)
        probes = [Probe("clk", 0.5 * vdd), Probe("q", 0.5 * vdd)]
        try:
            ens = EnsembleTransient(members, opts, probes).run()
        except ConvergenceError:
            break  # scalar fallback reproduces the context-rich error
        still_pending = []
        for m, k in enumerate(pending):
            delay = None
            if abs(ens.final_value("q")[m] - vdd) <= 0.05 * vdd:
                cause = ens.crossing_times(0, m, "rise")
                effect = ens.crossing_times(1, m, "rise")
                if len(cause):
                    after = effect[effect >= cause[0]]
                    if len(after):
                        delay = float(after[0] - cause[0])
                    elif len(effect):
                        delay = float(effect[-1] - cause[0])
            if delay is None:
                if telemetry.ENABLED:
                    telemetry.count("char.dff_window_retries")
                t_extras[k] *= 4.0
                still_pending.append(k)
            else:
                delays[k] = delay
        pending = still_pending

    return [
        delay if delay is not None
        else measure_clk_to_q(dff, clk_slew, load, t_unit)
        for delay, (clk_slew, load) in zip(delays, points)]


def _clk_to_q_batch_task(task) -> list[float]:
    """Module-level (picklable) worker for a chunk of clk->q grid points."""
    dff, points, t_unit = task
    return measure_clk_to_q_batch(dff, points, t_unit)


def characterize_dff(dff: CompositeCell, grid: CharacterizationGrid,
                     area: float, t_unit: float,
                     workers: int | None = None) -> SequentialTiming:
    """Clk->q NLDM table plus scalar setup/hold.

    ``t_unit`` is a per-process time scale (roughly one gate delay) used to
    schedule stimulus edges and bound the setup search.  Grid points run
    across worker processes when ``workers`` (or ``REPRO_WORKERS``) asks
    for it; the setup-time bisection stays serial (each trial depends on
    the previous one).
    """
    with telemetry.span("cell:dff"):
        return _characterize_dff(dff, grid, area, t_unit, workers)


def _characterize_dff(dff: CompositeCell, grid: CharacterizationGrid,
                      area: float, t_unit: float,
                      workers: int | None) -> SequentialTiming:
    telemetry.count("char.cells")
    if runtime.ENSEMBLE:
        points = [(slew, load)
                  for slew in grid.slews for load in grid.loads]
        chunks = _chunked(points, runtime.ENSEMBLE_BATCH)
        tasks = [(dff, chunk, t_unit) for chunk in chunks]
        labels = [f"{dff.name} clk->q batch[{i}]"
                  for i in range(len(chunks))]
        results = parallel_map(_clk_to_q_batch_task, tasks,
                               workers=workers, labels=labels,
                               on_error="capture",
                               phase=f"characterize[{dff.name}]")
        flat = [v for r in results for v in r.unwrap()]
    else:
        tasks = [(dff, slew, load, t_unit)
                 for slew in grid.slews for load in grid.loads]
        labels = [f"{dff.name} clk->q slew[{i}] load[{j}]"
                  for i in range(len(grid.slews))
                  for j in range(len(grid.loads))]
        results = parallel_map(_clk_to_q_task, tasks, workers=workers,
                               labels=labels, on_error="capture",
                               phase=f"characterize[{dff.name}]")
        flat = [r.unwrap() for r in results]
    values = np.asarray(flat).reshape(len(grid.slews), len(grid.loads))
    mid_slew = grid.slews[len(grid.slews) // 2]
    mid_load = grid.loads[len(grid.loads) // 2]
    setup = measure_setup_time(dff, mid_slew, mid_load, t_unit)
    # Hold: our fully-static NAND flop is hold-safe by construction (the
    # master is opaque when the clock is high); report a conservative
    # fraction of a gate delay.
    hold = 0.25 * t_unit

    leak_cells = {}
    for _, design, _ in dff.subcells:
        leak_cells.setdefault(design.name, average_leakage(design))
    leakage = sum(leak_cells[design.name] for _, design, _ in dff.subcells)

    return SequentialTiming(
        name="dff",
        input_caps={p: dff.input_capacitance(p) for p in dff.inputs},
        area=area,
        clk_to_q=NldmTable(np.asarray(grid.slews), np.asarray(grid.loads),
                           values),
        setup_time=setup,
        hold_time=hold,
        leakage=leakage,
    )


# ---------------------------------------------------------------------------
# Whole-library characterisation with disk caching
# ---------------------------------------------------------------------------

def default_cache_dir() -> Path:
    """Cache root (kept as an alias of the runtime cache's default)."""
    return default_cache_root()


def _definition_fingerprint(defn: CellLibraryDefinition,
                            grid: CharacterizationGrid) -> str:
    """Stable hash of everything that affects characterisation results."""
    payload: dict = {
        "vdd": defn.vdd,
        "process": defn.process,
        "grid": {"slews": grid.slews, "loads": grid.loads},
        "cells": {},
    }
    for name in (*defn.COMBINATIONAL,):
        cell = defn.cell(name)
        payload["cells"][name] = {
            "rails": cell.rails,
            "devices": [
                (d.name, d.drain, d.gate, d.source, d.w, d.l,
                 asdict(d.model))
                for d in cell.devices
            ],
        }
    payload["area"] = {name: defn.cell_area(name)
                       for name in (*defn.COMBINATIONAL, "dff")}
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def default_grid(defn: CellLibraryDefinition) -> CharacterizationGrid:
    """Process-appropriate slew/load grids.

    Anchored on the inverter's input capacitance and a DC-estimated FO4
    delay so the grid lands on the cell's real operating region whatever
    device model is plugged in.
    """
    inv = defn.cell("inv")
    cin = inv.input_capacitance("a")
    fo4 = estimate_gate_delay(inv, 4.0 * cin)
    slews = tuple(fo4 * f for f in (0.2, 0.7, 2.0, 6.0))
    loads = tuple(cin * f for f in (0.5, 2.0, 6.0, 16.0))
    return CharacterizationGrid(slews=slews, loads=loads)


def characterize_library(defn: CellLibraryDefinition,
                         grid: CharacterizationGrid | None = None,
                         cache_dir: Path | None = None,
                         use_cache: bool = True,
                         workers: int | None = None) -> Library:
    """Characterise all six cells, with persistent result caching.

    Results are memoised through :class:`repro.runtime.cache.ResultCache`
    (category ``library``), keyed by a fingerprint of everything that
    affects the physics: device-model parameters, sizes, rails and the
    NLDM grid.  ``use_cache=False`` bypasses the cache for this call;
    ``REPRO_CACHE=0`` disables it process-wide; ``cache_dir`` overrides
    the root (default ``REPRO_CACHE_DIR``).

    ``workers`` fans the per-arc transients out across processes (see
    :func:`repro.runtime.parallel_map`); results and the cache key are
    identical whatever the worker count.
    """
    from repro.spice.backends import get_backend
    with telemetry.span(f"characterize_library:{defn.name}",
                        backend=get_backend().name):
        return _characterize_library(defn, grid, cache_dir, use_cache,
                                     workers)


def _characterize_library(defn: CellLibraryDefinition,
                          grid: CharacterizationGrid | None,
                          cache_dir: Path | None,
                          use_cache: bool,
                          workers: int | None) -> Library:
    grid = grid or default_grid(defn)
    cache = ResultCache(root=cache_dir)
    key = _definition_fingerprint(defn, grid)
    cache_key = cache.key({"library": defn.name, "fingerprint": key})
    if use_cache:
        hit = cache.get("library", cache_key)
        if hit is not None:
            try:
                return Library.from_dict(hit)
            except (KeyError, TypeError, ValueError, LibraryError):
                pass  # payload schema drift: recharacterise below

    cells = {}
    for name in defn.COMBINATIONAL:
        cells[name] = characterize_cell(defn.cell(name), grid,
                                        area=defn.cell_area(name),
                                        workers=workers)

    inv = defn.cell("inv")
    t_unit = estimate_gate_delay(inv, 4.0 * inv.input_capacitance("a"))
    dff = characterize_dff(defn.dff, grid, area=defn.cell_area("dff"),
                           t_unit=t_unit, workers=workers)

    library = Library(
        name=defn.name,
        process=defn.process,
        vdd=defn.vdd,
        cells=cells,
        dff=dff,
        metadata={"fingerprint": key,
                  "grid_slews": list(grid.slews),
                  "grid_loads": list(grid.loads)},
    )
    if use_cache:
        cache.put("library", cache_key, library.to_dict())
    return library
