"""Ensemble-vs-scalar characterisation equivalence.

The harness runs whole slew x load grids as stacked batches; the
per-point scalar measurements (``measure_arc``, ``measure_clk_to_q``,
``_captures`` / ``_setup_bisect``) are the oracle.  The NLDM tables must
agree to solver tolerance — the batched controller replicates the scalar
step-size schedule, so in practice they agree to rounding error.

The single-arc checks run on every push; the full-grid cell and dff
comparisons carry the ``slow`` marker and run in the dedicated CI job.
"""

import numpy as np
import pytest

from repro import runtime
from repro.cells.library_def import organic_library_definition
from repro.characterization import harness


@pytest.fixture(scope="module")
def defn():
    return organic_library_definition()


@pytest.fixture(scope="module")
def grid(defn):
    return harness.default_grid(defn)


def test_measure_arc_batch_matches_scalar(defn, grid):
    cell = defn.cells["nand2"]
    points = [(True, grid.slews[0], grid.loads[0]),
              (True, grid.slews[2], grid.loads[1]),
              (True, grid.slews[3], grid.loads[3])]
    batched = harness.measure_pin_batch(cell, "a", points)
    for (_rise, slew, load), (delay_b, slew_b) in zip(points, batched):
        delay_s, slew_s = harness.measure_arc(cell, "a", True, slew, load)
        assert delay_b == pytest.approx(delay_s, rel=1e-9)
        assert slew_b == pytest.approx(slew_s, rel=1e-9)


def test_cell_solves_switching_currents_once(defn, grid, monkeypatch):
    """Every grid load's delay hint comes from one switching-current
    solve per cell (the currents do not depend on the load), and equals
    the per-load estimate bit for bit."""
    from repro.cells.sizing import estimate_gate_delays
    from repro.spice import ensemble

    cell = defn.cells["inv"]
    loads = [load + 1e-18 for load in grid.loads]
    assert estimate_gate_delays(cell, loads) == [
        harness.estimate_gate_delay(cell, load) for load in loads]

    calls = []
    real = ensemble.ensemble_operating_point

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ensemble, "ensemble_operating_point", spy)
    harness.characterize_cell(cell, grid, area=1.0)
    assert len(calls) == 1


def test_batch_size_does_not_change_results(defn, grid, monkeypatch):
    """Chunking is a scheduling detail: batch-of-1 equals batch-of-N."""
    cell = defn.cells["inv"]
    points = [(True, s, l) for s in grid.slews[:2] for l in grid.loads[:2]]
    monkeypatch.setattr(runtime, "ENSEMBLE_BATCH", 1)
    singles = harness.measure_pin_batch(cell, "a", points)
    monkeypatch.setattr(runtime, "ENSEMBLE_BATCH", 32)
    whole = harness.measure_pin_batch(cell, "a", points)
    for (d1, s1), (dn, sn) in zip(singles, whole):
        assert d1 == pytest.approx(dn, rel=1e-9)
        assert s1 == pytest.approx(sn, rel=1e-9)


@pytest.mark.slow
def test_characterize_cell_tables_match_scalar(defn, grid):
    """Every arc's full grid against one scalar transient per point."""
    cell = defn.cells["nand2"]
    batched = harness.characterize_cell(cell, grid, area=1.0)
    arcs = [(pin, input_rise) for pin in cell.inputs
            for input_rise in (True, False)]
    assert len(batched.arcs) == len(arcs)
    for (pin, input_rise), arc in zip(arcs, batched.arcs):
        assert arc.input_pin == pin
        assert arc.output_transition == ("fall" if input_rise else "rise")
        for i, slew in enumerate(grid.slews):
            for j, load in enumerate(grid.loads):
                hint = harness.estimate_gate_delay(cell, load + 1e-18)
                delay, transition = harness.measure_arc(
                    cell, pin, input_rise, slew, load, delay_hint=hint)
                np.testing.assert_allclose(
                    arc.delay.values[i, j], delay, rtol=1e-9, atol=1e-15)
                np.testing.assert_allclose(
                    arc.transition.values[i, j], transition,
                    rtol=1e-9, atol=1e-15)


@pytest.mark.slow
def test_characterize_dff_matches_scalar(defn, grid):
    """The full clk->q grid point by point, and the K-way setup search
    against scalar bisection on the same bracket."""
    inv = defn.cell("inv")
    t_unit = harness.estimate_gate_delay(inv,
                                         4.0 * inv.input_capacitance("a"))
    batched = harness.characterize_dff(defn.dff, grid, area=1.0,
                                       t_unit=t_unit)
    for i, slew in enumerate(grid.slews):
        for j, load in enumerate(grid.loads):
            scalar = harness.measure_clk_to_q(defn.dff, slew, load, t_unit)
            np.testing.assert_allclose(batched.clk_to_q.values[i, j],
                                       scalar, rtol=1e-9, atol=1e-15)

    slew = grid.slews[len(grid.slews) // 2]
    load = grid.loads[len(grid.loads) // 2]
    lo, hi = 0.0, 10.0 * t_unit
    assert harness._captures(defn.dff, load, slew, t_unit, hi)
    assert not harness._captures(defn.dff, load, slew, t_unit, lo)
    scalar_setup = harness._setup_bisect(defn.dff, slew, load, t_unit,
                                         lo, hi, 0.1 * t_unit)
    assert batched.setup_time == pytest.approx(scalar_setup, rel=1e-9)
    assert batched.hold_time == pytest.approx(0.25 * t_unit, rel=1e-9)
