"""Ensemble-vs-scalar characterisation equivalence.

``runtime.ENSEMBLE = False`` routes the harness through the original scalar
per-point path; with it enabled (the default), whole slew x load grids
run as stacked batches.  The NLDM tables must agree to solver tolerance
— the batched controller replicates the scalar step-size schedule, so
in practice they agree to rounding error.

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
    points = [(grid.slews[0], grid.loads[0]),
              (grid.slews[2], grid.loads[1]),
              (grid.slews[3], grid.loads[3])]
    batched = harness.measure_arc_batch(cell, "a", True, points)
    for (slew, load), (delay_b, slew_b) in zip(points, batched):
        delay_s, slew_s = harness.measure_arc(cell, "a", True, slew, load)
        assert delay_b == pytest.approx(delay_s, rel=1e-9)
        assert slew_b == pytest.approx(slew_s, rel=1e-9)


def test_batch_size_does_not_change_results(defn, grid, monkeypatch):
    """Chunking is a scheduling detail: batch-of-1 equals batch-of-N."""
    cell = defn.cells["inv"]
    points = [(s, l) for s in grid.slews[:2] for l in grid.loads[:2]]
    monkeypatch.setattr(runtime, "ENSEMBLE_BATCH", 1)
    singles = harness.measure_arc_batch(cell, "a", True, points)
    monkeypatch.setattr(runtime, "ENSEMBLE_BATCH", 32)
    whole = harness.measure_arc_batch(cell, "a", True, points)
    for (d1, s1), (dn, sn) in zip(singles, whole):
        assert d1 == pytest.approx(dn, rel=1e-9)
        assert s1 == pytest.approx(sn, rel=1e-9)


@pytest.mark.slow
def test_characterize_cell_tables_match_scalar(defn, grid, monkeypatch):
    cell = defn.cells["nand2"]
    monkeypatch.setattr(runtime, "ENSEMBLE", False)
    scalar = harness.characterize_cell(cell, grid, area=1.0)
    monkeypatch.setattr(runtime, "ENSEMBLE", True)
    batched = harness.characterize_cell(cell, grid, area=1.0)
    assert len(scalar.arcs) == len(batched.arcs)
    for arc_s, arc_b in zip(scalar.arcs, batched.arcs):
        assert arc_s.input_pin == arc_b.input_pin
        assert arc_s.output_transition == arc_b.output_transition
        for table in ("delay", "transition"):
            a = np.asarray(getattr(arc_b, table).values)
            b = np.asarray(getattr(arc_s, table).values)
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-15)


@pytest.mark.slow
def test_characterize_dff_matches_scalar(defn, grid, monkeypatch):
    t_unit = harness.estimate_gate_delay(
        defn.cell("inv"), 4.0 * defn.cell("inv").input_capacitance("a"))
    monkeypatch.setattr(runtime, "ENSEMBLE", False)
    scalar = harness.characterize_dff(defn.dff, grid, area=1.0,
                                      t_unit=t_unit)
    monkeypatch.setattr(runtime, "ENSEMBLE", True)
    batched = harness.characterize_dff(defn.dff, grid, area=1.0,
                                       t_unit=t_unit)
    np.testing.assert_allclose(np.asarray(batched.clk_to_q.values),
                               np.asarray(scalar.clk_to_q.values),
                               rtol=1e-9, atol=1e-15)
    assert batched.setup_time == pytest.approx(scalar.setup_time, rel=1e-9)
    assert batched.hold_time == pytest.approx(scalar.hold_time, rel=1e-9)
