"""Characterisation-harness unit tests (grid, stimulus, measurements)."""

import pytest

from repro.cells.library_def import organic_library_definition
from repro.characterization.harness import (
    CharacterizationGrid,
    _non_controlling,
    average_leakage,
    default_grid,
    measure_arc,
    ramp_source,
)
from repro.errors import CharacterizationError


class TestGrid:
    def test_valid(self):
        CharacterizationGrid(slews=(1e-6, 1e-5), loads=(1e-12, 1e-11))

    def test_too_small(self):
        with pytest.raises(CharacterizationError):
            CharacterizationGrid(slews=(1e-6,), loads=(1e-12, 1e-11))

    def test_unsorted(self):
        with pytest.raises(CharacterizationError):
            CharacterizationGrid(slews=(1e-5, 1e-6), loads=(1e-12, 1e-11))

    def test_negative(self):
        with pytest.raises(CharacterizationError):
            CharacterizationGrid(slews=(-1e-6, 1e-5), loads=(1e-12, 1e-11))

    def test_default_grid_anchored_on_fo4(self):
        defn = organic_library_definition()
        grid = default_grid(defn)
        assert len(grid.slews) == 4 and len(grid.loads) == 4
        assert grid.slews[0] < grid.slews[-1]


class TestRampSource:
    def test_holds_then_ramps(self):
        src = ramp_source(0.0, 5.0, t_start=1e-5, slew=6e-6)
        assert src(0.0) == 0.0
        assert src(1e-5) == 0.0
        assert src(1.0) == 5.0
        duration = 6e-6 / 0.6
        mid = src(1e-5 + duration / 2)
        assert mid == pytest.approx(2.5, rel=1e-9)

    def test_falling_ramp(self):
        src = ramp_source(5.0, 0.0, t_start=0.0, slew=6e-6)
        assert src(1.0) == 0.0
        assert src(0.0) == 5.0


class TestSensitization:
    def test_inverter_has_no_side_inputs(self):
        defn = organic_library_definition()
        assert _non_controlling(defn.cell("inv"), "a") == {}

    def test_nand_side_inputs_high(self):
        defn = organic_library_definition()
        side = _non_controlling(defn.cell("nand3"), "a")
        assert side == {"b": 5.0, "c": 5.0}

    def test_nor_side_inputs_low(self):
        defn = organic_library_definition()
        side = _non_controlling(defn.cell("nor2"), "a")
        assert side == {"b": 0.0}


class TestMeasurement:
    def test_inverter_arc(self):
        defn = organic_library_definition()
        inv = defn.cell("inv")
        grid = default_grid(defn)
        delay, out_slew = measure_arc(inv, "a", True,
                                      grid.slews[1], grid.loads[1])
        assert delay > 0 and out_slew > 0
        # Organic gate delays are tens-to-hundreds of microseconds.
        assert 1e-6 < delay < 1e-2

    def test_delay_monotone_in_load(self):
        defn = organic_library_definition()
        inv = defn.cell("inv")
        grid = default_grid(defn)
        d_small, _ = measure_arc(inv, "a", True, grid.slews[1], grid.loads[0])
        d_big, _ = measure_arc(inv, "a", True, grid.slews[1], grid.loads[-1])
        assert d_big > d_small

    def test_average_leakage_positive(self):
        defn = organic_library_definition()
        assert average_leakage(defn.cell("nand2")) > 0


def test_library_build_solves_inverter_currents_once(monkeypatch):
    """An uncached library build solves each combinational cell's
    switching currents once: the inverter's anchor the default grid,
    give its own delay hints and set the flop's time scale, bit for bit
    the values of separate solves.  Transients, the flop and leakage are
    stubbed out, so only those DC solves run."""
    from repro.cells.sizing import estimate_gate_delay
    from repro.characterization import harness
    from repro.characterization.library import SequentialTiming
    from repro.characterization.nldm import NldmTable
    from repro.spice import ensemble

    defn = organic_library_definition()
    inv = defn.cell("inv")
    cin = inv.input_capacitance("a")
    grid = default_grid(defn)
    want_hints = {load: estimate_gate_delay(inv, load + 1e-18)
                  for load in grid.loads}
    want_t_unit = estimate_gate_delay(inv, 4.0 * cin)

    solves = []
    real = ensemble.ensemble_operating_point

    def spy(*args, **kwargs):
        solves.append(1)
        return real(*args, **kwargs)

    inv_hints = []

    def fake_pin_batch(design, pin, points, hints=None):
        if design is inv:
            inv_hints.append(hints)
        return [(1e-9, 1e-9)] * len(points)

    def fake_dff(dff, grid, area, t_unit):
        fake_dff.t_unit = t_unit
        table = NldmTable(grid.slews, grid.loads,
                          [[1e-9] * len(grid.loads)] * len(grid.slews))
        return SequentialTiming("dff", {}, area, table, 0.0, 0.0, 0.0)

    monkeypatch.setattr(ensemble, "ensemble_operating_point", spy)
    monkeypatch.setattr(harness, "measure_pin_batch", fake_pin_batch)
    monkeypatch.setattr(harness, "characterize_dff", fake_dff)
    monkeypatch.setattr(harness, "average_leakage", lambda design: 0.0)
    library = harness.characterize_library(defn, use_cache=False)

    assert len(solves) == len(defn.COMBINATIONAL)
    assert library.metadata["grid_slews"] == list(grid.slews)
    assert library.metadata["grid_loads"] == list(grid.loads)
    assert inv_hints == [want_hints]
    assert fake_dff.t_unit == want_t_unit
