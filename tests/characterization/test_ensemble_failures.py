"""A characterisation point the ensemble cannot finish fails where it
fails.

The batched measurements (``measure_pin_batch``,
``measure_clk_to_q_batch``, the setup search) run no scalar transient:
an ensemble ``ConvergenceError`` surfaces with the failing point's
context, and a point the ensemble cannot measure raises
``CharacterizationError``.  The scalar measurements stay the oracle the
equivalence tests compare against.
"""

import logging

import numpy as np
import pytest

from repro.cells.library_def import organic_library_definition
from repro.characterization import harness
from repro.errors import CharacterizationError, ConvergenceError
from repro.spice.ensemble import EnsembleTransient


@pytest.fixture(scope="module")
def defn():
    return organic_library_definition()


@pytest.fixture(scope="module")
def grid(defn):
    return harness.default_grid(defn)


@pytest.fixture(scope="module")
def t_unit(defn):
    inv = defn.cell("inv")
    return harness.estimate_gate_delay(inv, 4.0 * inv.input_capacitance("a"))


@pytest.fixture()
def scalar_calls(monkeypatch):
    """Calls of the scalar transient the harness makes."""
    calls = []
    real = harness.transient

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "transient", counting)
    return calls


class _FailsMemberOne(EnsembleTransient):
    """A real ensemble whose run fails the way a member's step does."""

    def run(self):
        raise ConvergenceError(
            "forced step failure",
            events=[{"stage": "ensemble_transient", "t": 0.0, "member": 1,
                     "dt_min": 1e-15}])


@pytest.fixture()
def failing_ensemble(monkeypatch):
    monkeypatch.setattr(harness, "EnsembleTransient", _FailsMemberOne)


class TestConvergenceFailures:
    def test_pin_batch(self, defn, grid, failing_ensemble, scalar_calls):
        cell = defn.cell("nand2")
        points = [(True, grid.slews[0], grid.loads[0]),
                  (False, grid.slews[2], grid.loads[1]),
                  (True, grid.slews[3], grid.loads[3])]
        with pytest.raises(ConvergenceError) as info:
            harness.measure_pin_batch(cell, "b", points)
        assert info.value.context == {
            "cell": "nand2", "pin": "b", "input_rise": False,
            "slew": grid.slews[2], "load": grid.loads[1]}
        assert "forced step failure" in str(info.value)
        assert scalar_calls == []

    def test_clk_to_q_batch(self, defn, grid, t_unit, failing_ensemble,
                            scalar_calls):
        points = [(grid.slews[0], grid.loads[0]),
                  (grid.slews[1], grid.loads[2])]
        with pytest.raises(ConvergenceError) as info:
            harness.measure_clk_to_q_batch(defn.dff, points, t_unit)
        assert info.value.context == {
            "cell": defn.dff.name, "clk_slew": grid.slews[1],
            "load": grid.loads[2]}
        assert scalar_calls == []

    def test_setup_search(self, defn, grid, t_unit, failing_ensemble,
                          scalar_calls):
        # The first round probes [hi, lo]: member 1 is the 0 s candidate.
        with pytest.raises(ConvergenceError) as info:
            harness.measure_setup_time(defn.dff, grid.slews[1],
                                       grid.loads[1], t_unit)
        assert info.value.context == {
            "cell": defn.dff.name, "clk_slew": grid.slews[1],
            "load": grid.loads[1], "setup_candidate": 0.0}
        assert scalar_calls == []


def _stub_ensemble(final, cause, effect):
    """An ensemble stand-in: every member ends at *final* with the given
    probe-0 (cause) and probe-1 (effect) crossings; no solve runs."""

    class Stub:
        def __init__(self, template, options, probes=(), values=None):
            self.n = len(options)

        def run(self):
            return self

        def final_value(self, node):
            return np.full(self.n, final)

        def crossing_times(self, probe, member, direction="any"):
            return np.asarray({0: cause, 1: effect}.get(probe, []), float)

    return Stub


class TestUnmeasurablePoints:
    def test_clk_to_q_never_negative(self, defn, grid, t_unit, monkeypatch,
                                     caplog, scalar_calls):
        """Q crossing only before the clock crossing: the shared
        effect-delay policy clamps to 0 and warns, naming the point."""
        vdd = defn.dff.rails["vdd"]
        monkeypatch.setattr(harness, "EnsembleTransient",
                            _stub_ensemble(vdd, [5e-3], [4e-3]))
        points = [(grid.slews[0], grid.loads[0]),
                  (grid.slews[2], grid.loads[3])]
        with caplog.at_level(logging.WARNING, logger="repro"):
            delays = harness.measure_clk_to_q_batch(defn.dff, points, t_unit)
        assert delays == [0.0, 0.0]
        messages = [r.getMessage() for r in caplog.records]
        assert any("negative propagation delay" in m
                   and f"slew={grid.slews[2]:g} load={grid.loads[3]:g}" in m
                   for m in messages)
        assert scalar_calls == []

    def test_clk_to_q_unsettled_raises(self, defn, grid, t_unit,
                                       monkeypatch, scalar_calls):
        monkeypatch.setattr(harness, "EnsembleTransient",
                            _stub_ensemble(0.0, [5e-3], [6e-3]))
        with pytest.raises(CharacterizationError, match="clk->q"):
            harness.measure_clk_to_q_batch(
                defn.dff, [(grid.slews[0], grid.loads[0])], t_unit)
        assert scalar_calls == []

    def test_pin_unsettled_raises(self, defn, grid, monkeypatch,
                                  scalar_calls):
        # A rising input on an inverter ends low: a high output never
        # settles.
        cell = defn.cell("inv")
        monkeypatch.setattr(harness, "EnsembleTransient",
                            _stub_ensemble(cell.rails["vdd"], [1.0], [2.0]))
        with pytest.raises(CharacterizationError, match="did not settle"):
            harness.measure_pin_batch(
                cell, "a", [(True, grid.slews[0], grid.loads[0])])
        assert scalar_calls == []

    def test_pin_settled_without_crossings_raises(self, defn, grid,
                                                  monkeypatch, scalar_calls):
        cell = defn.cell("inv")
        monkeypatch.setattr(harness, "EnsembleTransient",
                            _stub_ensemble(0.0, [], []))
        with pytest.raises(CharacterizationError,
                           match="measurement failed"):
            harness.measure_pin_batch(
                cell, "a", [(True, grid.slews[0], grid.loads[0])])
        assert scalar_calls == []
