"""Template-built ensembles equal stacked per-member systems, byte for byte.

The harness builds each characterisation ensemble from one template
testbench plus per-member values (ramps, held levels, ``c_load``).  The
oracle here is the old construction: one complete testbench per member,
built by the scalar path's own testbench functions, bound by its own
:class:`~repro.spice.mna.MnaSystem`, with the results stacked.  Every
array the solvers read — ``G_static``, ``C_unit``, the constant rhs, the
ramp planes and the FET tables — must be equal to the last bit, for
every combinational cell's arcs, the flip-flop's clk->q grid and setup
candidates, and every cell's leakage states, in both stock libraries.
"""

import itertools

import numpy as np
import pytest

from repro.cells.library_def import (organic_library_definition,
                                     silicon_library_definition)
from repro.cells.sizing import estimate_gate_delay
from repro.cells.topologies import build_dc_testbench
from repro.characterization import harness
from repro.spice.ensemble import EnsembleSystem

from tests.spice.stacking import assert_stacks_equal


@pytest.fixture(scope="module", params=["organic", "silicon"])
def defn(request):
    return {"organic": organic_library_definition,
            "silicon": silicon_library_definition}[request.param]()


def test_arc_ensembles(defn):
    grid = harness.default_grid(defn)
    for name in defn.COMBINATIONAL:
        design = defn.cell(name)
        vdd = design.rails["vdd"]
        members = []
        for rise, load, slew in itertools.product(
                (True, False), grid.loads, grid.slews):
            hint = estimate_gate_delay(design, load + 1e-18)
            t_start = 0.25 * slew * harness._RAMP_FACTOR + 0.05 * hint
            members.append((rise, slew, load, t_start))
        for pin in design.inputs:
            template, values = harness._arc_ensemble(design, pin, members)
            circuits = [harness._arc_testbench(
                design, pin, *((0.0, vdd) if rise else (vdd, 0.0)),
                t_start, slew, load)
                for rise, slew, load, t_start in members]
            assert_stacks_equal(EnsembleSystem(template, values), circuits)


def _t_unit(defn):
    inv = defn.cell("inv")
    return estimate_gate_delay(inv, 4.0 * inv.input_capacitance("a"))


def test_clk_to_q_ensemble(defn):
    dff, grid, t_unit = defn.dff, harness.default_grid(defn), _t_unit(defn)
    vdd = dff.rails["vdd"]
    stimuli = []
    for k, (slew, load) in enumerate(itertools.product(grid.slews,
                                                       grid.loads)):
        sources, _t_clk, _opts = harness._dff_stimulus(
            dff, slew, t_unit, d_level=vdd, q_rises=True,
            t_extra=4.0 ** (k % 3) * t_unit)
        stimuli.append((load, sources))
    template, values = harness._dff_ensemble(dff, stimuli)
    assert_stacks_equal(
        EnsembleSystem(template, values),
        [harness._dff_testbench(dff, load, src) for load, src in stimuli])


def test_setup_candidate_ensemble(defn):
    dff, grid, t_unit = defn.dff, harness.default_grid(defn), _t_unit(defn)
    vdd = dff.rails["vdd"]
    slew = grid.slews[len(grid.slews) // 2]
    load = grid.loads[len(grid.loads) // 2]
    stimuli = []
    for offset in (10.0 * t_unit, 0.0, *np.linspace(1.0, 9.0, 7) * t_unit):
        sources, _t_clk, _opts = harness._dff_stimulus(
            dff, slew, t_unit, d_level=vdd, q_rises=True,
            d_offset_before_clk=offset, t_extra=4.0 * t_unit)
        stimuli.append((load, sources))
    template, values = harness._dff_ensemble(dff, stimuli)
    assert_stacks_equal(
        EnsembleSystem(template, values),
        [harness._dff_testbench(dff, load, src) for load, src in stimuli])


def test_leakage_ensembles(defn):
    designs = {name: defn.cell(name) for name in defn.COMBINATIONAL}
    designs.update({d.name: d for _, d, _ in defn.dff.subcells})
    for design in designs.values():
        vdd = design.rails["vdd"]
        template, values = harness._leakage_ensemble(design)
        circuits = [build_dc_testbench(design,
                                       dict(zip(design.inputs, state)))
                    for state in itertools.product(
                        (0.0, vdd), repeat=len(design.inputs))]
        assert_stacks_equal(EnsembleSystem(template, values), circuits)
