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
from repro.devices.tft_level61 import StackedTftParams, UnifiedTft
from repro.spice.elements import Fet, RampValue
from repro.spice.ensemble import EnsembleSystem
from repro.spice.mna import MnaSystem


@pytest.fixture(scope="module", params=["organic", "silicon"])
def defn(request):
    return {"organic": organic_library_definition,
            "silicon": silicon_library_definition}[request.param]()


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_stacks_equal(es: EnsembleSystem, circuits) -> None:
    """*es* against ``np.stack`` of one MnaSystem per member circuit."""
    systems = [MnaSystem(c) for c in circuits]
    assert es.B == len(systems)
    assert all(s.node_index == es.node_index
               and s.branch_index == es.branch_index for s in systems)
    _same(es.G_static, np.stack([s._G_static for s in systems]))
    _same(es.C_unit, np.stack([s._C_unit for s in systems]))

    b_const = np.zeros((es.B, es.size))
    ramps = []
    for b, s in enumerate(systems):
        for e in s._rhs_time:
            if not callable(e.value):
                e.stamp_rhs(b_const[b], 0.0)
        ramps.append([(e._branch, e.value) for e in s._rhs_time
                      if isinstance(e.value, RampValue)])
    _same(es._b_const, b_const)
    assert len(es._ramps) == len(ramps[0])
    for k, (row, v0, dv, t_start, inv_dur) in enumerate(es._ramps):
        assert all(member[k][0] == row for member in ramps)
        values = [member[k][1] for member in ramps]
        _same(v0, np.array([v.v0 for v in values]))
        _same(dv, np.array([v.v1 - v.v0 for v in values]))
        _same(t_start, np.array([v.t_start for v in values]))
        _same(inv_dur, np.array([1.0 / v.duration for v in values]))

    fets = [[e for e in s.circuit.elements
             if isinstance(e, Fet) and isinstance(e.model, UnifiedTft)]
            for s in systems]
    flat = [f for member in fets for f in member]
    batch = es.fet_batch

    def loc(i):
        return i if i >= 0 else es.size

    _same(batch.member_id,
          np.array([b for b, member in enumerate(fets) for _ in member],
                   dtype=np.intp))
    for k, name in enumerate(("d_loc", "g_loc", "s_loc")):
        _same(getattr(batch, name),
              np.array([loc(f._idx[k]) for f in flat], dtype=np.intp))
    _same(batch.pol, np.array([float(f.model.polarity) for f in flat]))
    params = StackedTftParams([f.model for f in flat],
                              np.array([f.w for f in flat]),
                              np.array([f.l for f in flat]))
    for field in StackedTftParams._FIELDS:
        _same(getattr(batch.params, field), getattr(params, field))


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


def test_monte_carlo_ensemble():
    """Per-member device models (yield Monte Carlo) and rail levels."""
    from repro.analysis.yield_mc import perturb_cell
    from repro.cells.topologies import pseudo_e_inverter
    from repro.cells.vtc import _vtc_ensemble, _vtc_testbench
    from repro.devices.pentacene import PENTACENE
    from repro.devices.variation import VariationModel

    rng = np.random.default_rng(7)
    base = pseudo_e_inverter(PENTACENE, vdd=15.0, vss=-15.0)
    cells = [perturb_cell(base, VariationModel(), rng) for _ in range(5)]
    cells += [pseudo_e_inverter(PENTACENE, vdd=15.0, vss=float(v))
              for v in (-12.0, -18.0)]
    template, values = _vtc_ensemble(cells, "a", True)
    assert_stacks_equal(EnsembleSystem(template, values),
                        [_vtc_testbench(c, "a", True) for c in cells])
