"""The SPICE tests' shared testbench, and ensembles described by members.

:func:`inverter_testbench` is the pentacene pseudo-E inverter, whose
output swings rail to rail, so every crossing comparison it feeds has
crossings to compare.

:class:`repro.spice.EnsembleSystem` takes one template circuit plus
per-member values.  The tests build each member as a complete circuit of
its own (the same circuit the scalar oracle runs), so :func:`stack`
turns a list of structurally identical circuits into that form: the
first circuit is the template, and every value attribute whose object
differs between members becomes a per-member value.
:func:`assert_stacks_equal` checks an ensemble against the oracle of
that form: one :class:`~repro.spice.mna.MnaSystem` per member circuit.
"""

import numpy as np

from repro.cells.topologies import pseudo_e_inverter
from repro.devices.pentacene import pentacene_model
from repro.devices.tft_level61 import StackedTftParams, UnifiedTft
from repro.spice import (
    Capacitor,
    Circuit,
    EnsembleTransient,
    Fet,
    RampValue,
    VoltageSource,
)
from repro.spice.mna import MnaSystem

VDD = 15.0

#: Element attributes an ensemble may vary member to member.
VALUE_ATTRS = ("value", "capacitance", "resistance", "model", "w", "l")


def pseudo_e_testbench(vt_shift=0.0, vss=-15.0, w_drive=100e-6):
    """The pseudo-E inverter on VDD = 15 V, its input held at 0 V."""
    model = pentacene_model(vt_shift=vt_shift)
    cell = pseudo_e_inverter(model, w_drive=w_drive, vdd=VDD, vss=vss)
    ckt = Circuit("tb_pe")
    node_map = {"a": "a", "out": "out"}
    for rail, volts in cell.rails.items():
        if volts == 0.0:
            node_map[rail] = "0"
        else:
            node_map[rail] = rail
            ckt.add(VoltageSource(f"v_{rail}", rail, "0", volts))
    ckt.add(VoltageSource("v_a", "a", "0", 0.0))
    cell.instantiate(ckt, node_map)
    return ckt


def inverter_testbench(load=1e-12, slew=2e-4, w_drive=100e-6,
                       vt_shift=0.0):
    """The pseudo-E inverter driving *load*, its input ramped from 0 V
    to VDD over *slew* from ``0.2 * slew``: ``out`` falls from VDD to
    0 V through every level in between."""
    ckt = pseudo_e_testbench(vt_shift=vt_shift, w_drive=w_drive)
    ckt.add(Capacitor("c_load", "out", "0", load))
    ckt.element("v_a").value = RampValue(0.0, VDD, 0.2 * slew, slew)
    return ckt


def stack(circuits):
    """``(template, values)`` of structurally identical *circuits*."""
    members = [c.elements for c in circuits]
    values = {}
    for i, element in enumerate(members[0]):
        for other in members[1:]:
            assert (other[i].name, type(other[i]), other[i].nodes) == (
                element.name, type(element), element.nodes)
        for attr in VALUE_ATTRS:
            if hasattr(element, attr):
                vals = [getattr(m[i], attr) for m in members]
                if any(v is not vals[0] for v in vals):
                    values[element.name, attr] = vals
    return circuits[0], values


def transient_ensemble(circuits, options, probes=()):
    """An :class:`EnsembleTransient` over *circuits*' members."""
    template, values = stack(circuits)
    return EnsembleTransient(template, options, probes, values)


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_stacks_equal(es, circuits) -> None:
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
