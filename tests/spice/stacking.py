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
"""

from repro.cells.topologies import pseudo_e_inverter
from repro.devices.pentacene import pentacene_model
from repro.spice import (
    Capacitor,
    Circuit,
    EnsembleTransient,
    RampValue,
    VoltageSource,
)

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
