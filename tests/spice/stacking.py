"""Describe an ensemble by its member circuits, as the tests do.

:class:`repro.spice.EnsembleSystem` takes one template circuit plus
per-member values.  The tests build each member as a complete circuit of
its own (the same circuit the scalar oracle runs), so :func:`stack`
turns a list of structurally identical circuits into that form: the
first circuit is the template, and every value attribute whose object
differs between members becomes a per-member value.
"""

from repro.spice import EnsembleTransient

#: Element attributes an ensemble may vary member to member.
VALUE_ATTRS = ("value", "capacitance", "resistance", "model", "w", "l")


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
