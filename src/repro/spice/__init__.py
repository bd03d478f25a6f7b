"""A small modified-nodal-analysis circuit simulator.

This subpackage is the repro stand-in for HSPICE in the paper's flow
(Figure 10).  It supports:

- DC operating point via damped Newton-Raphson with gmin and source
  stepping fallbacks (:mod:`repro.spice.dc`),
- DC sweeps with continuation (:func:`repro.spice.dc.dc_sweep`),
- transient analysis with backward-Euler integration
  (:mod:`repro.spice.transient`) and its lockstep batched form
  (:mod:`repro.spice.ensemble`),
- waveform measurements (delay, slew, crossings) used by NLDM
  characterisation (:mod:`repro.spice.waveform`).

Circuits are built from :class:`repro.spice.netlist.Circuit` and element
classes in :mod:`repro.spice.elements`.  Nonlinear transistors take a
device model object from :mod:`repro.devices`.
"""

from repro.spice.netlist import Circuit, GROUND
from repro.spice.elements import (
    Resistor,
    Capacitor,
    VoltageSource,
    CurrentSource,
    Fet,
    RampValue,
)
from repro.spice.dc import NewtonOptions, operating_point, dc_sweep
from repro.spice.ensemble import (
    EnsembleSystem,
    EnsembleTransient,
    Probe,
    ensemble_dc_sweep,
    ensemble_operating_point,
)
from repro.spice.transient import TransientOptions, TransientResult, transient
from repro.spice.waveform import Waveform

__all__ = [
    "Circuit",
    "GROUND",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "Fet",
    "RampValue",
    "NewtonOptions",
    "operating_point",
    "dc_sweep",
    "EnsembleSystem",
    "EnsembleTransient",
    "Probe",
    "ensemble_dc_sweep",
    "ensemble_operating_point",
    "TransientOptions",
    "TransientResult",
    "transient",
    "Waveform",
]
