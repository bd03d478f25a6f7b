"""The architecture-tradeoff layer: AnyCore-style parameterised cores.

This is the paper's primary contribution: given the characterised organic
and silicon libraries, evaluate processor design points across pipeline
depth (Figure 11), ALU depth (Figure 12), and superscalar width (Figures
13/14), combining

- **IPC** from a trace-driven out-of-order cycle simulator
  (:mod:`repro.core.superscalar`) running seven synthetic workloads
  (:mod:`repro.core.workloads` — Dhrystone plus six SPEC CPU2000 integer
  stand-ins), and
- **clock frequency and area** from the physical model
  (:mod:`repro.core.physical`), which prices each pipeline region with
  real mapped netlists plus Palacharla-style structure models, all
  expressed through the process's NLDM library and wire model.

``performance = IPC x frequency``, exactly as the paper computes it.
"""

from repro.core.config import CoreConfig, REGION_NAMES
from repro.core.isa import InstrClass, Instruction
from repro.core.trace import Trace
from repro.core.workloads import WORKLOADS, WorkloadSpec, generate_trace
from repro.core.branch import GsharePredictor
from repro.core.superscalar import SimulationResult, simulate
from repro.core.physical import CorePhysical, core_physical
from repro.core.tradeoffs import (
    DepthSweepPoint,
    depth_sweep,
    WidthSweepPoint,
    width_sweep,
    deepen_pipeline,
)

__all__ = [
    "CoreConfig",
    "REGION_NAMES",
    "InstrClass",
    "Instruction",
    "Trace",
    "WORKLOADS",
    "WorkloadSpec",
    "generate_trace",
    "GsharePredictor",
    "SimulationResult",
    "simulate",
    "CorePhysical",
    "core_physical",
    "DepthSweepPoint",
    "depth_sweep",
    "WidthSweepPoint",
    "width_sweep",
    "deepen_pipeline",
]
