"""Gate-level synthesis, timing analysis and pipelining.

This subpackage stands in for Synopsys Design Compiler + DesignWare in the
paper's flow: it builds gate-level netlists for the datapath blocks the
experiments synthesise (ALUs with pipelined multipliers/dividers), maps
them onto the 6-cell library, runs NLDM static timing analysis with a
per-process wire model, and cuts designs into N pipeline stages to find
the minimum clock period — the quantity Figures 11, 12 and 15 sweep.
"""

from repro.synthesis.netlist import Gate, Netlist
from repro.synthesis.generators import (
    ripple_carry_adder,
    carry_select_adder,
    simple_alu,
)
from repro.synthesis.mapping import technology_map
from repro.synthesis.wires import WireModel, organic_wire_model, silicon_wire_model
from repro.synthesis.sta import TimingReport, static_timing
from repro.synthesis.pipeline import (
    PipelineResult,
    min_period_for_stages,
    pipeline_sweep,
    stages_needed,
)

__all__ = [
    "Gate",
    "Netlist",
    "ripple_carry_adder",
    "carry_select_adder",
    "simple_alu",
    "technology_map",
    "WireModel",
    "organic_wire_model",
    "silicon_wire_model",
    "TimingReport",
    "static_timing",
    "PipelineResult",
    "min_period_for_stages",
    "pipeline_sweep",
    "stages_needed",
]
