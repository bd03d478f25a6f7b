"""Experiment harness: one runner per paper figure, plus reporting."""

from repro.analysis.calibration import PAPER, CalibrationEntry
from repro.analysis.figures import (
    fig3_transfer_characteristics,
    fig4_model_fits,
    fig6_inverter_comparison,
    fig7_vdd_scaling,
    fig8_vss_tuning,
    fig11_pipeline_depth,
    fig12_alu_depth,
    fig13_width_performance,
    fig14_width_area,
    fig15_wire_ablation,
)
from repro.analysis.tables import format_table, format_matrix

__all__ = [
    "PAPER",
    "CalibrationEntry",
    "fig3_transfer_characteristics",
    "fig4_model_fits",
    "fig6_inverter_comparison",
    "fig7_vdd_scaling",
    "fig8_vss_tuning",
    "fig11_pipeline_depth",
    "fig12_alu_depth",
    "fig13_width_performance",
    "fig14_width_area",
    "fig15_wire_ablation",
    "format_table",
    "format_matrix",
]
