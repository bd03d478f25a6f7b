"""Device models: the paper's Section 3-4 substrate.

This subpackage replaces the authors' fabricated pentacene OTFTs and their
HSPICE device decks:

- :mod:`repro.devices.mosfet_level1` — SPICE level 1 (Shichman-Hodges),
- :mod:`repro.devices.tft_level61` — a unified accumulation-mode TFT model
  in the spirit of the level 61 RPI a-Si TFT model (power-law mobility,
  subthreshold conduction, leakage floor, drain-induced VT shift),
- :mod:`repro.devices.pentacene` — the golden pentacene device matching
  every DC figure reported in the paper plus a synthetic measurement
  generator (the stand-in for the probe-station data),
- :mod:`repro.devices.silicon` — 45 nm-class silicon MOSFETs for the
  reduced comparison library,
- :mod:`repro.devices.extraction` — mobility/VT/SS extraction and
  least-squares model fitting (Figure 4).
"""

from repro.devices.mosfet_level1 import Level1Mosfet
from repro.devices.tft_level61 import UnifiedTft
from repro.devices.pentacene import (
    PENTACENE,
    pentacene_model,
    measured_transfer_curve,
    TransferCurve,
)
from repro.devices.silicon import silicon_nmos_45, silicon_pmos_45, SILICON_VDD
from repro.devices.extraction import (
    extract_linear_mobility,
    extract_threshold_voltage,
    extract_subthreshold_slope,
    extract_on_off_ratio,
    fit_level1,
    fit_level61,
    FitResult,
)

__all__ = [
    "Level1Mosfet",
    "UnifiedTft",
    "PENTACENE",
    "pentacene_model",
    "measured_transfer_curve",
    "TransferCurve",
    "silicon_nmos_45",
    "silicon_pmos_45",
    "SILICON_VDD",
    "extract_linear_mobility",
    "extract_threshold_voltage",
    "extract_subthreshold_slope",
    "extract_on_off_ratio",
    "fit_level1",
    "fit_level61",
    "FitResult",
]
