"""SPICE level 1 (Shichman-Hodges) MOSFET model.

The paper fits a level 1 model first (Section 4.2) and observes that it
"does not produce effects such as sub-VT conduction and leakage current",
making it insufficient for OTFTs — exactly the behaviour this class has:
zero current below threshold, square-law above.

All voltages are in the normalised n-type frame (see
:mod:`repro.spice.elements`); the element handles polarity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DeviceModelError


@dataclass(frozen=True)
class Level1Mosfet:
    """Shichman-Hodges square-law MOSFET.

    Parameters
    ----------
    polarity:
        +1 for n-type, -1 for p-type (used by the circuit element).
    kp:
        Transconductance parameter ``mu * Ci`` in A/V^2.
    vt0:
        Threshold voltage (normalised frame, volts).
    lambda_:
        Channel-length modulation, 1/V.
    ci:
        Gate capacitance per area, F/m^2 (for load modelling).
    c_overlap:
        Gate-source/drain overlap capacitance per metre of width, F/m.
    """

    polarity: int
    kp: float
    vt0: float
    lambda_: float = 0.0
    ci: float = 0.0
    c_overlap: float = 0.0

    def __post_init__(self) -> None:
        if self.polarity not in (+1, -1):
            raise DeviceModelError(f"polarity must be +1 or -1, got {self.polarity}")
        if self.kp <= 0:
            raise DeviceModelError(f"kp must be positive, got {self.kp}")
        if self.lambda_ < 0:
            raise DeviceModelError(f"lambda_ must be >= 0, got {self.lambda_}")

    def ids(self, vgs: float, vds: float, w: float, l: float
            ) -> tuple[float, float, float]:
        """Return ``(id, gm, gds)`` in the normalised frame (``vds >= 0``)."""
        beta = self.kp * w / l
        vov = vgs - self.vt0
        if vov <= 0.0:
            return 0.0, 0.0, 0.0
        clm = 1.0 + self.lambda_ * vds
        if vds < vov:
            # Triode region.
            core = vov * vds - 0.5 * vds * vds
            i = beta * core * clm
            gm = beta * vds * clm
            gds = beta * ((vov - vds) * clm + core * self.lambda_)
        else:
            # Saturation.
            core = 0.5 * vov * vov
            i = beta * core * clm
            gm = beta * vov * clm
            gds = beta * core * self.lambda_
        return i, gm, gds

    def capacitances(self, w: float, l: float) -> tuple[float, float, float]:
        """Small-signal ``(cgs, cgd, cds)`` using the split-channel convention."""
        c_channel = self.ci * w * l
        c_ov = self.c_overlap * w
        return 0.5 * c_channel + c_ov, 0.5 * c_channel + c_ov, 0.0

    def gate_capacitance(self, w: float, l: float) -> float:
        """Total gate input capacitance, used for fanout load estimates."""
        cgs, cgd, _ = self.capacitances(w, l)
        return cgs + cgd
