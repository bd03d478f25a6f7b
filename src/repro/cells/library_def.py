"""The 6-cell library definitions for both processes (paper Section 5.1).

"The proposed standard cell library consists of 6 basic logic cells which
can be used to cover all required logic functions" — INV, NAND2, NAND3,
NOR2, NOR3, and a D-flip-flop with preset and clear.  The silicon library
is "a trimmed 6 gate TSMC 45 nm standard cell library": here, CMOS cells
with the same six functions, so the comparison removes library-richness
effects exactly as the paper's reduction does.

Cell areas follow a simple layout model: per-transistor active area plus
routing/contact margins, times a style factor (the unipolar pseudo-E cells
route three power rails — VDD, GND and the negative VSS — which costs
extra track height, as in the paper's Figure 5 layouts).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cells.topologies import (
    CellDesign,
    CompositeCell,
    ORGANIC_L,
    SILICON_L,
    cmos_inverter,
    cmos_nand,
    cmos_nor,
    nand_dff,
    pseudo_e_inverter,
    pseudo_e_nand,
    pseudo_e_nor,
)
from repro.devices.pentacene import ORGANIC_VDD, ORGANIC_VSS, PENTACENE
from repro.devices.silicon import SILICON_VDD, silicon_nmos_45, silicon_pmos_45
from repro.devices.tft_level61 import UnifiedTft
from repro.errors import LibraryError

#: Organic pseudo-E sizes selected by repro.cells.sizing (utility-optimal
#: over the default grid; see tests/cells/test_sizing.py which re-derives
#: the preference ordering on a reduced grid).
ORGANIC_SIZES = {
    "w_drive": 100e-6,
    # Weak shifter load, W/L = 0.1, realised as a long channel because
    # shadow-mask patterning bounds the minimum width.
    "w_shift_load": 10e-6,
    "l_shift_load": 100e-6,
    "w_up": 100e-6,
    "w_down": 50e-6,
}

#: Silicon sizes: minimum-pitch NMOS with 2x PMOS (mobility ratio).
SILICON_SIZES = {
    "w_n": 0.5e-6,
    "w_p": 1.0e-6,
}


@dataclass(frozen=True)
class AreaModel:
    """Cell area from transistor geometry.

    ``area = overhead * sum((w + 2 margin) * (l + 2 margin))`` — margins
    cover contacts and routing pitch; *overhead* covers rails and spacing
    (higher for the three-rail unipolar style).
    """

    margin: float
    overhead: float

    def cell_area(self, cell: CellDesign | CompositeCell) -> float:
        if isinstance(cell, CompositeCell):
            return sum(self.cell_area(d) for _, d, _ in cell.subcells)
        return self.overhead * sum(
            (d.w + 2 * self.margin) * (d.l + 2 * self.margin)
            for d in cell.devices)


ORGANIC_AREA_MODEL = AreaModel(margin=20e-6, overhead=1.6)
SILICON_AREA_MODEL = AreaModel(margin=60e-9, overhead=1.3)


@dataclass(frozen=True)
class CellLibraryDefinition:
    """All six cell designs of one process plus shared metadata."""

    name: str
    process: str                 # 'organic' | 'silicon'
    vdd: float
    cells: dict[str, CellDesign]
    dff: CompositeCell
    area_model: AreaModel

    #: The canonical combinational cell names, in characterisation order.
    COMBINATIONAL = ("inv", "nand2", "nand3", "nor2", "nor3")

    def cell(self, name: str) -> CellDesign:
        try:
            return self.cells[name]
        except KeyError:
            raise LibraryError(
                f"library {self.name!r} has no cell {name!r}; "
                f"available: {sorted(self.cells)}") from None

    def cell_area(self, name: str) -> float:
        if name == "dff":
            return self.area_model.cell_area(self.dff)
        return self.area_model.cell_area(self.cell(name))

    def input_capacitance(self, cell_name: str, pin: str) -> float:
        if cell_name == "dff":
            return self.dff.input_capacitance(pin)
        return self.cell(cell_name).input_capacitance(pin)


def organic_library_definition(model: UnifiedTft = PENTACENE,
                               vdd: float = ORGANIC_VDD,
                               vss: float = ORGANIC_VSS,
                               sizes: dict[str, float] | None = None,
                               l: float = ORGANIC_L) -> CellLibraryDefinition:
    """The pentacene pseudo-E library at VDD = 5 V, VSS = -15 V.

    ``model`` can be swapped for another level-61 device to retarget
    the whole flow to another organic semiconductor.  It must be a
    :class:`~repro.devices.tft_level61.UnifiedTft`, the one model the
    characterisation ensembles batch (the paper characterises its cells
    on level 61 alone).
    """
    s = dict(ORGANIC_SIZES)
    if sizes:
        s.update(sizes)
    inv = pseudo_e_inverter(model, vdd=vdd, vss=vss, l=l, **s)
    cells = {
        "inv": inv,
        "nand2": pseudo_e_nand(model, 2, vdd=vdd, vss=vss, l=l, **s),
        "nand3": pseudo_e_nand(model, 3, vdd=vdd, vss=vss, l=l, **s),
        "nor2": pseudo_e_nor(model, 2, vdd=vdd, vss=vss, l=l, **s),
        "nor3": pseudo_e_nor(model, 3, vdd=vdd, vss=vss, l=l, **s),
    }
    dff = nand_dff(cells["nand2"], cells["nand3"])
    return CellLibraryDefinition(
        name=f"organic_{getattr(model, 'name', 'otft')}",
        process="organic",
        vdd=vdd,
        cells=cells,
        dff=dff,
        area_model=ORGANIC_AREA_MODEL,
    )


def silicon_library_definition(vdd: float = SILICON_VDD,
                               sizes: dict[str, float] | None = None,
                               l: float = SILICON_L) -> CellLibraryDefinition:
    """The reduced 45 nm CMOS library (same six functions)."""
    nmos = silicon_nmos_45()
    pmos = silicon_pmos_45()
    s = dict(SILICON_SIZES)
    if sizes:
        s.update(sizes)
    cells = {
        "inv": cmos_inverter(nmos, pmos, vdd=vdd, l=l, **s),
        "nand2": cmos_nand(nmos, pmos, 2, vdd=vdd, l=l, **s),
        "nand3": cmos_nand(nmos, pmos, 3, vdd=vdd, l=l, **s),
        "nor2": cmos_nor(nmos, pmos, 2, vdd=vdd, l=l, **s),
        "nor3": cmos_nor(nmos, pmos, 3, vdd=vdd, l=l, **s),
    }
    dff = nand_dff(cells["nand2"], cells["nand3"])
    return CellLibraryDefinition(
        name="silicon_45nm_reduced",
        process="silicon",
        vdd=vdd,
        cells=cells,
        dff=dff,
        area_model=SILICON_AREA_MODEL,
    )
