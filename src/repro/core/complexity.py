"""Structure delay and area models (Palacharla-style), process-priced.

The width experiments hinge on "issue logic complexity that can have
significant overhead in cycle time and latency due to the higher gate and
interconnect delays" (Section 5.4).  Following Palacharla/Jouppi/Smith's
classic decomposition, each superscalar structure is modelled as

    delay = (logic part, in FO4 units)  +  (wire part, physical length)

where the FO4 unit and every wire penalty are evaluated through *this
process's* NLDM library and wire model.  The wire parts scale with
structure geometry (entries x storage-cell side, datapath heights, number
of pipes), so silicon pays several FO4 for the same structure the organic
process crosses almost for free — the mechanism behind Figure 13.

Storage arrays are flop-based (AnyCore/FabScalar synthesise them from
cells, and the organic library has no SRAM), so the storage-cell side
derives from the library's own DFF area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.characterization.library import Library
from repro.synthesis.pipeline import broadcast_penalty
from repro.synthesis.wires import WireModel


def _log2ceil(n: int) -> int:
    return max(1, math.ceil(math.log2(max(n, 2))))


@dataclass(frozen=True)
class StructureModel:
    """Shared geometry/pricing helpers bound to one process."""

    library: Library
    wire: WireModel

    @property
    def fo4(self) -> float:
        return self.library.inverter_fo4_delay()

    @property
    def cell_side(self) -> float:
        """Side of one storage bit-cell (a library flop plus mux)."""
        return math.sqrt(1.3 * self.library.dff.area)

    # -- generic flop array ------------------------------------------------------

    @staticmethod
    def _effective_rows(entries: int) -> float:
        """Bitline rows after banking: arrays beyond 32 entries are split
        into banks with a short per-bank bitline plus a bank-select mux
        trunk (standard hierarchical-bitline construction)."""
        if entries <= 32:
            return float(entries)
        return 32.0 + 0.25 * (entries - 32)

    @staticmethod
    def _port_scale(ports: int) -> float:
        return 1.0 + 0.12 * max(ports - 2, 0)

    def array_delay(self, entries: int, bits: int, ports: int) -> float:
        """Access time of a flop array: decode + wordline + bitline + mux."""
        side = self.cell_side * self._port_scale(ports)
        decode = (2.0 + 0.5 * _log2ceil(entries)) * self.fo4
        wordline = broadcast_penalty(self.library, self.wire, bits * side)
        bitline = broadcast_penalty(self.library, self.wire,
                                    self._effective_rows(entries) * side)
        sense = 2.0 * self.fo4
        return decode + wordline + bitline + sense

    def array_area(self, entries: int, bits: int, ports: int) -> float:
        scale = self._port_scale(ports)
        return entries * bits * 1.3 * self.library.dff.area * scale ** 2

    # -- named structures ----------------------------------------------------------

    def rename_delay(self, front_width: int, phys_regs: int) -> float:
        """Map-table read + intra-group dependency check.

        The dependency check compares every instruction's sources against
        every older instruction's destination in the rename group — a
        serial gate network quadratic in the front width (Palacharla's
        classic result), plus a cross-group wire that grows with the
        number of ways.
        """
        ports = 3 * front_width
        table = self.array_delay(32, _log2ceil(phys_regs), ports)
        check = (8.0 + 0.75 * front_width * front_width) * self.fo4
        group_wire = broadcast_penalty(
            self.library, self.wire,
            front_width * 24 * self.cell_side)
        return table + check + group_wire

    def wakeup_select_delay(self, iq_size: int, back_width: int,
                            front_width: int = 1) -> float:
        """Issue loop: tag broadcast across the IQ, match, select, grant.

        The select arbiter also steers the front end's dispatch group, so
        its tree gains levels with both widths.
        """
        tag_span = iq_size * self.cell_side * (1.0 + 0.15 * back_width)
        tag_drive = broadcast_penalty(self.library, self.wire, tag_span)
        match = 3.0 * self.fo4
        select = (1.5 * _log2ceil(iq_size)
                  * (1.0 + 0.08 * (front_width - 1))) * self.fo4
        grant = broadcast_penalty(self.library, self.wire,
                                  iq_size * self.cell_side)
        return tag_drive + match + select + grant

    def regfile_delay(self, phys_regs: int, data_width: int,
                      back_width: int) -> float:
        # Read ports are banked/replicated per pipe pair, so the critical
        # bit-cell sees 2 reads + the write ports.
        ports = 2 + back_width
        return self.array_delay(phys_regs, data_width, ports)

    def bypass_delay(self, back_width: int, data_width: int) -> float:
        """Result broadcast across all execution pipes plus operand mux.

        The wire spans every pipe's datapath height, so its length grows
        linearly with back-end width (and its RC quadratically) — the
        width-limiting wire Section 5.4/5.5 describes.
        """
        pipe_height = data_width * self.cell_side * 0.8
        span = back_width * pipe_height
        # Fanin-4 operand-select tree: its gate depth is flat across the
        # experiment's 3-7 pipes, so the width cost is carried by the
        # broadcast wire — i.e. paid chiefly by the wire-bound process.
        mux = (1.0 + 1.2 * math.ceil(math.log(back_width + 2, 4))) * self.fo4
        return broadcast_penalty(self.library, self.wire, span) + mux

    def btb_delay(self, front_width: int) -> float:
        return self.array_delay(64, 24, 1 + front_width // 2)

    def rob_delay(self, rob_size: int, front_width: int) -> float:
        return self.array_delay(rob_size, 40, 2 * front_width)
