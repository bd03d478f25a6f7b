"""Non-linear delay model lookup tables.

An :class:`NldmTable` is the Liberty ``lu_table``: values indexed by input
transition time (rows) and output load capacitance (columns), with bilinear
interpolation inside the characterised window and linear extrapolation
outside it (the same behaviour commercial STA engines implement).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import LibraryError


@dataclass(frozen=True)
class NldmTable:
    """A 2-D lookup table over (input slew, output load)."""

    slews: np.ndarray      # ascending, seconds
    loads: np.ndarray      # ascending, farads
    values: np.ndarray     # shape (len(slews), len(loads))

    def __post_init__(self) -> None:
        slews = np.asarray(self.slews, dtype=float)
        loads = np.asarray(self.loads, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "slews", slews)
        object.__setattr__(self, "loads", loads)
        object.__setattr__(self, "values", values)
        if slews.ndim != 1 or loads.ndim != 1:
            raise LibraryError("NLDM index arrays must be 1-D")
        if values.shape != (len(slews), len(loads)):
            raise LibraryError(
                f"NLDM table shape {values.shape} does not match index sizes "
                f"({len(slews)}, {len(loads)})")
        if len(slews) < 2 or len(loads) < 2:
            raise LibraryError("NLDM tables need at least a 2x2 grid")
        if np.any(np.diff(slews) <= 0) or np.any(np.diff(loads) <= 0):
            raise LibraryError("NLDM index arrays must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise LibraryError("NLDM table contains non-finite values")
        # Plain-Python mirrors of the grid for the scalar lookup hot path:
        # STA issues hundreds of thousands of single-point lookups, and
        # bisect over a small list beats a scalar ndarray searchsorted by
        # an order of magnitude.
        object.__setattr__(self, "_slew_list", slews.tolist())
        object.__setattr__(self, "_load_list", loads.tolist())
        object.__setattr__(self, "_value_rows", values.tolist())
        object.__setattr__(self, "_max_i", len(slews) - 2)
        object.__setattr__(self, "_max_j", len(loads) - 2)

    def lookup(self, slew: float, load: float) -> float:
        """Bilinear interpolation with linear edge extrapolation.

        Exact on grid nodes: an index that falls exactly on the grid
        produces a segment fraction of exactly 0.0 or 1.0 (numerator and
        denominator are the identical float expression), and those cases
        short-circuit to the stored values — so ``lookup(slews[i],
        loads[j]) == values[i, j]`` bit-for-bit, never a reconstruction
        through ``v0 + 1.0*(v1 - v0)`` (which loses ulps).
        """
        slews = self._slew_list
        loads = self._load_list
        i = bisect_right(slews, slew) - 1
        if i < 0:
            i = 0
        elif i > self._max_i:
            i = self._max_i
        j = bisect_right(loads, load) - 1
        if j < 0:
            j = 0
        elif j > self._max_j:
            j = self._max_j
        s0 = slews[i]
        l0 = loads[j]
        ts = (slew - s0) / (slews[i + 1] - s0)
        tl = (load - l0) / (loads[j + 1] - l0)
        row0 = self._value_rows[i]
        row1 = self._value_rows[i + 1]
        if tl == 0.0:
            v0, v1 = row0[j], row1[j]
        elif tl == 1.0:
            v0, v1 = row0[j + 1], row1[j + 1]
        else:
            v00 = row0[j]
            v10 = row1[j]
            v0 = v00 + tl * (row0[j + 1] - v00)
            v1 = v10 + tl * (row1[j + 1] - v10)
        if ts == 0.0:
            return v0
        if ts == 1.0:
            return v1
        return (1 - ts) * v0 + ts * v1

    def to_dict(self) -> dict:
        return {
            "slews": self.slews.tolist(),
            "loads": self.loads.tolist(),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NldmTable":
        return cls(np.asarray(data["slews"]), np.asarray(data["loads"]),
                   np.asarray(data["values"]))

