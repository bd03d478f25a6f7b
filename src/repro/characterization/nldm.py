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

        Exact on grid nodes (see :func:`interpolate`):
        ``lookup(slews[i], loads[j]) == values[i, j]`` bit-for-bit.
        """
        i, ts = bracket(self._slew_list, self._max_i, slew)
        j, tl = bracket(self._load_list, self._max_j, load)
        return interpolate(self._value_rows, i, ts, j, tl)

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


def bracket(axis: list[float], last: int, x: float) -> tuple[int, float]:
    """Segment index and fraction of *x* on one ascending *axis*.

    The index is clamped to ``[0, last]`` (``last = len(axis) - 2``), so
    a point outside the axis extrapolates along the edge segment.  A
    point exactly on a grid node gets a fraction of exactly 0.0 or 1.0
    (numerator and denominator are the identical float expression).
    Tables on equal axes share one bracket: STA brackets the load once
    per gate and the slew once per input pin.
    """
    k = bisect_right(axis, x) - 1
    if k < 0:
        k = 0
    elif k > last:
        k = last
    x0 = axis[k]
    return k, (x - x0) / (axis[k + 1] - x0)


def interpolate(rows: list[list[float]], i: int, ts: float, j: int,
                tl: float) -> float:
    """Bilinear value of the table *rows* at bracketed (slew, load).

    A fraction of exactly 0.0 or 1.0 short-circuits to the stored values
    — never a reconstruction through ``v0 + 1.0*(v1 - v0)``, which loses
    ulps — so a lookup on grid nodes returns the stored value exactly.
    """
    row0 = rows[i]
    row1 = rows[i + 1]
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
