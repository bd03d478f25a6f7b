"""Characterised timing libraries (the Liberty-file equivalent).

A :class:`Library` is what synthesis and STA consume: per-cell NLDM timing
arcs, pin capacitances, areas and leakage for the six cells, plus the
flip-flop's clk->q / setup / hold data.  Libraries serialise to JSON so a
characterisation run (hundreds of transistor-level transients) can be
cached on disk and shipped with experiment results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.characterization.nldm import NldmTable
from repro.errors import LibraryError

Transition = str  # 'rise' | 'fall'


@dataclass(frozen=True)
class TimingArc:
    """One input-pin -> output timing arc of a combinational cell."""

    input_pin: str
    output_transition: Transition        # transition at the *output*
    delay: NldmTable                     # 50%-in to 50%-out, seconds
    transition: NldmTable                # output 20%-80% slew, seconds

    def to_dict(self) -> dict:
        return {
            "input_pin": self.input_pin,
            "output_transition": self.output_transition,
            "delay": self.delay.to_dict(),
            "transition": self.transition.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TimingArc":
        return cls(data["input_pin"], data["output_transition"],
                   NldmTable.from_dict(data["delay"]),
                   NldmTable.from_dict(data["transition"]))


@dataclass(frozen=True)
class CellTiming:
    """Characterised combinational cell."""

    name: str
    function: str
    inputs: tuple[str, ...]
    input_caps: dict[str, float]
    area: float
    arcs: tuple[TimingArc, ...]
    leakage: float                       # average static power, watts

    def __post_init__(self) -> None:
        # Group arcs by input pin once: STA calls delay()/output_slew()
        # hundreds of thousands of times per netlist, and rebuilding the
        # per-pin tuple on every call dominated the profile.
        by_pin: dict[str, tuple[TimingArc, ...]] = {}
        for arc in self.arcs:
            by_pin[arc.input_pin] = by_pin.get(arc.input_pin, ()) + (arc,)
        object.__setattr__(self, "_arcs_by_pin", by_pin)
        object.__setattr__(
            self, "_tables_by_pin",
            {pin: ([a.delay for a in arcs], [a.transition for a in arcs])
             for pin, arcs in by_pin.items()})

    def arcs_from(self, input_pin: str) -> tuple[TimingArc, ...]:
        found = self._arcs_by_pin.get(input_pin)
        if not found:
            raise LibraryError(
                f"cell {self.name!r} has no arcs from pin {input_pin!r}")
        return found

    def delay(self, input_pin: str, slew: float, load: float) -> float:
        """Worst (max over output transitions) delay for one input pin."""
        tables = self._tables_by_pin.get(input_pin)
        if tables is None:
            self.arcs_from(input_pin)          # raises LibraryError
        best = -1.0
        for table in tables[0]:
            d = table.lookup(slew, load)
            if d > best:
                best = d
        return best

    def output_slew(self, input_pin: str, slew: float, load: float) -> float:
        """Worst output transition for one input pin."""
        tables = self._tables_by_pin.get(input_pin)
        if tables is None:
            self.arcs_from(input_pin)          # raises LibraryError
        best = -1.0
        for table in tables[1]:
            s = table.lookup(slew, load)
            if s > best:
                best = s
        return best

    def worst_delay(self, slew: float, load: float) -> float:
        return max(a.delay.lookup(slew, load) for a in self.arcs)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "function": self.function,
            "inputs": list(self.inputs),
            "input_caps": dict(self.input_caps),
            "area": self.area,
            "arcs": [a.to_dict() for a in self.arcs],
            "leakage": self.leakage,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellTiming":
        return cls(
            name=data["name"],
            function=data["function"],
            inputs=tuple(data["inputs"]),
            input_caps=dict(data["input_caps"]),
            area=float(data["area"]),
            arcs=tuple(TimingArc.from_dict(a) for a in data["arcs"]),
            leakage=float(data["leakage"]),
        )


@dataclass(frozen=True)
class SequentialTiming:
    """Characterised D-flip-flop."""

    name: str
    input_caps: dict[str, float]
    area: float
    clk_to_q: NldmTable                  # indexed by clock slew x Q load
    setup_time: float
    hold_time: float
    leakage: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "input_caps": dict(self.input_caps),
            "area": self.area,
            "clk_to_q": self.clk_to_q.to_dict(),
            "setup_time": self.setup_time,
            "hold_time": self.hold_time,
            "leakage": self.leakage,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SequentialTiming":
        return cls(
            name=data["name"],
            input_caps=dict(data["input_caps"]),
            area=float(data["area"]),
            clk_to_q=NldmTable.from_dict(data["clk_to_q"]),
            setup_time=float(data["setup_time"]),
            hold_time=float(data["hold_time"]),
            leakage=float(data["leakage"]),
        )


@dataclass(frozen=True)
class Library:
    """A characterised 6-cell library for one process."""

    name: str
    process: str                         # 'organic' | 'silicon'
    vdd: float
    cells: dict[str, CellTiming]
    dff: SequentialTiming
    metadata: dict = field(default_factory=dict)

    def cell(self, name: str) -> CellTiming:
        try:
            return self.cells[name]
        except KeyError:
            raise LibraryError(
                f"library {self.name!r} has no cell {name!r}; available: "
                f"{sorted(self.cells)}") from None

    # -- figures of merit --------------------------------------------------

    def inverter_fo4_delay(self) -> float:
        """FO4 inverter delay: the process's canonical speed unit."""
        inv = self.cell("inv")
        cin = inv.input_caps["a"]
        slew = self.typical_slew()
        return inv.delay("a", slew, 4.0 * cin)

    def typical_slew(self) -> float:
        """A representative mid-grid input slew for quick estimates."""
        inv = self.cell("inv")
        slews = inv.arcs[0].delay.slews
        return float(slews[len(slews) // 2])

    def register_overhead(self) -> float:
        """Per-stage sequencing cost: clk->q + setup at typical conditions.

        This is the pipeline-overhead term in the depth experiments; wire
        and skew costs are added by the synthesis layer.
        """
        inv_cin = self.cell("inv").input_caps["a"]
        slew = self.typical_slew()
        clk_q = self.dff.clk_to_q.lookup(slew, 4.0 * inv_cin)
        return clk_q + self.dff.setup_time

    def cache_key(self) -> str:
        """The library's part of a result-cache key.

        A hash of everything the library holds, computed once per object.
        Not the characterisation fingerprint: one definition built on the
        numpy and the native SPICE backend has one fingerprint but tables
        that differ in the last bits, and two libraries that share only a
        name (or no fingerprint at all) must not share entries either.
        """
        key = self.__dict__.get("_content_key")
        if key is None:
            blob = json.dumps(self.to_dict(), sort_keys=True, default=repr)
            key = hashlib.sha256(blob.encode()).hexdigest()[:16]
            object.__setattr__(self, "_content_key", key)
        return key

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable form (files and the persistent result cache)."""
        return {
            "name": self.name,
            "process": self.process,
            "vdd": self.vdd,
            "cells": {k: v.to_dict() for k, v in self.cells.items()},
            "dff": self.dff.to_dict(),
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Library":
        return cls(
            name=data["name"],
            process=data["process"],
            vdd=float(data["vdd"]),
            cells={k: CellTiming.from_dict(v)
                   for k, v in data["cells"].items()},
            dff=SequentialTiming.from_dict(data["dff"]),
            metadata=data.get("metadata", {}),
        )

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def from_json(cls, path: str | Path) -> "Library":
        return cls.from_dict(json.loads(Path(path).read_text()))
