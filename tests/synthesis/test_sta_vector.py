"""Scalar vs levelised-array STA: the engines must agree everywhere.

The vector engine exists purely for speed on the multi-thousand-gate
datapath blocks; any numerical or tie-breaking divergence from the
scalar reference would silently move the paper's clock periods.  Checked
here on every generator block, in both characterised processes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.synthesis.sta as sta
from repro.characterization.nldm import NldmTable
from repro.runtime import telemetry
from repro.synthesis.generators import (
    carry_select_adder,
    complex_alu_slice,
    simple_alu,
)
from repro.synthesis.mapping import technology_map
from repro.synthesis.sta import _vector_timing, static_timing

BLOCK_BUILDERS = {
    "alu": lambda: simple_alu(16),
    "adder": lambda: carry_select_adder(16),
    "complex": lambda: complex_alu_slice(16),
}

_MAPPED_CACHE: dict[str, object] = {}


def _mapped(block: str):
    if block not in _MAPPED_CACHE:
        _MAPPED_CACHE[block] = technology_map(BLOCK_BUILDERS[block]())
    return _MAPPED_CACHE[block]


@pytest.mark.parametrize("block", sorted(BLOCK_BUILDERS))
@pytest.mark.parametrize("lib_fixture", ["organic_lib", "silicon_lib"])
def test_engines_agree(block, lib_fixture, request, monkeypatch,
                       organic_wire, silicon_wire):
    library = request.getfixturevalue(lib_fixture)
    wire = organic_wire if lib_fixture == "organic_lib" else silicon_wire
    netlist = _mapped(block)
    input_slew = library.typical_slew()

    assert sta._library_grids(library) is not None, \
        "library should be batchable"
    vector = _vector_timing(netlist, library, wire, input_slew,
                            None)["report"]
    monkeypatch.setattr(sta, "VECTOR_MIN_GATES", 10 ** 9)  # force scalar
    scalar = static_timing(netlist, library, wire)

    assert vector.max_delay == pytest.approx(scalar.max_delay, rel=1e-12)
    assert vector.critical_path == scalar.critical_path
    for attr in ("arrival", "slew", "load", "gate_delay"):
        vec_d, ref_d = getattr(vector, attr), getattr(scalar, attr)
        assert vec_d.keys() == ref_d.keys()
        for key, ref_val in ref_d.items():
            assert vec_d[key] == pytest.approx(ref_val, rel=1e-9), \
                (attr, key)


def test_dispatch_threshold(monkeypatch, organic_lib, organic_wire):
    """static_timing routes through the vector engine above the floor."""
    netlist = _mapped("alu")
    baseline = static_timing(netlist, organic_lib, organic_wire)

    calls = []
    real = sta._vector_timing

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sta, "_vector_timing", spy)
    monkeypatch.setattr(sta, "VECTOR_MIN_GATES", 1)
    vector_routed = static_timing(netlist, organic_lib, organic_wire)
    assert calls, "vector engine should have been used"
    assert vector_routed.max_delay == pytest.approx(baseline.max_delay,
                                                    rel=1e-12)
    assert vector_routed.critical_path == baseline.critical_path


@pytest.mark.parametrize("defect", ["mismatched-grid", "missing-arcs"])
def test_unbatchable_library_times_on_scalar_engine(defect, organic_lib,
                                                    organic_wire,
                                                    monkeypatch):
    """Above the threshold, a library the array engine cannot batch is
    timed by the scalar engine: one arc table on its own (slew, load)
    grid, or a pin with no arcs on a cell the netlist does not read."""
    if defect == "mismatched-grid":
        cell = organic_lib.cell("nand2")
        arc = cell.arcs[0]
        stretched = NldmTable(arc.delay.slews * 1.5, arc.delay.loads,
                              arc.delay.values)
        arcs = (replace(arc, delay=stretched),) + cell.arcs[1:]
    else:
        cell = organic_lib.cell("nand3")
        arcs = tuple(a for a in cell.arcs if a.input_pin != cell.inputs[-1])
    library = replace(organic_lib, cells={**organic_lib.cells,
                                          cell.name: replace(cell, arcs=arcs)})
    assert sta._library_grids(library) is None
    netlist = _mapped("alu")

    monkeypatch.setattr(sta, "VECTOR_MIN_GATES", 1)
    with telemetry.collecting():
        got = static_timing(netlist, library, organic_wire)
    counters = telemetry.counters()
    assert counters["sta.scalar_runs"] == 1
    assert "sta.vector_runs" not in counters

    monkeypatch.setattr(sta, "VECTOR_MIN_GATES", 10 ** 9)
    monkeypatch.setattr(sta, "INCREMENTAL", False)
    want = static_timing(netlist, library, organic_wire)
    assert got.max_delay == want.max_delay
    assert got.critical_path == want.critical_path
    for attr in ("arrival", "slew", "load", "gate_delay"):
        assert getattr(got, attr) == getattr(want, attr), attr


def test_output_change_re_encodes(organic_lib, organic_wire, monkeypatch):
    """Replacing the primary outputs of a timed netlist re-times it with
    the new output loads, not the cached encoding's."""
    monkeypatch.setattr(sta, "VECTOR_MIN_GATES", 1)
    netlist = technology_map(carry_select_adder(16))
    static_timing(netlist, organic_lib, organic_wire)
    netlist.set_outputs(netlist.primary_outputs[:3])
    got = static_timing(netlist, organic_lib, organic_wire)

    fresh = technology_map(carry_select_adder(16))
    fresh.set_outputs(fresh.primary_outputs[:3])
    monkeypatch.setattr(sta, "INCREMENTAL", False)
    want = static_timing(fresh, organic_lib, organic_wire)
    assert got.max_delay == want.max_delay
    assert got.load == want.load
