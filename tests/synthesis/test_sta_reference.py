"""The scalar STA engine against a plain restatement of its algorithm.

:func:`_reference_timing` is the gate-at-a-time loop the engine's hot
path optimises: net loads summed per net over :meth:`Netlist.fanout_map`
with a ``library.cell`` lookup per sink, then one
:meth:`CellTiming.delay` per input pin and one
:meth:`CellTiming.output_slew` per gate, each bracketing its NLDM axes
afresh.  The engine memoises each pin's delay and output slew per
(cell, pin, slew, load) for the pass, brackets each axis once per gate
and pin on a miss, and loads nets in one pass over the gates; every
value it reports, and the key order of every report dict, must equal
this loop's exactly — on full passes, on delta passes over
:meth:`Netlist.extend` chains, and on a library whose tables sit on
mismatched grids.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.characterization.nldm import NldmTable
from repro.errors import LibraryError, SynthesisError
from repro.runtime import telemetry
from repro.synthesis import sta
from repro.synthesis.generators import (
    carry_select_adder,
    complex_alu_slice,
    extend_carry_select_adder,
    simple_alu,
)
from repro.synthesis.mapping import map_cached, reset_map_cache, technology_map
from repro.synthesis.netlist import Netlist

BLOCKS = {
    "alu": simple_alu,
    "adder": carry_select_adder,
    "complex": complex_alu_slice,
}

_MAPPED: dict[tuple[str, int], Netlist] = {}


def _mapped(block: str, width: int) -> Netlist:
    key = (block, width)
    if key not in _MAPPED:
        _MAPPED[key] = technology_map(BLOCKS[block](width))
    return _MAPPED[key]


def _reference_timing(netlist, library, wire, output_load=None):
    """(max delay, critical path, arrival, slew, load, gate delay)."""
    input_slew = library.typical_slew()
    if output_load is None:
        output_load = library.cell("inv").input_caps["a"]
    po_set = set(netlist.primary_outputs)
    loads, pin_loads, sinks = {}, {}, {}
    for net, fanout in netlist.fanout_map().items():
        pin_cap = 0.0
        for gate, k in fanout:
            cell = library.cell(gate.cell)
            pin_cap += cell.input_caps[cell.inputs[k]]
        if net in po_set:
            pin_cap += output_load
        sinks[net] = max(len(fanout) + (net in po_set), 1)
        pin_loads[net] = pin_cap
        loads[net] = pin_cap + wire.net_capacitance(sinks[net])
    arrival = {net: 0.0 for net in netlist.primary_inputs}
    slew = {net: input_slew for net in netlist.primary_inputs}
    worst, gate_delay = {}, {}
    for gate in netlist.topological_order():
        cell = library.cell(gate.cell)
        out = gate.output
        t_wire = wire.elmore_delay(sinks[out], pin_loads[out])
        best_t, best_net, best_pin = -1.0, None, None
        for pin, net in zip(cell.inputs, gate.inputs):
            t = arrival[net] + cell.delay(pin, slew[net], loads[out]) + t_wire
            if t > best_t:
                best_t, best_net, best_pin = t, net, pin
        arrival[out] = best_t
        slew[out] = cell.output_slew(best_pin, slew[best_net], loads[out])
        worst[gate.name] = best_net
        gate_delay[gate.name] = best_t - arrival[best_net]
    max_delay, net = 0.0, None
    for po in netlist.primary_outputs:
        if arrival.get(po, 0.0) > max_delay:
            max_delay, net = arrival[po], po
    path = []
    while net is not None and netlist.driver_of(net) is not None:
        path.append(netlist.driver_of(net).name)
        net = worst[path[-1]]
    return max_delay, tuple(reversed(path)), arrival, slew, loads, gate_delay


def _assert_matches_reference(report, want) -> None:
    max_delay, path, *dicts = want
    assert report.max_delay == max_delay
    assert report.critical_path == path
    for attr, ref in zip(("arrival", "slew", "load", "gate_delay"), dicts):
        got = getattr(report, attr)
        assert list(got.items()) == list(ref.items()), attr


@pytest.fixture(autouse=True)
def _scalar_engine(monkeypatch):
    """Every netlist here on the scalar engine, on fresh sessions."""
    monkeypatch.setattr(sta, "VECTOR_MIN_GATES", 10 ** 9)
    sta.reset_incremental()
    reset_map_cache()
    yield
    sta.reset_incremental()
    reset_map_cache()


@pytest.fixture(params=["organic_lib", "silicon_lib"])
def library(request):
    return request.getfixturevalue(request.param)


@pytest.fixture(params=["organic_wire", "silicon_wire"])
def wire(request):
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("explicit_load", [False, True],
                         ids=["default-load", "explicit-load"])
@pytest.mark.parametrize("width", [8, 16])
@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_full_pass_matches_reference(block, width, explicit_load, library,
                                     wire):
    netlist = _mapped(block, width)
    output_load = (3.0 * library.cell("inv").input_caps["a"]
                   if explicit_load else None)
    report = sta.static_timing(netlist, library, wire,
                               output_load=output_load)
    _assert_matches_reference(
        report, _reference_timing(netlist, library, wire, output_load))


@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_lookups_count_memo_misses(block, organic_lib, organic_wire):
    """``sta.nldm_lookups`` counts table evaluations.  A block repeats
    (cell, pin, slew, load) keys, so a full pass evaluates each key's
    delay once and at most one output slew per key: fewer lookups than
    one per pin plus one per gate, and the same report."""
    netlist = _mapped(block, 16)
    with telemetry.collecting():
        report = sta.static_timing(netlist, organic_lib, organic_wire)
    counters = telemetry.counters()
    want = _reference_timing(netlist, organic_lib, organic_wire)
    _assert_matches_reference(report, want)
    *_, slew, loads, _gate_delay = want
    keys = {(g.cell, k, slew[net], loads[g.output])
            for g in netlist.gates.values()
            for k, net in enumerate(g.inputs)}
    pins = sum(len(g.inputs) for g in netlist.gates.values())
    retimed = counters["sta.retimed_gates"]
    assert retimed == len(netlist.gates)
    assert len(keys) < counters["sta.nldm_lookups"] <= 2 * len(keys)
    assert counters["sta.nldm_lookups"] < pins + retimed


def test_delta_chain_matches_reference(library, wire):
    """8 -> 12 -> 16 bits by copy-on-extend: each wider adder is a delta
    pass from the narrower one's session and must equal the
    reference's full pass over the same netlist."""
    generic = carry_select_adder(8)
    sta.static_timing(map_cached(generic), library, wire)
    for width in (12, 16):
        generic = extend_carry_select_adder(generic, width)
        netlist = map_cached(generic)
        with telemetry.collecting():
            report = sta.static_timing(netlist, library, wire)
        deltas = telemetry.counters().get("sta.incremental_runs", 0)
        assert deltas == 1
        _assert_matches_reference(
            report, _reference_timing(netlist, library, wire))


@pytest.mark.parametrize("stretch", ["delay-slews", "transition-loads"])
def test_mismatched_grid_library_matches_reference(stretch, organic_lib,
                                                   organic_wire):
    """Tables on axes of their own share no bracket with the others: one
    nand2 arc's delay table on stretched slews (the grid
    ``test_sta_vector.py`` uses) or its transition table on stretched
    loads."""
    cell = organic_lib.cell("nand2")
    arc = cell.arcs[0]
    if stretch == "delay-slews":
        t = arc.delay
        arc = replace(arc, delay=NldmTable(t.slews * 1.5, t.loads, t.values))
    else:
        t = arc.transition
        arc = replace(arc, transition=NldmTable(t.slews, t.loads * 1.5,
                                                t.values))
    library = replace(organic_lib, cells={
        **organic_lib.cells, "nand2": replace(cell, arcs=(arc,) + cell.arcs[1:])})
    for block in sorted(BLOCKS):
        netlist = _mapped(block, 8)
        assert "nand2" in {g.cell for g in netlist.gates.values()}
        report = sta.static_timing(netlist, library, organic_wire)
        _assert_matches_reference(
            report, _reference_timing(netlist, library, organic_wire))


def test_undriven_net_raises_synthesis_error(organic_lib, organic_wire):
    netlist = Netlist("dangling")
    netlist.add_input("a")
    netlist.set_outputs([netlist.add_gate("nand2", ("a", "ghost"))])
    with pytest.raises(SynthesisError, match="undriven net 'ghost'"):
        sta.static_timing(netlist, organic_lib, organic_wire)


def test_unknown_cell_raises_library_error(organic_lib, organic_wire):
    library = replace(organic_lib, cells={
        name: cell for name, cell in organic_lib.cells.items()
        if name != "nor3"})
    netlist = Netlist("nor")
    ins = [netlist.add_input(n) for n in "abc"]
    netlist.set_outputs([netlist.add_gate("nor3", ins)])
    with pytest.raises(LibraryError, match="no cell 'nor3'"):
        sta.static_timing(netlist, library, organic_wire)
