"""NLDM static timing analysis with wire parasitics.

A single topological pass computes, per net: arrival time, transition
(slew) and capacitive load.  Gate delays and output slews come from the
characterised library's NLDM tables (bilinear lookup on the propagated
input slew and the computed output load); wire delay adds the Elmore term
of the fanout-based wire model.

This is the repro equivalent of Design Compiler's timing engine for the
minimum-clock-period measurements in Figures 11, 12 and 15.

Two engines compute the same pass:

- a **scalar** gate-at-a-time loop (the reference, used for small
  netlists and whenever the library's tables cannot be batched);
- a **levelised array** engine for large netlists (the multi-thousand
  gate datapath blocks): gates are grouped by logic level and each
  level's delays/slews come from vectorised bilinear interpolation over
  the library's stacked NLDM grids.  Same recurrence, same tie-breaking,
  same interpolation formula — ``tests/synthesis`` asserts the engines
  agree on every generator block.

On top of both engines sits **incremental delta-retiming**
(DESIGN §7h, gated by :data:`INCREMENTAL`): each full
pass records a *session* — per-net arrival/slew/load state keyed by the
netlist's structural fingerprint, library, wire model and boundary
conditions — and a later pass over an extension of that structure
(:meth:`Netlist.extend`, or the same object after in-place additions)
re-propagates only the **dirty cone**: gates that are new, whose output
loading changed, or whose input arrival/slew changed bitwise.  Clean
gates keep their recorded values, which equal what a full re-time would
compute because every per-gate step is a pure function of its inputs —
so incremental results are *bit-identical* to the full path (enforced
by ``tests/synthesis/test_sta_incremental.py`` and the
``sta-incremental-agreement`` validation check).
"""

from __future__ import annotations

import time

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import count as _counter

import numpy as np

from repro.characterization.library import Library
from repro.errors import SynthesisError
from repro.runtime import profiling, telemetry
from repro.synthesis.netlist import Gate, Netlist
from repro.synthesis.wires import WireModel

#: Below this gate count the scalar engine wins (array setup dominates).
VECTOR_MIN_GATES = 2000

#: Incremental delta-retiming and shared-structure synthesis, read at
#: call time.  Tests and validation patch it to ``False`` to reach the
#: oracle: every design point rebuilt, mapped and timed from scratch.  A
#: patched value reaches only fork-started workers.
INCREMENTAL = True


#: Timing sessions for delta-retiming, keyed by (netlist fingerprint,
#: library token, wire state, input slew, output load).  Bounded LRU:
#: a sweep chains through a handful of live sessions; evicting an old
#: one only costs a full re-time.
_SESSION_LIMIT = 64
_SESSIONS: OrderedDict[tuple, dict] = OrderedDict()

_LIB_TOKENS = _counter()


def reset_incremental() -> None:
    """Drop all recorded timing sessions (tests/validation isolation)."""
    _SESSIONS.clear()


def _library_token(library: Library) -> int:
    """A process-unique id per library object (cheap session-key part)."""
    tok = getattr(library, "_sta_token", None)
    if tok is None:
        tok = next(_LIB_TOKENS)
        object.__setattr__(library, "_sta_token", tok)
    return tok


def _wire_state_key(wire: WireModel) -> tuple:
    return (wire.name, wire.c_per_m, wire.r_per_m, wire.pitch,
            wire.base_spans, wire.span_per_fanout)


def _session_key(netlist_fp: str, library: Library, wire: WireModel,
                 input_slew: float, output_load: float | None) -> tuple:
    return (netlist_fp, _library_token(library), _wire_state_key(wire),
            input_slew, output_load)


def _record_session(key: tuple, session: dict) -> None:
    _SESSIONS[key] = session
    _SESSIONS.move_to_end(key)
    while len(_SESSIONS) > _SESSION_LIMIT:
        _SESSIONS.popitem(last=False)


@dataclass(frozen=True)
class TimingReport:
    """Result of a static timing pass."""

    netlist_name: str
    max_delay: float
    critical_path: tuple[str, ...]          # gate names, input to output
    arrival: dict[str, float] = field(repr=False, default_factory=dict)
    slew: dict[str, float] = field(repr=False, default_factory=dict)
    load: dict[str, float] = field(repr=False, default_factory=dict)
    gate_delay: dict[str, float] = field(repr=False, default_factory=dict)

    @property
    def critical_length(self) -> int:
        return len(self.critical_path)


def _net_loading(netlist: Netlist, library: Library, wire: WireModel,
                 output_load: float | None
                 ) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per-net (total load, pin-only load, sink count).

    Total load = sink pin caps + wire cap; primary outputs additionally
    drive *output_load* (default: one inverter input of the next block).
    """
    inv_cin = library.cell("inv").input_caps["a"]
    if output_load is None:
        output_load = inv_cin
    fanout = netlist.fanout_map()
    po_set = set(netlist.primary_outputs)
    loads: dict[str, float] = {}
    pin_loads: dict[str, float] = {}
    sink_counts: dict[str, int] = {}
    for net, sinks in fanout.items():
        pin_cap = 0.0
        for gate, pin_index in sinks:
            cell = library.cell(gate.cell)
            pin_name = cell.inputs[pin_index]
            pin_cap += cell.input_caps[pin_name]
        n_sinks = len(sinks) + (1 if net in po_set else 0)
        if net in po_set:
            pin_cap += output_load
        loads[net] = pin_cap + wire.net_capacitance(max(n_sinks, 1))
        pin_loads[net] = pin_cap
        sink_counts[net] = max(n_sinks, 1)
    return loads, pin_loads, sink_counts


def net_loads(netlist: Netlist, library: Library, wire: WireModel,
              output_load: float | None = None) -> dict[str, float]:
    """Capacitive load of every net (pins + wire + primary-output load)."""
    loads, _, _ = _net_loading(netlist, library, wire, output_load)
    return loads


def static_timing(netlist: Netlist, library: Library, wire: WireModel,
                  input_slew: float | None = None,
                  output_load: float | None = None) -> TimingReport:
    """Arrival-time propagation over the mapped netlist."""
    if not profiling.ENABLED:
        return _static_timing(netlist, library, wire, input_slew,
                              output_load)
    t0 = time.perf_counter()
    try:
        return _static_timing(netlist, library, wire, input_slew,
                              output_load)
    finally:
        profiling.add("sta", time.perf_counter() - t0)


def _static_timing(netlist: Netlist, library: Library, wire: WireModel,
                   input_slew: float | None,
                   output_load: float | None) -> TimingReport:
    if not netlist.is_mapped:
        raise SynthesisError(
            f"netlist {netlist.name!r} must be technology-mapped before STA")
    if input_slew is None:
        input_slew = library.typical_slew()

    if INCREMENTAL:
        report = _try_incremental(netlist, library, wire, input_slew,
                                  output_load)
        if report is not None:
            return report

    if len(netlist.gates) >= VECTOR_MIN_GATES:
        report = _vector_static_timing(netlist, library, wire,
                                       input_slew, output_load)
        if report is not None:
            return report

    loads, pin_loads, sink_counts = _net_loading(netlist, library, wire,
                                                 output_load)

    arrival: dict[str, float] = {}
    slew: dict[str, float] = {}
    worst_input: dict[str, str | None] = {}   # gate -> critical fanin net
    gate_delay: dict[str, float] = {}

    for net in netlist.primary_inputs:
        arrival[net] = 0.0
        slew[net] = input_slew

    # The gate loop below is the hot path of every synthesis experiment
    # (tens of thousands of gates for the wide datapath blocks), so cell
    # objects are cached per cell name, dict lookups are hoisted into
    # locals, and the output slew is computed once per gate, for the
    # critical pin only, rather than on every new running maximum.
    cells: dict[str, object] = {}
    elmore = wire.elmore_delay
    for gate in netlist.topological_order():
        cell = cells.get(gate.cell)
        if cell is None:
            cell = cells[gate.cell] = library.cell(gate.cell)
        output = gate.output
        load = loads[output]
        # Wire RC from this gate's output to its sinks (Elmore, shared).
        t_wire = elmore(sink_counts[output], pin_loads[output])

        cell_inputs = cell.inputs
        cell_delay = cell.delay
        best_t = -1.0
        best_net: str | None = None
        best_pin: str | None = None
        for pin_index, net in enumerate(gate.inputs):
            pin_name = cell_inputs[pin_index]
            t = arrival[net] + cell_delay(pin_name, slew[net], load) + t_wire
            if t > best_t:
                best_t = t
                best_net = net
                best_pin = pin_name
        arrival[output] = best_t
        slew[output] = cell.output_slew(best_pin, slew[best_net], load)
        worst_input[gate.name] = best_net
        gate_delay[gate.name] = best_t - arrival[best_net]

    if telemetry.ENABLED:
        topo = netlist.topological_order()
        telemetry.count("sta.runs")
        telemetry.count("sta.scalar_runs")
        telemetry.count("sta.gates", len(topo))
        # One delay lookup per gate input pin plus one output-slew lookup
        # per gate — derived after the fact, so the hot loop stays clean.
        telemetry.count("sta.nldm_lookups",
                        sum(len(g.inputs) for g in topo) + len(topo))

    report = _scalar_report(netlist, arrival, slew, loads, worst_input,
                            gate_delay)
    if INCREMENTAL:
        fp = netlist.fingerprint()
        _record_session(
            _session_key(fp, library, wire, input_slew, output_load),
            {"engine": "scalar", "n_gates": len(netlist.gates),
             "loads": loads, "pin_loads": pin_loads,
             "sink_counts": sink_counts, "arrival": arrival, "slew": slew,
             "worst_input": worst_input, "gate_delay": gate_delay,
             "report": report})
        netlist._sta_prev_fp = fp
    return report


def _scalar_report(netlist: Netlist, arrival: dict, slew: dict, loads: dict,
                   worst_input: dict, gate_delay: dict) -> TimingReport:
    """Report assembly shared by the full and incremental scalar engines."""
    max_delay = 0.0
    end_net: str | None = None
    for net in netlist.primary_outputs:
        t = arrival.get(net, 0.0)
        if t > max_delay:
            max_delay = t
            end_net = net

    # Backtrace the critical path.
    path: list[str] = []
    net = end_net
    while net is not None:
        driver = netlist.driver_of(net)
        if driver is None:
            break
        path.append(driver.name)
        net = worst_input[driver.name]
    path.reverse()

    return TimingReport(
        netlist_name=netlist.name,
        max_delay=max_delay,
        critical_path=tuple(path),
        arrival=arrival,
        slew=slew,
        load=loads,
        gate_delay=gate_delay,
    )


# ---------------------------------------------------------------------------
# Incremental delta-retiming
# ---------------------------------------------------------------------------

def _try_incremental(netlist: Netlist, library: Library, wire: WireModel,
                     input_slew: float,
                     output_load: float | None) -> TimingReport | None:
    """Serve this pass from a recorded session, if one chains to it.

    Three outcomes: an *exact hit* (identical structure and boundary
    conditions already timed — the recorded report is returned as-is), a
    *delta re-time* from the parent session (only the dirty cone is
    recomputed), or ``None`` (no usable session; the caller runs a full
    pass, which then records a fresh session).
    """
    base_fps = (getattr(netlist, "_base_fingerprint", None),
                getattr(netlist, "_sta_prev_fp", None))
    if not any(base_fps):
        return None
    fp = netlist.fingerprint()
    n = len(netlist.gates)
    want_vector = (n >= VECTOR_MIN_GATES
                   and _library_grids(library) is not None)
    engine = "vector" if want_vector else "scalar"

    key = _session_key(fp, library, wire, input_slew, output_load)
    sess = _SESSIONS.get(key)
    if sess is not None:
        _SESSIONS.move_to_end(key)
        if sess["engine"] == engine and sess["n_gates"] == n:
            if telemetry.ENABLED:
                telemetry.count("sta.runs")
                telemetry.count("sta.incremental_hits")
            return sess["report"]

    for base_fp in base_fps:
        if not base_fp or base_fp == fp:
            continue
        base = _SESSIONS.get(
            _session_key(base_fp, library, wire, input_slew, output_load))
        if (base is None or base["engine"] != engine
                or base["n_gates"] > n):
            continue
        if engine == "vector":
            report = _vector_incremental(netlist, library, wire, input_slew,
                                         output_load, base, key, fp)
        else:
            report = _scalar_incremental(netlist, library, wire, input_slew,
                                         output_load, base, key, fp)
        if report is not None:
            return report
    return None


def _scalar_incremental(netlist: Netlist, library: Library, wire: WireModel,
                        input_slew: float, output_load: float | None,
                        base: dict, key: tuple, fp: str) -> TimingReport:
    """Scalar delta-retiming from a recorded session.

    Net loading is recomputed in full (one cheap dict pass); the NLDM
    propagation — the expensive part — touches only the dirty cone: new
    gates, gates whose output loading changed, and gates downstream of a
    bitwise arrival/slew change.  Because the per-gate computation is a
    pure function of (input arrival/slew, output load), untouched values
    are exactly what a full pass would recompute.
    """
    loads, pin_loads, sink_counts = _net_loading(netlist, library, wire,
                                                 output_load)
    b_loads = base["loads"]
    b_pins = base["pin_loads"]
    b_sinks = base["sink_counts"]
    dirty_load = {
        net for net, load in loads.items()
        if (b_loads.get(net) != load or b_pins.get(net) != pin_loads[net]
            or b_sinks.get(net) != sink_counts[net])}

    arrival = dict(base["arrival"])
    slew = dict(base["slew"])
    worst_input = dict(base["worst_input"])
    gate_delay = dict(base["gate_delay"])
    for net in netlist.primary_inputs:
        if net not in arrival:
            arrival[net] = 0.0
            slew[net] = input_slew

    changed: set[str] = set()
    cells: dict[str, object] = {}
    elmore = wire.elmore_delay
    retimed = 0
    for gate in netlist.topological_order():
        output = gate.output
        if gate.name in worst_input and output not in dirty_load:
            for net in gate.inputs:
                if net in changed:
                    break
            else:
                continue
        retimed += 1
        cell = cells.get(gate.cell)
        if cell is None:
            cell = cells[gate.cell] = library.cell(gate.cell)
        load = loads[output]
        t_wire = elmore(sink_counts[output], pin_loads[output])
        cell_inputs = cell.inputs
        cell_delay = cell.delay
        best_t = -1.0
        best_net: str | None = None
        best_pin: str | None = None
        for pin_index, net in enumerate(gate.inputs):
            pin_name = cell_inputs[pin_index]
            t = arrival[net] + cell_delay(pin_name, slew[net], load) + t_wire
            if t > best_t:
                best_t = t
                best_net = net
                best_pin = pin_name
        new_slew = cell.output_slew(best_pin, slew[best_net], load)
        if arrival.get(output) != best_t or slew.get(output) != new_slew:
            changed.add(output)
        arrival[output] = best_t
        slew[output] = new_slew
        worst_input[gate.name] = best_net
        gate_delay[gate.name] = best_t - arrival[best_net]

    if telemetry.ENABLED:
        telemetry.count("sta.runs")
        telemetry.count("sta.incremental_runs")
        telemetry.count("sta.gates", len(netlist.gates))
        telemetry.count("sta.retimed_gates", retimed)

    report = _scalar_report(netlist, arrival, slew, loads, worst_input,
                            gate_delay)
    _record_session(key, {
        "engine": "scalar", "n_gates": len(netlist.gates),
        "loads": loads, "pin_loads": pin_loads, "sink_counts": sink_counts,
        "arrival": arrival, "slew": slew, "worst_input": worst_input,
        "gate_delay": gate_delay, "report": report})
    netlist._sta_prev_fp = fp
    return report


# ---------------------------------------------------------------------------
# Levelised array engine
# ---------------------------------------------------------------------------

def _library_grids(library: Library) -> dict | None:
    """Stacked NLDM grids of every cell, or None if they cannot be batched.

    Batching requires every arc table of every cell to share the same
    (slew, load) axes — true for any library characterised on one grid —
    and at most two arcs (rise/fall) per input pin.  The result is cached
    on the library object; ``None`` (unsupported) is cached too, sending
    every later call down the scalar engine.
    """
    cached = getattr(library, "_vector_grids", "unset")
    if cached != "unset":
        return cached

    ref_slews = ref_loads = None
    delay_grids: list = []
    trans_grids: list = []
    cells: dict[str, dict] = {}
    supported = True
    for name, cell in library.cells.items():
        info = {"npins": len(cell.inputs), "caps": [], "delay_arcs": [],
                "trans_arcs": []}
        for pin in cell.inputs:
            try:
                arcs = cell.arcs_from(pin)
            except Exception:
                supported = False
                break
            if not 1 <= len(arcs) <= 2:
                supported = False
                break
            for arc in arcs:
                for table in (arc.delay, arc.transition):
                    if ref_slews is None:
                        ref_slews, ref_loads = table.slews, table.loads
                    elif not (np.array_equal(table.slews, ref_slews)
                              and np.array_equal(table.loads, ref_loads)):
                        supported = False
                        break
                if not supported:
                    break
            if not supported:
                break
            da = len(delay_grids)
            delay_grids.append(arcs[0].delay.values)
            ta = len(trans_grids)
            trans_grids.append(arcs[0].transition.values)
            if len(arcs) == 2:
                delay_grids.append(arcs[1].delay.values)
                trans_grids.append(arcs[1].transition.values)
                db, tb = da + 1, ta + 1
            else:
                db, tb = da, ta
            info["caps"].append(cell.input_caps[pin])
            info["delay_arcs"].append((da, db))
            info["trans_arcs"].append((ta, tb))
        if not supported:
            break
        cells[name] = info

    if not supported or ref_slews is None:
        grids = None
    else:
        grids = {
            "slews": np.asarray(ref_slews, dtype=float),
            "loads": np.asarray(ref_loads, dtype=float),
            "delay": np.stack(delay_grids),
            "trans": np.stack(trans_grids),
            "cells": cells,
        }
    object.__setattr__(library, "_vector_grids", grids)
    return grids


def _vector_structure(netlist: Netlist) -> dict:
    """Integer-encoded, level-sorted view of the netlist (cached).

    One Python pass assigns net ids and logic levels; everything else is
    arrays.  The cache is tied to the identity of the topological-order
    list, which :meth:`Netlist.add_gate` invalidates.
    """
    topo = netlist.topological_order()
    cached = getattr(netlist, "_vector_struct", None)
    if cached is not None and cached["topo"] is topo:
        return cached

    net_id: dict[str, int] = {}
    names: list[str] = []
    for net in netlist.primary_inputs:
        net_id[net] = len(names)
        names.append(net)
    n_pi = len(names)

    n = len(topo)
    levels = [0] * n_pi + [0] * n          # per net id
    cell_code: dict[str, int] = {}
    cell_names: list[str] = []
    g_code = np.empty(n, dtype=np.int32)
    g_out = np.empty(n, dtype=np.int32)
    g_in = np.full((n, 3), -1, dtype=np.int32)
    g_level = np.empty(n, dtype=np.int32)
    gate_names: list[str] = []

    for k, gate in enumerate(topo):
        lv = 0
        for p, net in enumerate(gate.inputs):
            i = net_id[net]
            g_in[k, p] = i
            li = levels[i]
            if li > lv:
                lv = li
        code = cell_code.get(gate.cell)
        if code is None:
            code = cell_code[gate.cell] = len(cell_names)
            cell_names.append(gate.cell)
        out = gate.output
        oid = len(names)
        net_id[out] = oid
        names.append(out)
        levels[oid] = lv + 1
        g_code[k] = code
        g_out[k] = oid
        g_level[k] = lv + 1
        gate_names.append(gate.name)

    return _finish_vector_structure(
        netlist, topo, names, n_pi, net_id, levels, cell_names,
        g_code, g_out, g_in, g_level, gate_names)


def _finish_vector_structure(netlist: Netlist, topo, names, n_pi, net_id,
                             levels, cell_names, g_code_u, g_out_u, g_in_u,
                             g_level_u, gate_names_u) -> dict:
    """Level-sort the (unsorted, topo-order) encoding and cache it.

    The unsorted arrays and the id maps are kept in the struct so
    :func:`_extend_vector_structure` can append an extension's gates and
    re-sort without re-encoding the shared prefix.
    """
    n = len(g_code_u)
    order = np.argsort(g_level_u, kind="stable")
    g_code = g_code_u[order]
    g_out = g_out_u[order]
    g_in = g_in_u[order]
    g_level = g_level_u[order]
    gate_names = [gate_names_u[i] for i in order]

    max_level = int(g_level[-1]) if n else 0
    # bounds[k] = index one past the last gate of level k+1.
    bounds = np.searchsorted(g_level, np.arange(1, max_level + 1),
                             side="right")

    driver = np.full(len(names), -1, dtype=np.int32)
    driver[g_out] = np.arange(n, dtype=np.int32)

    po_ids = []
    seen = set()
    for net in netlist.primary_outputs:
        i = net_id.get(net)
        if i is not None and i not in seen:
            seen.add(i)
            po_ids.append(i)

    struct = {
        "topo": topo,
        "names": names,
        "n_pi": n_pi,
        "net_id": net_id,
        "levels": levels,
        "cell_names": cell_names,
        "g_code": g_code,
        "g_out": g_out,
        "g_in": g_in,
        "bounds": bounds,
        "max_level": max_level,
        "gate_names": gate_names,
        "driver": driver,
        "po_ids": np.asarray(po_ids, dtype=np.int32),
        "order": order,
        "g_code_u": g_code_u,
        "g_out_u": g_out_u,
        "g_in_u": g_in_u,
        "g_level_u": g_level_u,
        "gate_names_u": gate_names_u,
    }
    netlist._vector_struct = struct
    return struct


def _extend_vector_structure(netlist: Netlist, base: dict) -> dict | None:
    """Encode *netlist* by appending to a parent's structure, or None.

    Valid only when the parent's topological order is a prefix of this
    netlist's — guaranteed for insertion-ordered netlists grown by
    :meth:`Netlist.extend` or in-place additions.  Net ids extend the
    parent's numbering (new primary inputs and gate outputs append after
    the parent's nets); the level sort is recomputed over the combined
    arrays.  Because the per-net and per-gate encodings are identical to
    a fresh pass — only the id *labels* differ, which no per-gate
    computation depends on — the resulting timing is bitwise equal.
    """
    if not getattr(netlist, "_insertion_topo", False):
        return None
    topo = netlist.topological_order()
    n_base = len(base["topo"])
    if n_base > len(topo) or (
            n_base and topo[n_base - 1] is not base["topo"][n_base - 1]):
        return None
    cached = getattr(netlist, "_vector_struct", None)
    if cached is not None and cached["topo"] is topo:
        return cached

    net_id = dict(base["net_id"])
    names = list(base["names"])
    levels = list(base["levels"])
    for net in netlist.primary_inputs:
        if net not in net_id:
            net_id[net] = len(names)
            names.append(net)
            levels.append(0)

    cell_names = list(base["cell_names"])
    cell_code = {name: i for i, name in enumerate(cell_names)}
    n_new = len(topo) - n_base
    new_code = np.empty(n_new, dtype=np.int32)
    new_out = np.empty(n_new, dtype=np.int32)
    new_in = np.full((n_new, 3), -1, dtype=np.int32)
    new_level = np.empty(n_new, dtype=np.int32)
    new_names: list[str] = []
    for k in range(n_new):
        gate = topo[n_base + k]
        lv = 0
        for p, net in enumerate(gate.inputs):
            i = net_id[net]
            new_in[k, p] = i
            li = levels[i]
            if li > lv:
                lv = li
        code = cell_code.get(gate.cell)
        if code is None:
            code = cell_code[gate.cell] = len(cell_names)
            cell_names.append(gate.cell)
        oid = len(names)
        net_id[gate.output] = oid
        names.append(gate.output)
        levels.append(lv + 1)
        new_code[k] = code
        new_out[k] = oid
        new_level[k] = lv + 1
        new_names.append(gate.name)

    return _finish_vector_structure(
        netlist, topo, names, base["n_pi"], net_id, levels, cell_names,
        np.concatenate([base["g_code_u"], new_code]),
        np.concatenate([base["g_out_u"], new_out]),
        np.concatenate([base["g_in_u"], new_in]),
        np.concatenate([base["g_level_u"], new_level]),
        base["gate_names_u"] + new_names)


def _cell_tables(grids: dict, cell_names: list[str]) -> tuple | None:
    """Per-cell-code lookup tables for the array engine, or None."""
    cells = grids["cells"]
    try:
        infos = [cells[name] for name in cell_names]
    except KeyError:
        return None                      # scalar path raises LibraryError

    ncells = len(infos)
    npins = np.array([info["npins"] for info in infos], dtype=np.int32)
    caps_tab = np.zeros((ncells, 3))
    d_a = np.zeros((ncells, 3), dtype=np.int32)
    d_b = np.zeros((ncells, 3), dtype=np.int32)
    t_a = np.zeros((ncells, 3), dtype=np.int32)
    t_b = np.zeros((ncells, 3), dtype=np.int32)
    for c, info in enumerate(infos):
        for p in range(info["npins"]):
            caps_tab[c, p] = info["caps"][p]
            d_a[c, p], d_b[c, p] = info["delay_arcs"][p]
            t_a[c, p], t_b[c, p] = info["trans_arcs"][p]
    return npins, caps_tab, d_a, d_b, t_a, t_b


def _vector_loads(struct: dict, caps_tab, g_code, library: Library,
                  wire: WireModel, output_load: float | None) -> tuple:
    """(loads, pin_cap, sink_cnt, t_wire) arrays — vector _net_loading."""
    g_in = struct["g_in"]
    n_nets = len(struct["names"])
    if output_load is None:
        output_load = library.cell("inv").input_caps["a"]
    pin_cap = np.zeros(n_nets)
    sink_cnt = np.zeros(n_nets, dtype=np.int64)
    for p in range(3):
        col = g_in[:, p]
        valid = col >= 0
        if not valid.any():
            continue
        ids = col[valid]
        pin_cap += np.bincount(ids, weights=caps_tab[g_code[valid], p],
                               minlength=n_nets)
        sink_cnt += np.bincount(ids, minlength=n_nets)
    po_ids = struct["po_ids"]
    pin_cap[po_ids] += output_load
    sink_cnt[po_ids] += 1

    fo = np.maximum(sink_cnt, 1)
    length = wire.pitch * (wire.base_spans + wire.span_per_fanout * fo)
    loads = pin_cap + wire.c_per_m * length
    wire_r = wire.r_per_m * length
    wire_c = wire.c_per_m * length
    t_wire = wire_r * (0.5 * wire_c + pin_cap)
    return loads, pin_cap, sink_cnt, t_wire


def _bilinear(G, rows, i, j, ts, tl):
    v00 = G[rows, i, j]
    v01 = G[rows, i, j + 1]
    v10 = G[rows, i + 1, j]
    v11 = G[rows, i + 1, j + 1]
    return ((1 - ts) * (v00 + tl * (v01 - v00))
            + ts * (v10 + tl * (v11 - v10)))


def _vector_report(netlist: Netlist, struct: dict, arrival, slew, loads,
                   gate_best_in_u, gate_delay_u) -> TimingReport:
    """Report assembly shared by the full and incremental array engines.

    Per-gate arrays are indexed in *unsorted* (topological/insertion)
    order, which stays stable across structure extensions.
    """
    names = struct["names"]
    max_delay = 0.0
    end_id = -1
    for i in struct["po_ids"]:
        t = float(arrival[i])
        if t > max_delay:
            max_delay = t
            end_id = int(i)

    gate_names_u = struct["gate_names_u"]
    driver_u = np.full(len(names), -1, dtype=np.int64)
    driver_u[struct["g_out_u"]] = np.arange(len(gate_names_u))
    path: list[str] = []
    net = end_id
    while net >= 0:
        g = int(driver_u[net])
        if g < 0:
            break
        path.append(gate_names_u[g])
        net = int(gate_best_in_u[g])
    path.reverse()

    # The scalar engine only records arrival/slew for primary inputs and
    # gate outputs it visited; the arrays cover exactly the same nets.
    return TimingReport(
        netlist_name=netlist.name,
        max_delay=max_delay,
        critical_path=tuple(path),
        arrival=dict(zip(names, arrival.tolist())),
        slew=dict(zip(names, slew.tolist())),
        load=dict(zip(names, loads.tolist())),
        gate_delay=dict(zip(gate_names_u, gate_delay_u.tolist())),
    )


def _record_vector_session(netlist: Netlist, struct: dict, key: tuple,
                           fp: str, loads, pin_cap, sink_cnt, t_wire,
                           arrival, slew, gate_t_u, gate_best_in_u,
                           gate_delay_u, report: TimingReport) -> None:
    _record_session(key, {
        "engine": "vector", "n_gates": len(struct["g_code_u"]),
        "struct": struct, "loads": loads, "pin_cap": pin_cap,
        "sink_cnt": sink_cnt, "t_wire": t_wire, "arrival": arrival,
        "slew": slew, "gate_t_u": gate_t_u,
        "gate_best_in_u": gate_best_in_u, "gate_delay_u": gate_delay_u,
        "report": report})
    netlist._sta_prev_fp = fp


def _vector_static_timing(netlist: Netlist, library: Library,
                          wire: WireModel, input_slew: float,
                          output_load: float | None) -> TimingReport | None:
    """The levelised array engine; None if this library can't be batched.

    Arithmetic mirrors the scalar engine expression for expression
    (same bilinear form, same strictly-greater pin tie-breaking via
    first-maximum argmax), so the engines agree to float rounding.
    """
    grids = _library_grids(library)
    if grids is None:
        return None
    struct = _vector_structure(netlist)
    tables = _cell_tables(grids, struct["cell_names"])
    if tables is None:
        return None
    npins, caps_tab, d_a, d_b, t_a, t_b = tables

    g_code = struct["g_code"]
    g_out = struct["g_out"]
    g_in = struct["g_in"]
    n_nets = len(struct["names"])
    loads, pin_cap, sink_cnt, t_wire = _vector_loads(
        struct, caps_tab, g_code, library, wire, output_load)

    # -- levelised propagation ------------------------------------------------
    slew_axis = grids["slews"]
    load_axis = grids["loads"]
    max_i = len(slew_axis) - 2
    max_j = len(load_axis) - 2
    DG = grids["delay"]
    TG = grids["trans"]

    arrival = np.zeros(n_nets)
    slew = np.full(n_nets, input_slew)
    n = len(g_code)
    gate_t = np.empty(n)
    gate_best_in = np.empty(n, dtype=np.int32)
    gate_delay_arr = np.empty(n)

    bounds = struct["bounds"]
    n_lookups = 0
    n_levels = 0
    start = 0
    for lv in range(struct["max_level"]):
        stop = int(bounds[lv])
        if stop == start:
            continue
        n_levels += 1
        sl = slice(start, stop)
        start = stop
        code = g_code[sl]
        out = g_out[sl]
        loads_g = loads[out]
        tw = t_wire[out]
        j = np.clip(np.searchsorted(load_axis, loads_g, side="right") - 1,
                    0, max_j)
        l0 = load_axis[j]
        tl = (loads_g - l0) / (load_axis[j + 1] - l0)

        pin_count = npins[code]
        t_rows = []
        s_rows = []
        for p in range(int(pin_count.max())):
            in_p = g_in[sl, p]
            valid = p < pin_count
            iid = np.where(valid, in_p, 0)
            sv = slew[iid]
            av = arrival[iid]
            i = np.clip(np.searchsorted(slew_axis, sv, side="right") - 1,
                        0, max_i)
            s0 = slew_axis[i]
            ts = (sv - s0) / (slew_axis[i + 1] - s0)
            rows_d = np.stack((d_a[code, p], d_b[code, p]))
            d = _bilinear(DG, rows_d, i, j, ts, tl).max(axis=0)
            rows_t = np.stack((t_a[code, p], t_b[code, p]))
            s = _bilinear(TG, rows_t, i, j, ts, tl).max(axis=0)
            t = av + d + tw
            t[~valid] = -1.0             # scalar best_t starts at -1.0
            t_rows.append(t)
            s_rows.append(s)
            # One stacked delay + one stacked transition interpolation
            # per (level, pin) round, covering `stop - sl.start` gates.
            n_lookups += 2 * (stop - sl.start)

        t_stack = np.stack(t_rows)
        best = t_stack.argmax(axis=0)    # first max == strictly-greater scan
        cols = np.arange(stop - (sl.start))
        t_best = t_stack[best, cols]
        arrival[out] = t_best
        slew[out] = np.stack(s_rows)[best, cols]
        best_in = g_in[sl][cols, best]
        gate_best_in[sl] = best_in
        gate_t[sl] = t_best
        gate_delay_arr[sl] = t_best - arrival[best_in]

    if telemetry.ENABLED:
        telemetry.count("sta.runs")
        telemetry.count("sta.vector_runs")
        telemetry.count("sta.gates", n)
        telemetry.count("sta.levels", n_levels)
        telemetry.count("sta.nldm_lookups", n_lookups)

    # Scatter the (level-sorted) per-gate results back to stable
    # topological order for the report and the recorded session.
    order = struct["order"]
    gate_t_u = np.empty(n)
    gate_best_in_u = np.empty(n, dtype=np.int32)
    gate_delay_u = np.empty(n)
    gate_t_u[order] = gate_t
    gate_best_in_u[order] = gate_best_in
    gate_delay_u[order] = gate_delay_arr

    report = _vector_report(netlist, struct, arrival, slew, loads,
                            gate_best_in_u, gate_delay_u)
    if INCREMENTAL:
        fp = netlist.fingerprint()
        _record_vector_session(
            netlist, struct,
            _session_key(fp, library, wire, input_slew, output_load), fp,
            loads, pin_cap, sink_cnt, t_wire, arrival, slew,
            gate_t_u, gate_best_in_u, gate_delay_u, report)
    return report


def _vector_incremental(netlist: Netlist, library: Library, wire: WireModel,
                        input_slew: float, output_load: float | None,
                        base: dict, key: tuple,
                        fp: str) -> TimingReport | None:
    """Array-engine delta-retiming from a recorded session.

    The parent's structure encoding is extended in place of a fresh
    pass; net loading is recomputed in full (a few vector ops); then the
    levelised sweep recomputes only dirty gates — per-gate arithmetic is
    elementwise, so a subset computes bitwise the same values it would
    in a full level batch.
    """
    grids = _library_grids(library)
    if grids is None:
        return None
    struct = _extend_vector_structure(netlist, base["struct"])
    if struct is None:
        return None
    tables = _cell_tables(grids, struct["cell_names"])
    if tables is None:
        return None
    npins, caps_tab, d_a, d_b, t_a, t_b = tables

    g_code = struct["g_code"]
    g_out = struct["g_out"]
    g_in = struct["g_in"]
    order = struct["order"]
    n = len(g_code)
    n_base = base["n_gates"]
    n_nets = len(struct["names"])
    n_base_nets = len(base["loads"])

    loads, pin_cap, sink_cnt, t_wire = _vector_loads(
        struct, caps_tab, g_code, library, wire, output_load)

    # Dirty nets: loading changed bitwise vs the recorded session (new
    # nets occupy ids >= n_base_nets and are dirty by construction).
    dirty = np.ones(n_nets, dtype=bool)
    dirty[:n_base_nets] = (
        (loads[:n_base_nets] != base["loads"])
        | (pin_cap[:n_base_nets] != base["pin_cap"])
        | (sink_cnt[:n_base_nets] != base["sink_cnt"]))

    # Per-net timing state, seeded from the session; new slots start at
    # the primary-input boundary condition (correct for new PIs, and
    # overwritten before use for new gate outputs).
    arrival = np.empty(n_nets)
    slew = np.empty(n_nets)
    arrival[:n_base_nets] = base["arrival"]
    slew[:n_base_nets] = base["slew"]
    arrival[n_base_nets:] = 0.0
    slew[n_base_nets:] = input_slew

    gate_t_u = np.empty(n)
    gate_best_in_u = np.empty(n, dtype=np.int32)
    gate_delay_u = np.empty(n)
    gate_t_u[:n_base] = base["gate_t_u"]
    gate_best_in_u[:n_base] = base["gate_best_in_u"]
    gate_delay_u[:n_base] = base["gate_delay_u"]

    changed = np.zeros(n_nets, dtype=bool)
    changed[n_base_nets:] = True
    # A gate re-times when it is new or its output loading changed;
    # input-change propagation is folded in level by level.
    recheck = (order >= n_base) | dirty[g_out]

    slew_axis = grids["slews"]
    load_axis = grids["loads"]
    max_i = len(slew_axis) - 2
    max_j = len(load_axis) - 2
    DG = grids["delay"]
    TG = grids["trans"]
    bounds = struct["bounds"]

    retimed = 0
    start = 0
    for lv in range(struct["max_level"]):
        stop = int(bounds[lv])
        if stop == start:
            continue
        sl = slice(start, stop)
        level_order = order[sl]
        code_l = g_code[sl]
        in_l = g_in[sl]
        pin_count_l = npins[code_l]

        mask = recheck[sl].copy()
        for p in range(int(pin_count_l.max())):
            in_p = in_l[:, p]
            valid = p < pin_count_l
            mask |= valid & changed[np.where(valid, in_p, 0)]
        start = stop
        if not mask.any():
            continue
        idx = np.nonzero(mask)[0]
        retimed += len(idx)

        code = code_l[idx]
        out = g_out[sl][idx]
        loads_g = loads[out]
        tw = t_wire[out]
        j = np.clip(np.searchsorted(load_axis, loads_g, side="right") - 1,
                    0, max_j)
        l0 = load_axis[j]
        tl = (loads_g - l0) / (load_axis[j + 1] - l0)

        pin_count = pin_count_l[idx]
        t_rows = []
        s_rows = []
        for p in range(int(pin_count.max())):
            in_p = in_l[idx, p]
            valid = p < pin_count
            iid = np.where(valid, in_p, 0)
            sv = slew[iid]
            av = arrival[iid]
            i = np.clip(np.searchsorted(slew_axis, sv, side="right") - 1,
                        0, max_i)
            s0 = slew_axis[i]
            ts = (sv - s0) / (slew_axis[i + 1] - s0)
            rows_d = np.stack((d_a[code, p], d_b[code, p]))
            d = _bilinear(DG, rows_d, i, j, ts, tl).max(axis=0)
            rows_t = np.stack((t_a[code, p], t_b[code, p]))
            s = _bilinear(TG, rows_t, i, j, ts, tl).max(axis=0)
            t = av + d + tw
            t[~valid] = -1.0
            t_rows.append(t)
            s_rows.append(s)

        t_stack = np.stack(t_rows)
        best = t_stack.argmax(axis=0)
        cols = np.arange(len(idx))
        t_best = t_stack[best, cols]
        s_best = np.stack(s_rows)[best, cols]
        delta = (arrival[out] != t_best) | (slew[out] != s_best)
        arrival[out] = t_best
        slew[out] = s_best
        changed[out[delta]] = True
        best_in = in_l[idx, best]
        orig = level_order[idx]
        gate_t_u[orig] = t_best
        gate_best_in_u[orig] = best_in
        gate_delay_u[orig] = t_best - arrival[best_in]

    if telemetry.ENABLED:
        telemetry.count("sta.runs")
        telemetry.count("sta.vector_runs")
        telemetry.count("sta.incremental_runs")
        telemetry.count("sta.gates", n)
        telemetry.count("sta.retimed_gates", retimed)

    report = _vector_report(netlist, struct, arrival, slew, loads,
                            gate_best_in_u, gate_delay_u)
    _record_vector_session(netlist, struct, key, fp, loads, pin_cap,
                           sink_cnt, t_wire, arrival, slew, gate_t_u,
                           gate_best_in_u, gate_delay_u, report)
    return report
