"""NLDM static timing analysis with wire parasitics.

A single topological pass computes, per net: arrival time, transition
(slew) and capacitive load.  Gate delays and output slews come from the
characterised library's NLDM tables (bilinear lookup on the propagated
input slew and the computed output load); wire delay adds the Elmore term
of the fanout-based wire model.

This is the repro equivalent of Design Compiler's timing engine for the
minimum-clock-period measurements in Figures 11, 12 and 15.

Three paths compute the same pass (DESIGN §7h):

- the **scalar full pass**, a gate-at-a-time loop that memoises each
  pin's NLDM delay and output slew per (cell, pin, slew, load) for the
  pass and, on a miss, brackets each NLDM axis once per gate and input
  pin: the oracle, and the engine
  below :data:`VECTOR_MIN_GATES` gates or whenever the library's tables
  cannot be batched (``tests/synthesis/test_sta_reference.py`` holds it
  to a plain per-table restatement, bit for bit);
- the **scalar delta pass**, the same loop from a *base session*:
  every pass records its per-net state keyed by the netlist's
  structural fingerprint, library content, wire model and boundary
  conditions, and a netlist built by :meth:`Netlist.extend`
  from a timed parent re-times only its dirty cone — gates that are
  new, whose output loading changed, or whose input arrival/slew
  changed bitwise;
- the **levelised vector pass** for large netlists (the multi-thousand
  gate datapath blocks), always full: gates are grouped by logic level
  and each level's delays/slews come from vectorised bilinear
  interpolation over the library's stacked NLDM grids.

Every per-gate step is a pure function of its inputs, so a delta pass
is *bit-identical* to a full one (``tests/synthesis/test_sta_incremental.py``
and the ``sta-incremental-agreement`` validation check), and the vector
pass mirrors the scalar recurrence expression for expression
(``tests/synthesis/test_sta_vector.py`` and ``sta-vector-vs-scalar``).
A pass over a structure already timed under the same conditions
returns the recorded report.  The full-pass oracle is
:func:`reset_incremental` followed by a pass over a freshly built
netlist.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.characterization.library import CellTiming, Library
from repro.characterization.nldm import bracket, interpolate
from repro.errors import LibraryError, SynthesisError
from repro.runtime import telemetry
from repro.synthesis.netlist import Netlist
from repro.synthesis.wires import WireModel

#: Below this gate count the scalar engine wins (array setup dominates).
VECTOR_MIN_GATES = 2000

#: Timing sessions for delta-retiming, keyed by (netlist fingerprint,
#: library content key, wire state, input slew, output load).  Bounded LRU:
#: a sweep chains through a handful of live sessions; evicting an old
#: one only costs a full re-time.
_SESSION_LIMIT = 64
_SESSIONS: OrderedDict[tuple, dict] = OrderedDict()


def reset_incremental() -> None:
    """Drop all recorded timing sessions (tests/validation isolation)."""
    _SESSIONS.clear()


def _wire_state_key(wire: WireModel) -> tuple:
    return (wire.name, wire.c_per_m, wire.r_per_m, wire.pitch,
            wire.base_spans, wire.span_per_fanout)


def _session_key(netlist_fp: str, library: Library, wire: WireModel,
                 input_slew: float, output_load: float | None) -> tuple:
    return (netlist_fp, library.cache_key(), _wire_state_key(wire),
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
    One pass over the gates adds each sink's pin cap to its net in
    :meth:`Netlist.fanout_map` order (gate order, then pin order), so
    every float sum matches a per-net walk of the fanout map.
    """
    inv_cin = library.cell("inv").input_caps["a"]
    if output_load is None:
        output_load = inv_cin
    # Nets in fanout-map order: gate outputs, then primary inputs.
    pin_caps = dict.fromkeys(netlist._driver, 0.0)
    for net in netlist.primary_inputs:
        pin_caps.setdefault(net, 0.0)
    counts = dict.fromkeys(pin_caps, 0)
    cell_caps: dict[str, tuple[float, ...]] = {}
    for gate in netlist.gates.values():
        caps = cell_caps.get(gate.cell)
        if caps is None:
            cell = library.cell(gate.cell)
            caps = cell_caps[gate.cell] = tuple(
                cell.input_caps[pin] for pin in cell.inputs)
        for net, cap in zip(gate.inputs, caps):
            total = pin_caps.get(net)
            if total is None:
                raise SynthesisError(
                    f"gate {gate.name!r} reads undriven net {net!r}")
            pin_caps[net] = total + cap
            counts[net] += 1
    for net in set(netlist.primary_outputs):
        if net in pin_caps:
            pin_caps[net] += output_load
            counts[net] += 1
    sink_counts = {net: n if n > 1 else 1 for net, n in counts.items()}
    wire_caps = {n: wire.net_capacitance(n)
                 for n in set(sink_counts.values())}
    loads = {net: cap + wire_caps[n]
             for (net, cap), n in zip(pin_caps.items(), sink_counts.values())}
    return loads, pin_caps, sink_counts


def net_loads(netlist: Netlist, library: Library, wire: WireModel,
              output_load: float | None = None) -> dict[str, float]:
    """Capacitive load of every net (pins + wire + primary-output load)."""
    loads, _, _ = _net_loading(netlist, library, wire, output_load)
    return loads


@telemetry.timed("solver.sta")
def static_timing(netlist: Netlist, library: Library, wire: WireModel,
                  input_slew: float | None = None,
                  output_load: float | None = None) -> TimingReport:
    """Arrival-time propagation over the mapped netlist.

    A recorded session can serve the pass.  If this netlist was
    extended from a parent or timed before, an *exact hit* (identical
    structure and boundary conditions already timed) returns the
    recorded report as-is.  On the scalar engine, a session of the
    parent :meth:`Netlist.extend` recorded becomes the base the pass
    re-times the dirty cone from.  Otherwise the engine re-times every
    gate.
    """
    if not netlist.is_mapped:
        raise SynthesisError(
            f"netlist {netlist.name!r} must be technology-mapped before STA")
    if input_slew is None:
        input_slew = library.typical_slew()
    n = len(netlist.gates)
    vector = (n >= VECTOR_MIN_GATES
              and _library_grids(library) is not None)
    engine = "vector" if vector else "scalar"

    base = None
    fp = netlist.fingerprint()
    base_fp = netlist._base_fingerprint
    if base_fp or getattr(netlist, "_sta_prev_fp", None):
        key = _session_key(fp, library, wire, input_slew, output_load)
        sess = _SESSIONS.get(key)
        if sess is not None:
            _SESSIONS.move_to_end(key)
            if sess["engine"] == engine and sess["n_gates"] == n:
                if telemetry.ENABLED:
                    telemetry.count("sta.runs")
                    telemetry.count("sta.incremental_hits")
                return sess["report"]
    if not vector and base_fp and base_fp != fp:
        sess = _SESSIONS.get(_session_key(
            base_fp, library, wire, input_slew, output_load))
        if (sess is not None and sess["engine"] == engine
                and sess["n_gates"] <= n):
            base = sess

    if vector:
        session = _vector_timing(netlist, library, wire, input_slew,
                                 output_load)
    else:
        session = _scalar_timing(netlist, library, wire, input_slew,
                                 output_load, base)
    _record_session(
        _session_key(fp, library, wire, input_slew, output_load), session)
    netlist._sta_prev_fp = fp
    return session["report"]


def _count_pass(engine: str, delta: bool, gates: int, retimed: int,
                levels: int, lookups: int) -> None:
    """Book one engine pass; a full pass re-times all of its gates."""
    telemetry.count("sta.runs")
    telemetry.count(f"sta.{engine}_runs")
    if delta:
        telemetry.count("sta.incremental_runs")
    telemetry.count("sta.gates", gates)
    telemetry.count("sta.retimed_gates", retimed)
    telemetry.count("sta.levels", levels)
    telemetry.count("sta.nldm_lookups", lookups)


# ---------------------------------------------------------------------------
# Scalar engine
# ---------------------------------------------------------------------------

def _scalar_timing(netlist: Netlist, library: Library, wire: WireModel,
                   input_slew: float, output_load: float | None,
                   base: dict | None) -> dict:
    """Re-time the dirty cone from a scalar *base* session; its session.

    With ``base=None`` the state starts empty, so every gate is dirty.
    Net loading is recomputed in full (one cheap dict pass); the NLDM
    propagation — the expensive part — touches only new gates, gates
    whose output loading changed, and gates downstream of a bitwise
    arrival/slew change.  Because the per-gate computation is a pure
    function of (input arrival/slew, output load), untouched values are
    exactly what a full pass would recompute.
    """
    loads, pin_loads, sink_counts = _net_loading(netlist, library, wire,
                                                 output_load)
    delta = base is not None
    # Primary inputs first, then gate outputs in topological order — a
    # delta pass keeps that key order too (its base's gates precede the
    # new ones, and new primary inputs join the base's).
    arrival = dict.fromkeys(netlist.primary_inputs, 0.0)
    slew = dict.fromkeys(netlist.primary_inputs, input_slew)
    if not delta:
        worst_input: dict[str, str | None] = {}   # gate -> critical fanin
        gate_delay: dict[str, float] = {}
    else:
        b_loads = base["loads"]
        b_pins = base["pin_loads"]
        b_sinks = base["sink_counts"]
        dirty_load = {
            net for net, load in loads.items()
            if (b_loads.get(net) != load or b_pins.get(net) != pin_loads[net]
                or b_sinks.get(net) != sink_counts[net])}
        arrival.update(base["arrival"])
        slew.update(base["slew"])
        worst_input = dict(base["worst_input"])
        gate_delay = dict(base["gate_delay"])

    # The gate loop below is the hot path of every synthesis experiment
    # (tens of thousands of gates for the wide datapath blocks).  Each
    # pin's delay is a pure function of (cell, pin, slew, load), and so
    # is the output slew through that pin, so both are memoised for the
    # pass: a block repeats a few hundred distinct keys over thousands
    # of gates.  A miss brackets each NLDM axis once — the load once
    # per gate, the slew once per input pin — and every table on that
    # axis interpolates from the shared bracket.  The output slew is
    # computed for the critical pin only.  Arrivals and the wire term
    # are added per gate.  A full pass, where every gate is dirty,
    # skips the dirty-cone tests.
    topo = netlist.topological_order()
    changed: set[str] = set()
    arc_tables = _arc_tables(library)
    elmore = wire.elmore_delay
    delay_memo: dict[tuple, float] = {}
    slew_memo: dict[tuple, float] = {}
    lookups = skipped = 0
    for gate in topo:
        output = gate.output
        # A recorded gate stays clean unless its load or an input moved.
        if (delta and gate.name in worst_input and output not in dirty_load
                and changed.isdisjoint(gate.inputs)):
            skipped += 1
            continue
        cell = gate.cell
        pins = arc_tables.get(cell)
        if pins is None:
            pins = arc_tables[cell] = _cell_arcs(library.cell(cell))
        load = loads[output]
        load_axis = None                 # axis of the current load bracket
        # Wire RC from this gate's output to its sinks (Elmore, shared).
        t_wire = elmore(sink_counts[output], pin_loads[output])

        best_t = -1.0
        best_net: str | None = None
        for k, (net, (delays, transitions)) in enumerate(
                zip(gate.inputs, pins)):
            s = slew[net]
            key = (cell, k, s, load)
            d = delay_memo.get(key)
            if d is None:
                lookups += 1
                slew_axis = None         # axis of the current slew bracket
                d = -1.0
                for rows, s_axis, s_last, l_axis, l_last in delays:
                    if s_axis is not slew_axis:
                        slew_axis = s_axis
                        i, ts = bracket(s_axis, s_last, s)
                    if l_axis is not load_axis:
                        load_axis = l_axis
                        j, tl = bracket(l_axis, l_last, load)
                    v = interpolate(rows, i, ts, j, tl)
                    if v > d:
                        d = v
                delay_memo[key] = d
            t = arrival[net] + d + t_wire
            if t > best_t:
                best_t = t
                best_net = net
                best_key = key
                best_transitions = transitions
        new_slew = slew_memo.get(best_key)
        if new_slew is None:
            lookups += 1
            s = slew[best_net]
            slew_axis = None
            new_slew = -1.0
            for rows, s_axis, s_last, l_axis, l_last in best_transitions:
                if s_axis is not slew_axis:
                    slew_axis = s_axis
                    i, ts = bracket(s_axis, s_last, s)
                if l_axis is not load_axis:
                    load_axis = l_axis
                    j, tl = bracket(l_axis, l_last, load)
                v = interpolate(rows, i, ts, j, tl)
                if v > new_slew:
                    new_slew = v
            slew_memo[best_key] = new_slew
        if delta and (arrival.get(output) != best_t
                      or slew.get(output) != new_slew):
            changed.add(output)
        arrival[output] = best_t
        slew[output] = new_slew
        worst_input[gate.name] = best_net
        gate_delay[gate.name] = best_t - arrival[best_net]

    if telemetry.ENABLED:
        # sta.nldm_lookups books the memo misses: one per pin delay and
        # one per output slew actually evaluated from the tables.  The
        # scalar engine runs no level batches.
        _count_pass("scalar", delta, len(topo), len(topo) - skipped, 0,
                    lookups)

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

    report = TimingReport(
        netlist_name=netlist.name,
        max_delay=max_delay,
        critical_path=tuple(path),
        arrival=arrival,
        slew=slew,
        load=loads,
        gate_delay=gate_delay,
    )
    return {"engine": "scalar", "n_gates": len(netlist.gates),
            "loads": loads, "pin_loads": pin_loads,
            "sink_counts": sink_counts, "arrival": arrival, "slew": slew,
            "worst_input": worst_input, "gate_delay": gate_delay,
            "report": report}


def _arc_tables(library: Library) -> dict[str, tuple]:
    """Cell name -> :func:`_cell_arcs` tables, cached on the library.

    Entries are filled on first use, so a cell no netlist reads is never
    checked (a pin without arcs raises only when a gate reads it).
    """
    tables = getattr(library, "_scalar_arcs", None)
    if tables is None:
        tables = {}
        object.__setattr__(library, "_scalar_arcs", tables)
    return tables


def _cell_arcs(cell: CellTiming) -> tuple:
    """Per input pin, its (delay tables, transition tables).

    A table is ``(value rows, slew axis, last slew segment, load axis,
    last load segment)``.  Equal axes are one list object, so the gate
    loop shares a bracket between tables by identity: one load bracket
    per gate and one slew bracket per pin on a library characterised on
    one grid, and a fresh bracket wherever a table's axis differs.
    Tables keep :meth:`CellTiming.arcs_from` order, the order of the
    running maxima in :meth:`CellTiming.delay` and
    :meth:`CellTiming.output_slew`.
    """
    axes: dict[tuple[float, ...], list[float]] = {}

    def entry(table) -> tuple:
        slews = axes.setdefault(tuple(table._slew_list), table._slew_list)
        loads = axes.setdefault(tuple(table._load_list), table._load_list)
        return (table._value_rows, slews, table._max_i, loads, table._max_j)

    pins = []
    for pin in cell.inputs:
        arcs = cell.arcs_from(pin)           # raises LibraryError
        pins.append((tuple(entry(a.delay) for a in arcs),
                     tuple(entry(a.transition) for a in arcs)))
    return tuple(pins)


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
            except LibraryError:
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

    One Python pass over the gates in topological order assigns net ids
    (primary inputs first, then gate outputs) and logic levels;
    everything else is arrays.  The ``_u`` arrays stay in topological
    order, the others are stable-sorted by level.  The result is cached
    on the netlist, tied to the identity of the topological-order list
    (which :meth:`Netlist.add_gate` invalidates) and to the
    primary-output list.
    """
    topo = netlist.topological_order()
    cached = getattr(netlist, "_vector_struct", None)
    if (cached is not None and cached["topo"] is topo
            and cached["outputs"] == netlist.primary_outputs):
        return cached

    names = list(netlist.primary_inputs)
    net_id = {net: i for i, net in enumerate(names)}
    levels = [0] * len(names)
    cell_names: list[str] = []
    cell_code: dict[str, int] = {}
    n = len(topo)
    g_code_u = np.empty(n, dtype=np.int32)
    g_out_u = np.empty(n, dtype=np.int32)
    g_in_u = np.full((n, 3), -1, dtype=np.int32)
    g_level_u = np.empty(n, dtype=np.int32)
    for k, gate in enumerate(topo):
        lv = 0
        for p, net in enumerate(gate.inputs):
            i = net_id[net]
            g_in_u[k, p] = i
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
        g_code_u[k] = code
        g_out_u[k] = oid
        g_level_u[k] = lv + 1

    order = np.argsort(g_level_u, kind="stable")
    g_level = g_level_u[order]
    max_level = int(g_level[-1]) if n else 0
    po_ids = list(dict.fromkeys(
        net_id[net] for net in netlist.primary_outputs if net in net_id))
    gate_names_u = [gate.name for gate in topo]

    struct = {
        "topo": topo,
        "outputs": list(netlist.primary_outputs),
        "names": names,
        "cell_names": cell_names,
        "g_code": g_code_u[order],
        "g_out": g_out_u[order],
        "g_in": g_in_u[order],
        # bounds[k] = index one past the last gate of level k+1.
        "bounds": np.searchsorted(g_level, np.arange(1, max_level + 1),
                                  side="right"),
        "gate_names": [gate_names_u[i] for i in order],
        "po_ids": np.asarray(po_ids, dtype=np.int32),
        "order": order,
        "g_out_u": g_out_u,
        "gate_names_u": gate_names_u,
    }
    netlist._vector_struct = struct
    return struct


def _cell_tables(grids: dict, library: Library,
                 cell_names: list[str]) -> tuple:
    """Per-cell-code lookup tables for the array engine."""
    infos = []
    for name in cell_names:
        library.cell(name)               # raises LibraryError if missing
        infos.append(grids["cells"][name])

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
    """(loads, t_wire) arrays — vector :func:`_net_loading`."""
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
    return loads, t_wire


def _bilinear(G, rows, i, j, ts, tl):
    v00 = G[rows, i, j]
    v01 = G[rows, i, j + 1]
    v10 = G[rows, i + 1, j]
    v11 = G[rows, i + 1, j + 1]
    return ((1 - ts) * (v00 + tl * (v01 - v00))
            + ts * (v10 + tl * (v11 - v10)))


def _vector_report(netlist: Netlist, struct: dict, arrival, slew, loads,
                   gate_best_in_u, gate_delay_u) -> TimingReport:
    """Assemble the report from the array engine's state.

    Per-gate arrays are indexed in *unsorted* (topological) order, so
    the report's ``gate_delay`` keys follow the scalar engine's order.
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


def _vector_timing(netlist: Netlist, library: Library, wire: WireModel,
                   input_slew: float, output_load: float | None) -> dict:
    """One full levelised pass; its session (engine, size, report).

    The caller has checked that the library batches
    (:func:`_library_grids`).  Arithmetic mirrors the scalar engine
    expression for expression (same bilinear form, same strictly-greater
    pin tie-breaking via first-maximum argmax), so the engines agree to
    float rounding.  Each logic level is timed whole, as an array slice.
    """
    grids = _library_grids(library)
    struct = _vector_structure(netlist)
    npins, caps_tab, d_a, d_b, t_a, t_b = _cell_tables(
        grids, library, struct["cell_names"])

    g_code = struct["g_code"]
    g_out = struct["g_out"]
    g_in = struct["g_in"]
    order = struct["order"]
    n = len(g_code)
    n_nets = len(struct["names"])
    loads, t_wire = _vector_loads(struct, caps_tab, g_code, library, wire,
                                  output_load)

    # Per-net timing state starts at the primary-input boundary condition
    # (correct for primary inputs, and overwritten before use for gate
    # outputs).  Per-gate results are kept in level order.
    arrival = np.zeros(n_nets)
    slew = np.full(n_nets, input_slew)
    gate_best_in = np.empty(n, dtype=np.int32)
    gate_delay = np.empty(n)

    slew_axis = grids["slews"]
    load_axis = grids["loads"]
    max_i = len(slew_axis) - 2
    max_j = len(load_axis) - 2
    DG = grids["delay"]
    TG = grids["trans"]

    n_lookups = n_levels = 0
    start = 0
    for stop in struct["bounds"].tolist():
        rows = slice(start, stop)
        start = stop
        code = g_code[rows]
        count = len(code)
        if not count:
            continue
        n_levels += 1
        out = g_out[rows]
        ins = g_in[rows]
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
            valid = p < pin_count
            iid = np.where(valid, ins[:, p], 0)
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
            # per (level, pin) round, covering `count` gates.
            n_lookups += 2 * count

        t_stack = np.stack(t_rows)
        best = t_stack.argmax(axis=0)    # first max == strictly-greater scan
        cols = np.arange(count)
        t_best = t_stack[best, cols]
        arrival[out] = t_best
        slew[out] = np.stack(s_rows)[best, cols]
        best_in = ins[cols, best]
        gate_best_in[rows] = best_in
        gate_delay[rows] = t_best - arrival[best_in]

    if telemetry.ENABLED:
        _count_pass("vector", False, n, n, n_levels, n_lookups)

    gate_best_in_u = np.empty(n, dtype=np.int32)
    gate_delay_u = np.empty(n)
    gate_best_in_u[order] = gate_best_in
    gate_delay_u[order] = gate_delay

    report = _vector_report(netlist, struct, arrival, slew, loads,
                            gate_best_in_u, gate_delay_u)
    return {"engine": "vector", "n_gates": n, "report": report}
