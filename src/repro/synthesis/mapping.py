"""Technology mapping onto the 6-cell library.

Generic gates are decomposed into {INV, NAND2, NAND3, NOR2, NOR3} with
standard minimal patterns (XOR as the 4-NAND network, MUX as 3 NAND + INV,
XNOR as the 4-NOR dual).  The mapping is purely structural; logical
equivalence is property-tested in the suite by simulating netlists before
and after mapping on random vectors.

Because each source gate lowers to a fixed pattern in topological order,
mapping is *prefix-stable*: mapping an extended netlist reproduces the
base mapping gate for gate and only appends.  :func:`map_cached` exploits
that — a fingerprint-keyed memo returns the previous mapping for an
unchanged source, and a source built with :meth:`Netlist.extend` is
mapped by extending the cached base mapping over just the suffix gates.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import SynthesisError
from repro.runtime import telemetry
from repro.synthesis.netlist import LIBRARY_CELLS, Netlist

#: Exact lowered-cell multiset per source cell — the integer transform
#: that :func:`technology_map` realises structurally.  Kept in data form
#: so area accounting (:func:`lower_cell_counts`) never needs to build
#: the mapped netlist.
MAPPED_CELL_COUNTS = {
    **{cell: {cell: 1} for cell in LIBRARY_CELLS},
    "buf": {"inv": 2},
    "and2": {"nand2": 1, "inv": 1},
    "and3": {"nand3": 1, "inv": 1},
    "or2": {"nor2": 1, "inv": 1},
    "or3": {"nor3": 1, "inv": 1},
    "xor2": {"nand2": 4},
    "xnor2": {"nor2": 4},
    "mux2": {"inv": 1, "nand2": 3},
}


def _map_gates(mapped: Netlist, gates, counter: int) -> int:
    """Lower *gates* into *mapped*, continuing the ``tm$`` namespace.

    Returns the final intermediate-net counter so an extension pass can
    resume numbering exactly where the base mapping stopped (that is
    what keeps extended mappings bit-identical to fresh ones).
    """

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"tm${counter}"

    for gate in gates:
        ins = gate.inputs
        out = gate.output
        cell = gate.cell
        if cell in LIBRARY_CELLS:
            mapped.add_gate(cell, ins, output=out)
        elif cell == "buf":
            mid = mapped.add_gate("inv", ins, output=fresh())
            mapped.add_gate("inv", (mid,), output=out)
        elif cell == "and2":
            mid = mapped.add_gate("nand2", ins, output=fresh())
            mapped.add_gate("inv", (mid,), output=out)
        elif cell == "and3":
            mid = mapped.add_gate("nand3", ins, output=fresh())
            mapped.add_gate("inv", (mid,), output=out)
        elif cell == "or2":
            mid = mapped.add_gate("nor2", ins, output=fresh())
            mapped.add_gate("inv", (mid,), output=out)
        elif cell == "or3":
            mid = mapped.add_gate("nor3", ins, output=fresh())
            mapped.add_gate("inv", (mid,), output=out)
        elif cell == "xor2":
            a, b = ins
            nab = mapped.add_gate("nand2", (a, b), output=fresh())
            t1 = mapped.add_gate("nand2", (a, nab), output=fresh())
            t2 = mapped.add_gate("nand2", (b, nab), output=fresh())
            mapped.add_gate("nand2", (t1, t2), output=out)
        elif cell == "xnor2":
            a, b = ins
            nab = mapped.add_gate("nor2", (a, b), output=fresh())
            t1 = mapped.add_gate("nor2", (a, nab), output=fresh())
            t2 = mapped.add_gate("nor2", (b, nab), output=fresh())
            mapped.add_gate("nor2", (t1, t2), output=out)
        elif cell == "mux2":
            s, a, b = ins
            ns = mapped.add_gate("inv", (s,), output=fresh())
            t1 = mapped.add_gate("nand2", (a, ns), output=fresh())
            t2 = mapped.add_gate("nand2", (b, s), output=fresh())
            mapped.add_gate("nand2", (t1, t2), output=out)
        else:  # pragma: no cover - Gate.__post_init__ rejects unknown cells
            raise SynthesisError(f"no mapping for cell {cell!r}")
    return counter


@telemetry.timed("solver.mapping")
def technology_map(netlist: Netlist) -> Netlist:
    """Lower a generic netlist onto the 6-cell library."""
    mapped = Netlist(f"{netlist.name}_mapped")
    for net in netlist.primary_inputs:
        mapped.add_input(net)

    # Intermediate nets introduced by decomposition get their own
    # namespace so they can never collide with the source netlist's
    # auto-generated names.
    mapped._tm_counter = _map_gates(mapped, netlist.topological_order(), 0)

    for net in netlist.primary_outputs:
        mapped.add_output(net)
    return mapped


#: Fingerprint-keyed mapping memo for :func:`map_cached`.  Entries hold
#: ``(mapped, tm_counter, n_source_gates)`` so an extension pass can
#: resume both namespaces.  Bounded LRU — sweeps revisit a handful of
#: block shapes, not an unbounded stream.
_MAP_CACHE: OrderedDict[str, tuple[Netlist, int, int]] = OrderedDict()
_MAP_CACHE_LIMIT = 32


def reset_map_cache() -> None:
    """Drop all memoised mappings (tests and cache-control hooks)."""
    _MAP_CACHE.clear()


def map_cached(netlist: Netlist) -> Netlist:
    """:func:`technology_map` with structure sharing across a sweep.

    Keyed on the source :meth:`Netlist.fingerprint`: an unchanged source
    returns the previously built mapping object outright, and a source
    produced by :meth:`Netlist.extend` from an already-mapped base is
    lowered by extending the cached base mapping over only the suffix
    gates — bit-identical to a fresh :func:`technology_map` because the
    lowering is prefix-stable and the intermediate-net / gate-name
    counters resume where the base stopped.  The oracle is
    :func:`technology_map`.
    """
    fp = netlist.fingerprint()
    hit = _MAP_CACHE.get(fp)
    if hit is not None and hit[2] == len(netlist.gates):
        _MAP_CACHE.move_to_end(fp)
        return hit[0]

    base_fp = getattr(netlist, "_base_fingerprint", None)
    base = _MAP_CACHE.get(base_fp) if base_fp else None
    if base is not None and base[2] == netlist._base_len:
        mapped = _extend_mapping(netlist, *base)
    else:
        mapped = technology_map(netlist)
    _MAP_CACHE[fp] = (mapped, mapped._tm_counter, len(netlist.gates))
    _trim_map_cache()
    return mapped


def _trim_map_cache() -> None:
    while len(_MAP_CACHE) > _MAP_CACHE_LIMIT:
        _MAP_CACHE.popitem(last=False)


@telemetry.timed("solver.mapping")
def _extend_mapping(netlist: Netlist, base_mapped: Netlist, counter: int,
                    n_base: int) -> Netlist:
    """Map only ``topo[n_base:]`` on top of the cached base mapping."""
    mapped = base_mapped.extend(name=f"{netlist.name}_mapped")
    for net in netlist.primary_inputs:
        if net not in mapped._pi_set:
            mapped.add_input(net)
    mapped._tm_counter = _map_gates(
        mapped, netlist.topological_order()[n_base:], counter)
    mapped.set_outputs(netlist.primary_outputs)
    return mapped


def lower_cell_counts(counts: dict[str, int]) -> dict[str, int]:
    """Library-cell multiset that mapping a generic cell multiset yields.

    Mapping lowers each gate to a fixed pattern, so the mapped counts
    are an exact integer transform of the source counts
    (:data:`MAPPED_CELL_COUNTS`) — no netlist needed.  Library cells
    map to themselves.
    """
    lowered: dict[str, int] = {}
    for cell, n in counts.items():
        for lib_cell, k in MAPPED_CELL_COUNTS[cell].items():
            lowered[lib_cell] = lowered.get(lib_cell, 0) + k * n
    return lowered


def mapped_cell_counts(netlist: Netlist) -> dict[str, int]:
    """Library-cell multiset of ``technology_map(netlist)``, by counting."""
    return lower_cell_counts(netlist.cell_counts())
