"""Gate-level netlist representation.

A :class:`Netlist` is a DAG of :class:`Gate` instances connected by named
nets.  Before technology mapping, gates may use *generic* cell names
(``and2``, ``xor2``, ``mux2``...); after :func:`repro.synthesis.mapping.
technology_map` only the six library cells remain (``inv``, ``nand2``,
``nand3``, ``nor2``, ``nor3`` — ``dff`` appears only through pipelining).

The class also provides the structural queries STA and pipelining need:
topological order, fanout maps, and logic simulation for functional
verification of the generators.

Two structural features support the incremental sweep engine
(DESIGN §7h):

- every netlist maintains a **structural fingerprint** — an incremental
  blake2b chain over (gate, primary-input) records, with the
  primary-output list folded in at query time — which keys the
  memoised-mapping and incremental-STA session caches;
- :meth:`Netlist.extend` produces a **copy-on-extend** child sharing
  the parent's gate records and hash state, so a sweep growing a block
  (a wider adder, a deeper chain) pays only for the appended cone.

When gates are only ever added after their input drivers (true for all
generators and for mapping output), insertion order *is* a topological
order and :meth:`topological_order` skips the Kahn pass entirely; the
flag also guarantees a parent's topological order stays a prefix of
every extension's, which the vector-STA structure extension relies on.
"""

from __future__ import annotations

import hashlib

from dataclasses import dataclass

from repro.errors import SynthesisError

#: Cell names allowed after technology mapping.
LIBRARY_CELLS = frozenset({"inv", "nand2", "nand3", "nor2", "nor3"})

#: Generic cells the generators may emit (mapped later).
GENERIC_CELLS = frozenset({
    "inv", "buf", "and2", "and3", "or2", "or3", "nand2", "nand3",
    "nor2", "nor3", "xor2", "xnor2", "mux2",
})

#: Logic functions for simulation.  mux2 inputs are (sel, a, b): sel
#: selects b when true, a when false.
_FUNCTIONS = {
    "inv": lambda a: not a,
    "buf": lambda a: a,
    "and2": lambda a, b: a and b,
    "and3": lambda a, b, c: a and b and c,
    "or2": lambda a, b: a or b,
    "or3": lambda a, b, c: a or b or c,
    "nand2": lambda a, b: not (a and b),
    "nand3": lambda a, b, c: not (a and b and c),
    "nor2": lambda a, b: not (a or b),
    "nor3": lambda a, b, c: not (a or b or c),
    "xor2": lambda a, b: a != b,
    "xnor2": lambda a, b: a == b,
    "mux2": lambda s, a, b: b if s else a,
}


@dataclass(frozen=True)
class Gate:
    """One logic gate instance."""

    name: str
    cell: str
    inputs: tuple[str, ...]
    output: str

    def __post_init__(self) -> None:
        if self.cell not in GENERIC_CELLS:
            raise SynthesisError(f"unknown cell type {self.cell!r}")
        expected = _input_count(self.cell)
        if len(self.inputs) != expected:
            raise SynthesisError(
                f"gate {self.name!r} ({self.cell}) needs {expected} inputs, "
                f"got {len(self.inputs)}")


def _input_count(cell: str) -> int:
    if cell in ("inv", "buf"):
        return 1
    if cell in ("mux2", "and3", "or3", "nand3", "nor3"):
        return 3
    return 2


#: Pin counts of every known cell, for the fast add_gate path (a dict
#: probe doubles as the unknown-cell check).
_INPUT_COUNTS = {cell: _input_count(cell) for cell in GENERIC_CELLS}


class Netlist:
    """A combinational gate-level netlist.

    Nets are strings; each net has at most one driver (a gate output or a
    primary input).  Sequential boundaries are not represented here —
    pipelining assigns gates to stages instead (see
    :mod:`repro.synthesis.pipeline`).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.gates: dict[str, Gate] = {}
        self.primary_inputs: list[str] = []
        self.primary_outputs: list[str] = []
        self._driver: dict[str, str] = {}      # net -> gate name
        self._pi_set: set[str] = set()
        self._topo_cache: list[Gate] | None = None
        # True while every gate was added after all of its input drivers,
        # making insertion order a valid topological order.
        self._insertion_topo = True
        # Structural fingerprint: an incremental blake2b chain over gate
        # and primary-input records.  Records are batched in _fp_pending
        # and folded into _fp_hash lazily, so construction stays cheap.
        self._fp_hash = hashlib.blake2b(digest_size=16)
        self._fp_pending: list[str] = []
        # Set by extend(): fingerprint and gate count of the parent this
        # netlist was copy-on-extended from (None for fresh netlists).
        self._base_fingerprint: str | None = None
        self._base_len = 0

    # -- construction ---------------------------------------------------------

    def add_input(self, net: str) -> str:
        if net in self._driver or net in self._pi_set:
            raise SynthesisError(f"net {net!r} already driven")
        self.primary_inputs.append(net)
        self._pi_set.add(net)
        self._fp_pending.append(f"i\x1f{net}")
        return net

    def add_inputs(self, prefix: str, width: int) -> list[str]:
        return [self.add_input(f"{prefix}{i}") for i in range(width)]

    def add_output(self, net: str) -> None:
        self.primary_outputs.append(net)

    def set_outputs(self, nets: list[str] | tuple[str, ...]) -> None:
        """Replace the primary-output list (used by copy-on-extend)."""
        self.primary_outputs = list(nets)

    def add_gate(self, cell: str, inputs: tuple[str, ...] | list[str],
                 output: str | None = None, name: str | None = None) -> str:
        """Add a gate; returns its output net (auto-named if omitted)."""
        if output is None:
            output = f"n{len(self.gates)}_{cell}"
        if name is None:
            name = f"g{len(self.gates)}_{cell}"
        if name in self.gates:
            raise SynthesisError(f"duplicate gate name {name!r}")
        driver = self._driver
        if output in driver or output in self._pi_set:
            raise SynthesisError(f"net {output!r} already driven")
        expected = _INPUT_COUNTS.get(cell)
        if expected is None:
            raise SynthesisError(f"unknown cell type {cell!r}")
        inputs = tuple(inputs)
        if len(inputs) != expected:
            raise SynthesisError(
                f"gate {name!r} ({cell}) needs {expected} inputs, "
                f"got {len(inputs)}")
        # Validation above covers everything Gate.__post_init__ checks,
        # so the frozen-dataclass construction overhead (~2x a plain
        # object) is bypassed on this hot path.
        gate = object.__new__(Gate)
        gate.__dict__.update(name=name, cell=cell, inputs=inputs,
                             output=output)
        if self._insertion_topo:
            pi_set = self._pi_set
            for net in inputs:
                if net not in driver and net not in pi_set:
                    self._insertion_topo = False
                    break
        self.gates[name] = gate
        driver[output] = name
        self._topo_cache = None
        self._fp_pending.append(
            f"g\x1f{name}\x1f{cell}\x1f{'|'.join(inputs)}\x1f{output}")
        return output

    # -- structural fingerprint ----------------------------------------------

    def _fold_pending(self) -> None:
        if self._fp_pending:
            self._fp_hash.update(
                "\x1e".join(self._fp_pending).encode() + b"\x1e")
            self._fp_pending.clear()

    def fingerprint(self) -> str:
        """Hex digest identifying gates, inputs and the current outputs.

        Gate/input records are chained incrementally (adding N gates
        costs O(N) regardless of netlist size); the primary-output list
        is folded into a *copy* of the chain at query time, so
        reordering or replacing outputs changes the fingerprint without
        disturbing the chain.
        """
        self._fold_pending()
        h = self._fp_hash.copy()
        h.update(("o\x1f" + "|".join(self.primary_outputs)).encode())
        return h.hexdigest()

    def extend(self, name: str | None = None) -> "Netlist":
        """Copy-on-extend: a child netlist sharing this one's structure.

        The child starts as a shallow copy (gates are immutable and
        shared; bookkeeping dicts are copied) and records this netlist's
        fingerprint and gate count, which the memoised mapping and
        incremental STA layers use to re-derive only the appended cone.
        The parent must not be mutated afterwards.
        """
        new = Netlist.__new__(Netlist)
        new.name = name if name is not None else self.name
        new.gates = dict(self.gates)
        new.primary_inputs = list(self.primary_inputs)
        new.primary_outputs = list(self.primary_outputs)
        new._driver = dict(self._driver)
        new._pi_set = set(self._pi_set)
        new._topo_cache = None
        new._insertion_topo = self._insertion_topo
        self._fold_pending()
        new._fp_hash = self._fp_hash.copy()
        new._fp_pending = []
        new._base_fingerprint = self.fingerprint()
        new._base_len = len(self.gates)
        return new

    # -- structure ------------------------------------------------------------

    def driver_of(self, net: str) -> Gate | None:
        """The gate driving *net*, or None for primary inputs."""
        name = self._driver.get(net)
        return self.gates[name] if name is not None else None

    def fanout_map(self) -> dict[str, list[tuple[Gate, int]]]:
        """net -> list of (sink gate, input pin index)."""
        fanout: dict[str, list[tuple[Gate, int]]] = {
            net: [] for net in self._driver}
        for net in self.primary_inputs:
            fanout.setdefault(net, [])
        for gate in self.gates.values():
            for k, net in enumerate(gate.inputs):
                if net not in fanout:
                    raise SynthesisError(
                        f"gate {gate.name!r} reads undriven net {net!r}")
                fanout[net].append((gate, k))
        return fanout

    def topological_order(self) -> list[Gate]:
        """Gates in dependency order; raises on combinational loops.

        When every gate was added after its input drivers (the common
        case — all generators and the mapper construct bottom-up),
        insertion order is already topological and is returned directly;
        otherwise a Kahn pass sorts (and validates) the graph.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        if self._insertion_topo:
            order = list(self.gates.values())
            self._topo_cache = order
            return order

        available = set(self.primary_inputs)
        fanout = self.fanout_map()
        # remaining[g] = number of input nets not yet available.
        remaining: dict[str, int] = {}
        ready: list[Gate] = []
        for gate in self.gates.values():
            deps = sum(1 for net in gate.inputs if net not in available)
            remaining[gate.name] = deps
            if deps == 0:
                ready.append(gate)

        order: list[Gate] = []
        while ready:
            gate = ready.pop()
            order.append(gate)
            for sink, pin in fanout.get(gate.output, ()):
                # A sink may read this net on several pins; decrement once
                # per connected pin.
                del pin
                remaining[sink.name] -= 1
                if remaining[sink.name] == 0:
                    ready.append(sink)

        if len(order) != len(self.gates):
            stuck = [n for n, d in remaining.items() if d > 0][:5]
            raise SynthesisError(
                f"netlist {self.name!r} has a combinational loop or "
                f"undriven nets (stuck gates: {stuck})")
        self._topo_cache = order
        return order

    def logic_depth(self) -> int:
        """Maximum number of gates on any input-to-output path."""
        depth: dict[str, int] = {net: 0 for net in self.primary_inputs}
        for gate in self.topological_order():
            depth[gate.output] = 1 + max(depth[n] for n in gate.inputs)
        return max((depth.get(n, 0) for n in self.primary_outputs), default=0)

    def simulate(self, values: dict[str, bool]) -> dict[str, bool]:
        """Evaluate the netlist for given primary-input values."""
        missing = set(self.primary_inputs) - set(values)
        if missing:
            raise SynthesisError(f"missing input values: {sorted(missing)[:5]}")
        nets: dict[str, bool] = {n: bool(values[n]) for n in self.primary_inputs}
        for gate in self.topological_order():
            fn = _FUNCTIONS[gate.cell]
            nets[gate.output] = bool(fn(*(nets[n] for n in gate.inputs)))
        return {n: nets[n] for n in self.primary_outputs}

    # -- stats ----------------------------------------------------------------

    def cell_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for gate in self.gates.values():
            counts[gate.cell] = counts.get(gate.cell, 0) + 1
        return counts

    @property
    def is_mapped(self) -> bool:
        return all(g.cell in LIBRARY_CELLS for g in self.gates.values())

    def __len__(self) -> int:
        return len(self.gates)

    def __repr__(self) -> str:
        return (f"Netlist({self.name!r}, gates={len(self.gates)}, "
                f"pi={len(self.primary_inputs)}, po={len(self.primary_outputs)})")
