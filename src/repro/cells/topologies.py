"""Transistor-level standard-cell topologies (paper Section 4.3).

Organic cells are unipolar p-type.  A p-type transistor conducts when its
gate is low relative to its source, so networks of p-FETs with sources
toward VDD form *inverting pull-up* logic; the three inverter styles differ
in how the pull-down side is realised:

- **diode-load** (Figure 5a): pull-down is a diode-connected p-FET to
  ground — simplest, but ratioed with gain barely above 1;
- **biased-load** (Figure 5b): pull-down gate is tied to a negative third
  rail VSS, adding a tuning knob for the switching threshold;
- **pseudo-E** (Figure 5c, pseudo-CMOS after Huang et al.): a two-stage
  design whose first stage level-shifts the input below ground so the
  output-stage pull-down is gated *by the input's complement*, letting the
  output reach full VDD and roughly tripling gain and noise margin.

Silicon cells use complementary CMOS topologies.  A NAND-based D-flip-flop
with preset and clear (the classic three-SR-latch 7474 network) is built
compositionally from the gate cells, so it exists for both processes.

Everything here produces *designs* (device lists + metadata), which the
characterisation harness instantiates into :class:`repro.spice.Circuit`
objects together with stimulus sources and loads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.errors import CircuitError
from repro.spice.elements import Fet, FetModel
from repro.spice.netlist import Circuit

#: Default organic channel length: shadow-mask resolution limit, metres.
ORGANIC_L = 20e-6

#: Default silicon channel length (45 nm node), metres.
SILICON_L = 45e-9


@dataclass(frozen=True)
class DeviceSpec:
    """One transistor inside a cell: terminals are cell-local node names."""

    name: str
    drain: str
    gate: str
    source: str
    model: FetModel
    w: float
    l: float


@dataclass(frozen=True)
class CellDesign:
    """A flat transistor-level cell.

    ``rails`` maps rail node names to their supply voltages (e.g.
    ``{"vdd": 5.0, "vss": -15.0, "gnd": 0.0}``).  ``function`` is a Python
    boolean expression over the input pin names, used for logic-level
    evaluation and characterisation stimulus generation; sequential
    composite cells leave it empty.
    """

    name: str
    inputs: tuple[str, ...]
    output: str
    devices: tuple[DeviceSpec, ...]
    rails: dict[str, float]
    style: str
    function: str = ""

    def instantiate(self, circuit: Circuit, node_map: dict[str, str],
                    prefix: str = "") -> None:
        """Add this cell's transistors to *circuit*.

        ``node_map`` maps cell-local pin/rail names to circuit node names;
        unmapped internal nodes are prefixed to stay unique.
        """
        def resolve(node: str) -> str:
            if node in node_map:
                return node_map[node]
            return f"{prefix}{self.name}.{node}"

        for dev in self.devices:
            circuit.add(Fet(f"{prefix}{self.name}.{dev.name}",
                            resolve(dev.drain), resolve(dev.gate),
                            resolve(dev.source), dev.model, dev.w, dev.l))

    def input_capacitance(self, pin: str) -> float:
        """Total gate capacitance presented at *pin* (fanout load model)."""
        if pin not in self.inputs:
            raise CircuitError(f"cell {self.name!r} has no input {pin!r}")
        return sum(d.model.gate_capacitance(d.w, d.l)
                   for d in self.devices if d.gate == pin)

    def evaluate(self, **values: bool) -> bool:
        """Logic value of the output for the given input values."""
        if not self.function:
            raise CircuitError(f"cell {self.name!r} has no combinational function")
        missing = set(self.inputs) - set(values)
        if missing:
            raise CircuitError(f"missing inputs for {self.name!r}: {sorted(missing)}")
        env = {k: bool(v) for k, v in values.items()}
        return bool(eval(_compiled(self.function),  # noqa: S307
                         {"__builtins__": {}}, env))

    @property
    def transistor_count(self) -> int:
        return len(self.devices)

    def total_gate_width(self) -> float:
        return sum(d.w for d in self.devices)


@functools.lru_cache(maxsize=None)
def _compiled(function: str):
    """A cell's logic expression, compiled once per distinct source."""
    return compile(function, "<cell function>", "eval")


@dataclass(frozen=True)
class CompositeCell:
    """A cell built from sub-cells (the NAND-based flip-flop).

    ``subcells`` is a list of ``(instance_name, design, binding)`` where
    *binding* maps each sub-cell pin/rail to a composite-local node name.
    """

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    subcells: tuple[tuple[str, CellDesign, dict[str, str]], ...]
    rails: dict[str, float]
    style: str

    def instantiate(self, circuit: Circuit, node_map: dict[str, str],
                    prefix: str = "") -> None:
        for inst_name, design, binding in self.subcells:
            # Compose: sub-cell local -> composite local -> circuit node.
            resolved = {}
            for local, comp in binding.items():
                resolved[local] = node_map.get(
                    comp, f"{prefix}{self.name}.{comp}")
            design.instantiate(circuit, resolved,
                               prefix=f"{prefix}{self.name}.{inst_name}.")

    def input_capacitance(self, pin: str) -> float:
        if pin not in self.inputs:
            raise CircuitError(f"cell {self.name!r} has no input {pin!r}")
        total = 0.0
        for _, design, binding in self.subcells:
            for local, comp in binding.items():
                if comp == pin and local in design.inputs:
                    total += design.input_capacitance(local)
        return total

    @property
    def transistor_count(self) -> int:
        return sum(d.transistor_count for _, d, _ in self.subcells)

    def total_gate_width(self) -> float:
        return sum(d.total_gate_width() for _, d, _ in self.subcells)


# ---------------------------------------------------------------------------
# Organic (unipolar p-type) cells
# ---------------------------------------------------------------------------

def diode_load_inverter(model: FetModel, w_drive: float = 200e-6,
                        w_load: float = 30e-6, l: float = ORGANIC_L,
                        vdd: float = 15.0) -> CellDesign:
    """Figure 5(a): drive p-FET to VDD, diode-connected load to ground."""
    _require_ptype(model)
    return CellDesign(
        name="inv_diode",
        inputs=("a",),
        output="out",
        devices=(
            DeviceSpec("m_drive", "out", "a", "vdd", model, w_drive, l),
            DeviceSpec("m_load", "gnd", "gnd", "out", model, w_load, l),
        ),
        rails={"vdd": vdd, "gnd": 0.0},
        style="diode_load",
        function="not a",
    )


def biased_load_inverter(model: FetModel, w_drive: float = 200e-6,
                         w_load: float = 30e-6, l: float = ORGANIC_L,
                         vdd: float = 15.0, vss: float = -5.0) -> CellDesign:
    """Figure 5(b): the load gate is tied to a negative bias rail VSS."""
    _require_ptype(model)
    return CellDesign(
        name="inv_biased",
        inputs=("a",),
        output="out",
        devices=(
            DeviceSpec("m_drive", "out", "a", "vdd", model, w_drive, l),
            DeviceSpec("m_load", "gnd", "vss", "out", model, w_load, l),
        ),
        rails={"vdd": vdd, "gnd": 0.0, "vss": vss},
        style="biased_load",
        function="not a",
    )


def pseudo_e_inverter(model: FetModel, w_drive: float = 100e-6,
                      w_shift_load: float = 10e-6, w_up: float = 100e-6,
                      w_down: float = 50e-6, l: float = ORGANIC_L,
                      l_shift_load: float = 100e-6,
                      vdd: float = 5.0, vss: float = -15.0,
                      name: str = "inv") -> CellDesign:
    """Figure 5(c): pseudo-CMOS-E inverter.

    Stage 1 (m_shift_drive + m_shift_load) level-shifts: node x follows the
    input but swings down to VSS when the input is high.  Stage 2's
    pull-down (m_down) is gated by x, so it is driven hard on exactly when
    the pull-up (m_up) is off — the output reaches both rails.

    The shifter load must be very weak (W/L ~ 0.1); since shadow-mask
    patterning bounds the minimum width, weakness comes from a long
    channel ``l_shift_load`` rather than a narrow one.
    """
    _require_ptype(model)
    return CellDesign(
        name=name,
        inputs=("a",),
        output="out",
        devices=(
            DeviceSpec("m_shift_drive", "x", "a", "vdd", model, w_drive, l),
            DeviceSpec("m_shift_load", "vss", "vss", "x", model,
                       w_shift_load, l_shift_load),
            DeviceSpec("m_up", "out", "a", "vdd", model, w_up, l),
            DeviceSpec("m_down", "gnd", "x", "out", model, w_down, l),
        ),
        rails={"vdd": vdd, "gnd": 0.0, "vss": vss},
        style="pseudo_e",
        function="not a",
    )


_INPUT_NAMES = ("a", "b", "c", "d")


def pseudo_e_nand(model: FetModel, n_inputs: int = 2, w_drive: float = 100e-6,
                  w_shift_load: float = 10e-6, w_up: float = 100e-6,
                  w_down: float = 50e-6, l: float = ORGANIC_L,
                  l_shift_load: float = 100e-6,
                  vdd: float = 5.0, vss: float = -15.0) -> CellDesign:
    """Figure 9(a): pseudo-E NAND with parallel pull-up networks.

    Both the level-shifter stage and the output stage use one parallel
    p-FET per input; the shifter node x falls to VSS only when *all*
    inputs are high, turning on the output pull-down.
    """
    _require_ptype(model)
    inputs = _INPUT_NAMES[:n_inputs]
    if n_inputs < 2 or n_inputs > len(_INPUT_NAMES):
        raise CircuitError(f"pseudo-E NAND supports 2..4 inputs, got {n_inputs}")
    devices: list[DeviceSpec] = []
    for i, pin in enumerate(inputs):
        devices.append(DeviceSpec(f"m_shift_{pin}", "x", pin, "vdd",
                                  model, w_drive, l))
        devices.append(DeviceSpec(f"m_up_{pin}", "out", pin, "vdd",
                                  model, w_up, l))
    devices.append(DeviceSpec("m_shift_load", "vss", "vss", "x",
                              model, w_shift_load, l_shift_load))
    devices.append(DeviceSpec("m_down", "gnd", "x", "out", model, w_down, l))
    return CellDesign(
        name=f"nand{n_inputs}",
        inputs=inputs,
        output="out",
        devices=tuple(devices),
        rails={"vdd": vdd, "gnd": 0.0, "vss": vss},
        style="pseudo_e",
        function="not (" + " and ".join(inputs) + ")",
    )


def pseudo_e_nor(model: FetModel, n_inputs: int = 2, w_drive: float = 100e-6,
                 w_shift_load: float = 10e-6, w_up: float = 100e-6,
                 w_down: float = 50e-6, l: float = ORGANIC_L,
                 l_shift_load: float = 100e-6,
                 vdd: float = 5.0, vss: float = -15.0) -> CellDesign:
    """Figure 9(b): pseudo-E NOR with series pull-up networks.

    Series stacks are widened by the stack depth to keep drive strength
    comparable (standard practice, applied per-process by the sizing
    explorer).
    """
    _require_ptype(model)
    inputs = _INPUT_NAMES[:n_inputs]
    if n_inputs < 2 or n_inputs > len(_INPUT_NAMES):
        raise CircuitError(f"pseudo-E NOR supports 2..4 inputs, got {n_inputs}")
    w_drive_s = w_drive * n_inputs
    w_up_s = w_up * n_inputs
    devices: list[DeviceSpec] = []
    # Series chain for the shifter stage: vdd -> x through all inputs.
    prev = "vdd"
    for i, pin in enumerate(inputs):
        nxt = "x" if i == n_inputs - 1 else f"sx{i}"
        devices.append(DeviceSpec(f"m_shift_{pin}", nxt, pin, prev,
                                  model, w_drive_s, l))
        prev = nxt
    # Series chain for the output stage: vdd -> out.
    prev = "vdd"
    for i, pin in enumerate(inputs):
        nxt = "out" if i == n_inputs - 1 else f"sy{i}"
        devices.append(DeviceSpec(f"m_up_{pin}", nxt, pin, prev,
                                  model, w_up_s, l))
        prev = nxt
    devices.append(DeviceSpec("m_shift_load", "vss", "vss", "x",
                              model, w_shift_load, l_shift_load))
    devices.append(DeviceSpec("m_down", "gnd", "x", "out", model, w_down, l))
    return CellDesign(
        name=f"nor{n_inputs}",
        inputs=inputs,
        output="out",
        devices=tuple(devices),
        rails={"vdd": vdd, "gnd": 0.0, "vss": vss},
        style="pseudo_e",
        function="not (" + " or ".join(inputs) + ")",
    )


# ---------------------------------------------------------------------------
# Silicon (complementary CMOS) cells
# ---------------------------------------------------------------------------

def cmos_inverter(nmos: FetModel, pmos: FetModel, w_n: float = 0.5e-6,
                  w_p: float = 1.0e-6, l: float = SILICON_L,
                  vdd: float = 1.1, name: str = "inv") -> CellDesign:
    """Standard complementary inverter."""
    _require_ntype(nmos)
    _require_ptype(pmos)
    return CellDesign(
        name=name,
        inputs=("a",),
        output="out",
        devices=(
            DeviceSpec("m_p", "out", "a", "vdd", pmos, w_p, l),
            DeviceSpec("m_n", "out", "a", "gnd", nmos, w_n, l),
        ),
        rails={"vdd": vdd, "gnd": 0.0},
        style="cmos",
        function="not a",
    )


def cmos_nand(nmos: FetModel, pmos: FetModel, n_inputs: int = 2,
              w_n: float = 0.5e-6, w_p: float = 1.0e-6,
              l: float = SILICON_L, vdd: float = 1.1) -> CellDesign:
    """CMOS NAND: series NMOS (upsized by stack depth), parallel PMOS."""
    _require_ntype(nmos)
    _require_ptype(pmos)
    inputs = _INPUT_NAMES[:n_inputs]
    if n_inputs < 2 or n_inputs > len(_INPUT_NAMES):
        raise CircuitError(f"CMOS NAND supports 2..4 inputs, got {n_inputs}")
    devices: list[DeviceSpec] = []
    for pin in inputs:
        devices.append(DeviceSpec(f"m_p_{pin}", "out", pin, "vdd",
                                  pmos, w_p, l))
    prev = "out"
    w_n_s = w_n * n_inputs
    for i, pin in enumerate(inputs):
        nxt = "gnd" if i == n_inputs - 1 else f"sn{i}"
        devices.append(DeviceSpec(f"m_n_{pin}", prev, pin, nxt,
                                  nmos, w_n_s, l))
        prev = nxt
    return CellDesign(
        name=f"nand{n_inputs}",
        inputs=inputs,
        output="out",
        devices=tuple(devices),
        rails={"vdd": vdd, "gnd": 0.0},
        style="cmos",
        function="not (" + " and ".join(inputs) + ")",
    )


def cmos_nor(nmos: FetModel, pmos: FetModel, n_inputs: int = 2,
             w_n: float = 0.5e-6, w_p: float = 1.0e-6,
             l: float = SILICON_L, vdd: float = 1.1) -> CellDesign:
    """CMOS NOR: parallel NMOS, series PMOS (upsized by stack depth)."""
    _require_ntype(nmos)
    _require_ptype(pmos)
    inputs = _INPUT_NAMES[:n_inputs]
    if n_inputs < 2 or n_inputs > len(_INPUT_NAMES):
        raise CircuitError(f"CMOS NOR supports 2..4 inputs, got {n_inputs}")
    devices: list[DeviceSpec] = []
    prev = "vdd"
    w_p_s = w_p * n_inputs
    for i, pin in enumerate(inputs):
        nxt = "out" if i == n_inputs - 1 else f"sp{i}"
        devices.append(DeviceSpec(f"m_p_{pin}", nxt, pin, prev,
                                  pmos, w_p_s, l))
        prev = nxt
    for pin in inputs:
        devices.append(DeviceSpec(f"m_n_{pin}", "out", pin, "gnd",
                                  nmos, w_n, l))
    return CellDesign(
        name=f"nor{n_inputs}",
        inputs=inputs,
        output="out",
        devices=tuple(devices),
        rails={"vdd": vdd, "gnd": 0.0},
        style="cmos",
        function="not (" + " or ".join(inputs) + ")",
    )


# ---------------------------------------------------------------------------
# The NAND-based D-flip-flop with preset and clear (both processes)
# ---------------------------------------------------------------------------

def nand_dff(nand2: CellDesign, nand3: CellDesign, name: str = "dff"
             ) -> CompositeCell:
    """Positive-edge DFF with active-low preset/clear (7474 topology).

    Three cross-coupled SR latches built from the process's own NAND2 and
    NAND3 cells: two steering latches driven by clk/d and one output latch.
    Pin names: ``d``, ``clk``, ``pre_n``, ``clr_n`` -> ``q``, ``q_n``.
    """
    if nand2.rails != nand3.rails:
        raise CircuitError("dff sub-cells must share rail definitions")
    rails = dict(nand2.rails)
    rail_bind = {r: r for r in rails}

    def bind3(a: str, b: str, c: str, out: str) -> dict[str, str]:
        return {"a": a, "b": b, "c": c, "out": out, **rail_bind}

    subcells = (
        # Steering latches (classic 7474 gate network).
        ("g1", nand3, bind3("pre_n", "n4", "n2", "n1")),
        ("g2", nand3, bind3("n1", "clr_n", "clk", "n2")),
        ("g3", nand3, bind3("n2", "clk", "n4", "n3")),
        ("g4", nand3, bind3("n3", "clr_n", "d", "n4")),
        # Output latch.
        ("g5", nand3, bind3("pre_n", "n2", "q_n", "q")),
        ("g6", nand3, bind3("q", "n3", "clr_n", "q_n")),
    )
    return CompositeCell(
        name=name,
        inputs=("d", "clk", "pre_n", "clr_n"),
        outputs=("q", "q_n"),
        subcells=subcells,
        rails=rails,
        style=nand2.style,
    )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _require_ptype(model: FetModel) -> None:
    if model.polarity != -1:
        raise CircuitError("organic/pull-up cells require a p-type model")


def _require_ntype(model: FetModel) -> None:
    if model.polarity != +1:
        raise CircuitError("CMOS pull-down network requires an n-type model")


def build_dc_testbench(cell: CellDesign, input_values: dict[str, float],
                       load_cap: float = 0.0) -> Circuit:
    """Cell + DC input sources (+ optional load) ready for a DC solve.

    Input pins are driven by voltage sources named ``v_<pin>``; rails by
    sources named ``v_<rail>``.  The output node is ``out``.
    """
    from repro.spice.elements import Capacitor, VoltageSource

    ckt = Circuit(f"tb_{cell.name}")
    node_map = {pin: pin for pin in cell.inputs}
    node_map["out"] = "out"
    for rail, volts in cell.rails.items():
        if volts == 0.0:
            node_map[rail] = "0"
        else:
            node_map[rail] = rail
            ckt.add(VoltageSource(f"v_{rail}", rail, "0", volts))
    for pin in cell.inputs:
        ckt.add(VoltageSource(f"v_{pin}", pin, "0",
                              input_values.get(pin, 0.0)))
    cell.instantiate(ckt, node_map)
    if load_cap > 0.0:
        ckt.add(Capacitor("c_load", "out", "0", load_cap))
    return ckt
