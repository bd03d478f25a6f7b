"""Static (voltage-transfer-characteristic) analysis of inverting cells.

Implements the paper's Section 4.3.1 design criteria:

- the **switching threshold** ``VM`` is "extracted from the intersect by
  mirroring the VTC" — the fixed point ``f(VM) = VM``;
- the **maximum gain** is the largest magnitude of the VTC slope;
- the **noise margins** are "extracted from the max equal criterion (MEC)"
  (Hauser 1993): the side of the largest square inscribed in each eye of
  the butterfly diagram formed by the VTC and its mirror across ``y = x``.
  The upper-left eye gives the low-state margin NML, the lower-right eye
  the high-state margin NMH;
- **static power** is the total power delivered by all supply rails at a
  fixed input level (the ratioed organic styles burn static current in
  exactly one input state; pseudo-E burns it in both stages).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import runtime
from repro.cells.topologies import CellDesign, build_dc_testbench
from repro.errors import AnalysisError, CircuitError, ConvergenceError
from repro.spice.dc import NewtonOptions, dc_sweep
from repro.spice.ensemble import ensemble_dc_sweep


@dataclass(frozen=True)
class VtcCurve:
    """Sampled voltage-transfer characteristic of an inverting cell."""

    vin: np.ndarray
    vout: np.ndarray
    #: Total static power drawn from the rails at each sweep point, watts.
    power: np.ndarray
    vdd: float

    def __len__(self) -> int:
        return len(self.vin)


@dataclass(frozen=True)
class VtcAnalysis:
    """DC parameters extracted from a VTC (paper Figures 6d, 7d).

    ``nmh``/``nml`` use the classical unity-gain-point criterion (these can
    be unequal, like the paper's 3.0 V / 3.5 V); ``nm_mec`` is Hauser's
    maximum-equal-criterion square, which is a single number because the
    butterfly of a VTC with its own mirror is symmetric across ``y = x``.
    """

    vm: float
    max_gain: float
    nmh: float
    nml: float
    nm_mec: float
    voh: float
    vol: float
    static_power_low: float    # input at 0 V
    static_power_high: float   # input at VDD
    vdd: float


def _vtc_testbench(cell: CellDesign, pin: str, tied_inputs: bool):
    """DC sweep testbench for one cell: swept source ``v_<pin>`` at 0 V."""
    vdd = cell.rails["vdd"]
    if pin not in cell.inputs:
        raise AnalysisError(f"cell {cell.name!r} has no input {pin!r}")

    if tied_inputs and len(cell.inputs) > 1:
        # All inputs share one node driven by the swept source — the
        # worst-case "all inputs switch together" curve.
        from repro.spice.elements import VoltageSource
        from repro.spice.netlist import Circuit

        ckt = Circuit(f"tb_{cell.name}")
        node_map = {p: "in" for p in cell.inputs}
        node_map["out"] = "out"
        for rail, volts in cell.rails.items():
            if volts == 0.0:
                node_map[rail] = "0"
            else:
                node_map[rail] = rail
                ckt.add(VoltageSource(f"v_{rail}", rail, "0", volts))
        ckt.add(VoltageSource(f"v_{pin}", "in", "0", 0.0))
        cell.instantiate(ckt, node_map)
    else:
        # Swept pin at 0; any other inputs held at VDD (non-controlling
        # for NAND) so the output still responds to the swept pin.
        initial = {p: vdd for p in cell.inputs}
        initial[pin] = 0.0
        ckt = build_dc_testbench(cell, initial)
    return ckt


def compute_vtc(cell: CellDesign, n_points: int = 101,
                input_pin: str | None = None,
                tied_inputs: bool = True,
                options: NewtonOptions | None = None) -> VtcCurve:
    """Sweep the cell input 0..VDD and record output and rail power.

    For multi-input gates the swept pin is *input_pin* (default: first
    input); remaining inputs are tied to the same sweep source when
    ``tied_inputs`` (the worst-case "all inputs switch" curve) or held at
    VDD otherwise.
    """
    vdd = cell.rails["vdd"]
    pin = input_pin or cell.inputs[0]
    options = options or NewtonOptions(max_step_v=max(1.0, vdd / 4.0))
    ckt = _vtc_testbench(cell, pin, tied_inputs)

    sweep_values = np.linspace(0.0, vdd, n_points)
    result = dc_sweep(ckt, f"v_{pin}", sweep_values, options=options)

    vout = result.voltage("out")
    power = np.zeros(n_points)
    for rail, volts in cell.rails.items():
        if volts == 0.0:
            continue
        # Branch current flows into the source's + terminal; power
        # delivered to the circuit is -V * I.
        power -= volts * result.source_current(f"v_{rail}")
    return VtcCurve(vin=sweep_values, vout=vout, power=power, vdd=vdd)


def compute_vtc_batch(cells: list[CellDesign], n_points: int = 101,
                      input_pin: str | None = None,
                      tied_inputs: bool = True,
                      options: NewtonOptions | None = None
                      ) -> list[VtcCurve | None]:
    """VTCs of structurally identical cells as one stacked DC sweep.

    All members advance through the 0..VDD continuation in lockstep
    (Monte-Carlo instances of one topology differ only in device
    parameters, so their Jacobians stack).  Members the batched solver and
    its per-point scalar retry both fail to converge come back as ``None``
    — the same instances the scalar path would abandon with
    :class:`~repro.errors.ConvergenceError`.  A structural mismatch (or an
    ensemble-level failure) falls back to per-cell scalar sweeps.
    """
    if not cells:
        return []
    first = cells[0]
    vdd = first.rails["vdd"]
    pin = input_pin or first.inputs[0]
    options = options or NewtonOptions(max_step_v=max(1.0, vdd / 4.0))

    def scalar_all() -> list[VtcCurve | None]:
        out: list[VtcCurve | None] = []
        for cell in cells:
            try:
                out.append(compute_vtc(cell, n_points=n_points,
                                       input_pin=input_pin,
                                       tied_inputs=tied_inputs,
                                       options=options))
            except ConvergenceError:
                out.append(None)
        return out

    # Members may differ in rail *values* (e.g. a VSS trim sweep) but the
    # sweep range and which rails are tied to ground must agree.
    nonzero = [r for r, v in first.rails.items() if v != 0.0]
    if not runtime.ENSEMBLE or any(
            c.inputs != first.inputs
            or c.rails.get("vdd") != vdd
            or [r for r, v in c.rails.items() if v != 0.0] != nonzero
            for c in cells[1:]):
        return scalar_all()
    try:
        ckts = [_vtc_testbench(c, pin, tied_inputs) for c in cells]
        solutions, ok, es = ensemble_dc_sweep(
            ckts, f"v_{pin}", np.linspace(0.0, vdd, n_points),
            options=options)
    except (CircuitError, ConvergenceError):
        return scalar_all()

    sweep_values = np.linspace(0.0, vdd, n_points)
    out_slot = es.node_slot("out")
    branches = {rail: es.members[0].branch_index[f"v_{rail}"]
                for rail in nonzero}
    curves: list[VtcCurve | None] = []
    for m, cell in enumerate(cells):
        if not ok[m]:
            curves.append(None)
            continue
        power = np.zeros(n_points)
        for rail in nonzero:
            power -= cell.rails[rail] * solutions[:, m, branches[rail]]
        curves.append(VtcCurve(vin=sweep_values,
                               vout=solutions[:, m, out_slot].copy(),
                               power=power, vdd=vdd))
    return curves


def switching_threshold(curve: VtcCurve) -> float:
    """VM: the mirrored-VTC intersection, i.e. where ``vout == vin``."""
    diff = curve.vout - curve.vin
    sign_change = np.where(np.diff(np.sign(diff)) != 0)[0]
    if len(sign_change) == 0:
        raise AnalysisError("VTC never crosses vout = vin; not an inverter?")
    i = int(sign_change[0])
    frac = diff[i] / (diff[i] - diff[i + 1])
    return float(curve.vin[i] + frac * (curve.vin[i + 1] - curve.vin[i]))


def max_gain(curve: VtcCurve) -> float:
    """Largest |dVout/dVin| along the curve."""
    slope = np.gradient(curve.vout, curve.vin)
    return float(np.max(np.abs(slope)))


def _monotone_decreasing(vout: np.ndarray) -> np.ndarray:
    """Clamp tiny solver non-monotonicity so the curve is invertible."""
    return np.minimum.accumulate(vout)


def _mec_square(vin: np.ndarray, vout: np.ndarray, vm: float) -> float:
    """Side of the largest square in the upper-left butterfly eye.

    The square's lower-left corner lies on the mirrored curve ``x = f(y)``
    and its upper-right corner on the VTC ``y = f(x)``; for an anchor
    ``ya`` the side solves  ``ya + s = f(f(ya) + s)``.
    """
    f = _monotone_decreasing(vout)

    def feval(x: float) -> float:
        return float(np.interp(x, vin, f))

    v_hi = float(f[0])
    best = 0.0
    for ya in np.linspace(vm, v_hi, 60):
        xa = feval(ya)
        # g(s) decreasing in s; g(0) >= 0 inside the eye.
        def gap(s: float) -> float:
            return feval(xa + s) - (ya + s)
        if gap(0.0) <= 0.0:
            continue
        lo, hi = 0.0, v_hi - ya + 1e-9
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        best = max(best, lo)
    return best


def noise_margin_mec(curve: VtcCurve) -> float:
    """Hauser's maximum-equal-criterion noise margin.

    The butterfly formed by the VTC and its mirror across ``y = x`` is
    symmetric under that reflection, which maps the upper-left eye onto the
    lower-right one — so the two maximal inscribed squares are congruent
    and MEC yields a single *equal* margin (hence the criterion's name).
    """
    vm = switching_threshold(curve)
    return _mec_square(curve.vin, curve.vout, vm)


def noise_margins_unity_gain(curve: VtcCurve) -> tuple[float, float]:
    """(NMH, NML) by the classical unity-gain-point criterion.

    Provided for comparison with MEC: NMH = VOH - VIH, NML = VIL - VOL.
    """
    slope = np.gradient(curve.vout, curve.vin)
    steep = np.where(slope <= -1.0)[0]
    if len(steep) == 0:
        return 0.0, 0.0
    vil = float(curve.vin[steep[0]])
    vih = float(curve.vin[steep[-1]])
    voh = float(curve.vout[0])
    vol = float(curve.vout[-1])
    return max(0.0, voh - vih), max(0.0, vil - vol)


def analyze_inverter(cell: CellDesign, n_points: int = 151,
                     options: NewtonOptions | None = None) -> VtcAnalysis:
    """Full Section 4.3.1 DC analysis of an inverting cell."""
    curve = compute_vtc(cell, n_points=n_points, options=options)
    vm = switching_threshold(curve)
    gain = max_gain(curve)
    nmh, nml = noise_margins_unity_gain(curve)
    nm_mec = noise_margin_mec(curve)
    return VtcAnalysis(
        vm=vm,
        max_gain=gain,
        nmh=nmh,
        nml=nml,
        nm_mec=nm_mec,
        voh=float(curve.vout[0]),
        vol=float(curve.vout[-1]),
        static_power_low=float(curve.power[0]),
        static_power_high=float(curve.power[-1]),
        vdd=curve.vdd,
    )
