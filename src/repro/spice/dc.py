"""DC operating-point and sweep analyses.

The solver is a damped Newton-Raphson on the MNA residual with two
fallback continuation strategies (mirroring what production SPICE engines
do):

1. **gmin stepping** — a conductance from every node to ground is ramped
   down from a large value to (effectively) zero, dragging the solution
   from a trivially solvable system to the true one.
2. **source stepping** — all independent sources are ramped from 0 to
   their nominal values.

These make the ratioed unipolar organic gates (which have very flat
I-V regions) solve reliably from a cold start.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from repro.errors import ConvergenceError
from repro.runtime import telemetry
from repro.spice.backends import get_backend
from repro.spice.mna import MnaSystem, StampCache
from repro.spice.netlist import Circuit


@dataclass(frozen=True)
class NewtonOptions:
    """Newton-Raphson solver tuning knobs.

    ``max_step_v`` damps the update: no unknown moves more than this many
    volts per iteration, which keeps exponential subthreshold models from
    overflowing.  Scale it with the circuit's supply voltage (the organic
    cells run at 5-15 V, silicon at ~1 V).

    ``gmin_steps`` must end at ``0.0``: the gmin fallback returns the
    solution of its last step, which is the true circuit only there.
    """

    max_iterations: int = 150
    abstol_v: float = 1e-6
    abstol_i: float = 1e-9
    max_step_v: float = 2.0
    gmin_steps: tuple[float, ...] = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 0.0)
    source_steps: int = 10

    def __post_init__(self) -> None:
        if not self.gmin_steps or self.gmin_steps[-1] != 0.0:
            raise ValueError("gmin_steps must be non-empty and end at 0.0")


def _worst_residual_node(sys: MnaSystem, F: np.ndarray | None) -> str | None:
    """Name of the node with the largest residual magnitude, if known."""
    if F is None or sys.n_nodes == 0:
        return None
    return sys.node_names[int(np.argmax(np.abs(F[:sys.n_nodes])))]


def _newton(sys: MnaSystem, G_lin: np.ndarray, b: np.ndarray,
            x0: np.ndarray, options: NewtonOptions,
            gmin: float = 0.0,
            cache: StampCache | None = None) -> np.ndarray:
    """Damped Newton iteration; raises ConvergenceError on failure.

    With a :class:`~repro.spice.mna.StampCache` whose freeze flag is set
    (transient stamp bypass), assembly reuses the cached nonlinear
    stamps; a fresh converged solve writes the cache back.
    """
    x = x0.copy()
    backend = get_backend()
    n_nodes = sys.n_nodes
    last_residual = np.inf
    F = None
    diag = np.arange(n_nodes)
    frozen = cache is not None and cache.frozen
    track = cache is not None and not cache.frozen and gmin == 0.0
    for iteration in range(options.max_iterations):
        if frozen:
            F, J = sys.residual_and_jacobian_frozen(x, G_lin, b, cache)
        else:
            F, J = sys.residual_and_jacobian(x, G_lin, b)
        if gmin > 0.0:
            J[diag, diag] += gmin
            F[:n_nodes] += gmin * x[:n_nodes]
        if telemetry.ENABLED:
            t_solve = perf_counter()
        delta, solve_ok = backend.solve(J, F)
        if telemetry.ENABLED:
            telemetry.time_add("solver.solve", perf_counter() - t_solve)
        if not solve_ok:
            if telemetry.ENABLED:
                _flush_newton(iteration, converged=False)
            raise ConvergenceError(
                f"singular Jacobian in circuit {sys.circuit.name!r}",
                iterations=iteration,
            ).add_event("newton", iterations=iteration,
                        reason="singular_jacobian",
                        node=_worst_residual_node(sys, F))
        # Damp the step so exponential device models stay in range.
        max_delta = float(np.max(np.abs(delta))) if delta.size else 0.0
        if max_delta > options.max_step_v:
            delta *= options.max_step_v / max_delta
        last_residual = float(np.max(np.abs(F[:n_nodes]))) if n_nodes else 0.0
        done = (max_delta < options.abstol_v
                and last_residual < options.abstol_i)
        if done and track:
            # Capture the stamps evaluated at the pre-update state.
            cache.update(J - G_lin, F - (G_lin @ x - b), x)
        x += delta
        if done:
            if telemetry.ENABLED:
                _flush_newton(iteration + 1, converged=True)
            return x
    if telemetry.ENABLED:
        _flush_newton(options.max_iterations, converged=False)
    raise ConvergenceError(
        f"Newton failed to converge in circuit {sys.circuit.name!r} "
        f"after {options.max_iterations} iterations",
        iterations=options.max_iterations,
        residual=last_residual,
    ).add_event("newton", iterations=options.max_iterations,
                residual=last_residual,
                node=_worst_residual_node(sys, F))


def _flush_newton(iterations: int, converged: bool) -> None:
    """One guarded registry update per Newton call (never per iteration)."""
    telemetry.count("spice.newton_solves")
    telemetry.count("spice.newton_iterations", iterations)
    if not converged:
        telemetry.count("spice.newton_failures")


def solve_operating_point(sys: MnaSystem, x0: np.ndarray | None = None,
                          options: NewtonOptions | None = None) -> np.ndarray:
    """DC operating point of a bound system, with continuation fallbacks."""
    options = options or NewtonOptions()
    G_lin = sys.linear_jacobian(dt=None)
    b = sys.rhs(t=0.0)
    x = np.zeros(sys.size) if x0 is None else x0.copy()

    # The event trail of everything tried before the current attempt: each
    # failed stage contributes its entries, so the error finally raised
    # tells the whole continuation story.
    trail: list[dict] = []

    try:
        return _newton(sys, G_lin, b, x, options)
    except ConvergenceError as exc:
        trail.extend(exc.events)

    # Fallback 1: gmin stepping.
    if telemetry.ENABLED:
        telemetry.count("spice.gmin_fallbacks")
    gmin = options.gmin_steps[0]
    try:
        xg = x.copy()
        for gmin in options.gmin_steps:
            xg = _newton(sys, G_lin, b, xg, options, gmin=gmin)
        return xg
    except ConvergenceError as exc:
        trail.append({"stage": "gmin", "last_gmin": gmin})
        trail.extend(exc.events)

    # Fallback 2: source stepping (DC rhs is purely source-driven).
    if telemetry.ENABLED:
        telemetry.count("spice.source_step_fallbacks")
    xs = np.zeros(sys.size)
    relaxed = replace(options, max_iterations=options.max_iterations * 2)
    alpha = 0.0
    try:
        for alpha in np.linspace(1.0 / options.source_steps, 1.0,
                                 options.source_steps):
            xs = _newton(sys, G_lin, alpha * b, xs, relaxed)
    except ConvergenceError as exc:
        trail.append({"stage": "source", "last_alpha": float(alpha)})
        trail.extend(exc.events)
        exc.events = trail
        raise
    return xs


def operating_point(circuit: Circuit, x0: np.ndarray | None = None,
                    options: NewtonOptions | None = None
                    ) -> tuple[np.ndarray, MnaSystem]:
    """Solve the DC operating point of *circuit*.

    Returns the solution vector and the bound :class:`MnaSystem` (use
    ``sys.voltage(x, node)`` / ``sys.source_current(x, name)`` to read it).
    """
    sys = MnaSystem(circuit)
    x = solve_operating_point(sys, x0=x0, options=options)
    return x, sys


class SweepResult:
    """Result of a DC sweep: one solved operating point per sweep value."""

    def __init__(self, sys: MnaSystem, values: np.ndarray,
                 solutions: np.ndarray) -> None:
        self.sys = sys
        self.values = values
        self.solutions = solutions

    def voltage(self, node: str) -> np.ndarray:
        """Array of node voltages across the sweep."""
        if node in ("0", "gnd", "GND", "ground"):
            return np.zeros(len(self.values))
        idx = self.sys.node_index[node]
        return self.solutions[:, idx].copy()

    def source_current(self, source_name: str) -> np.ndarray:
        """Array of branch currents through a voltage source."""
        idx = self.sys.branch_index[source_name]
        return self.solutions[:, idx].copy()

    def __len__(self) -> int:
        return len(self.values)


def dc_sweep(circuit: Circuit, source_name: str, values: np.ndarray | list[float],
             options: NewtonOptions | None = None) -> SweepResult:
    """Sweep the value of a voltage/current source and solve each point.

    Uses the previous point's solution as the next initial guess
    (continuation), which is what makes the flat regions of ratioed organic
    VTCs tractable.
    """
    values = np.asarray(values, dtype=float)
    sys = MnaSystem(circuit)
    source = circuit.element(source_name)
    if not hasattr(source, "value"):
        raise ConvergenceError(f"element {source_name!r} is not a source")

    solutions = np.empty((len(values), sys.size))
    x_prev: np.ndarray | None = None
    original = source.value
    try:
        for i, value in enumerate(values):
            source.value = float(value)
            x_prev = solve_operating_point(sys, x0=x_prev, options=options)
            solutions[i] = x_prev
    finally:
        source.value = original
    return SweepResult(sys, values, solutions)
