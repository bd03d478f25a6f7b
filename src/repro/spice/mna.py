"""Modified-nodal-analysis system assembly.

:class:`MnaSystem` binds a :class:`~repro.spice.netlist.Circuit` to a
concrete unknown ordering (node voltages, then branch currents of voltage
sources), precomputes the constant linear Jacobian, and provides the
per-iteration residual/Jacobian assembly used by the DC and transient
solvers.

Splitting constant stamps (resistors, source incidence) from per-iteration
stamps (transistors) keeps the Newton inner loop cheap: only nonlinear
elements are re-stamped each iteration.

The capacitance matrix ``C`` (all ``stamp_dynamic`` contributions) is
cached once per system, so the transient Jacobian is ``G_static + C/dt``
and the storage-history right-hand side is ``(C @ x_prev)/dt`` — no
per-element Python loop in either.

Every nonlinear element stamps itself through
:meth:`~repro.spice.elements.Element.stamp_nonlinear`.  This scalar engine
is the oracle and the fallback, and takes any device model and any
callable source; circuits simulated in bulk go through
:class:`repro.spice.ensemble.EnsembleSystem`, which evaluates every FET of
a whole batch of circuits in one array-valued device-kernel call and
accepts only ``UnifiedTft`` FETs and constant or ramp sources.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import CircuitError
from repro.runtime import telemetry
from repro.spice.elements import Element
from repro.spice.netlist import Circuit

def bypass_eta(newton_options) -> float:
    """Stamp-bypass freeze threshold in volts: the Newton ``abstol_v``.

    Stamps stay frozen while no nonlinear device terminal moved beyond
    the voltage tolerance between accepted steps — the solver cannot
    distinguish such states anyway.
    """
    return newton_options.abstol_v


class StampCache:
    """Accepted-state nonlinear stamps, reused while the state is frozen.

    The transient engines re-evaluate and re-stamp every nonlinear
    device each Newton iteration even when the circuit is sitting in a
    settled region and no device terminal has moved measurably between
    accepted steps.  This cache holds the nonlinear-only Jacobian and
    residual contributions (``J - G_lin``, ``F - (G_lin x - b)``)
    captured at the last converged, freshly-stamped solve; while the
    accepted state stays within ``eta`` volts of the captured state on
    every nonlinear terminal (:meth:`refresh`), assembly degenerates to
    two dense adds.  All engines (scalar, NumPy ensemble, native kernel)
    apply the identical rule so backend equivalence is preserved.
    """

    __slots__ = ("eta", "slots", "valid", "frozen", "x_stamp", "J_nl",
                 "F_nl", "hits", "misses")

    def __init__(self, eta: float, slots: np.ndarray, size: int) -> None:
        self.eta = eta
        self.slots = slots
        self.valid = False
        self.frozen = False
        self.x_stamp = np.zeros(size)
        self.J_nl = np.zeros((size, size))
        self.F_nl = np.zeros(size)
        self.hits = 0
        self.misses = 0

    def refresh(self, x_accepted: np.ndarray) -> None:
        """Recompute the freeze flag against the accepted state."""
        self.frozen = self.valid and float(np.max(np.abs(
            x_accepted[self.slots] - self.x_stamp[self.slots]))) <= self.eta
        if self.frozen:
            self.hits += 1
        else:
            self.misses += 1

    def update(self, J_nl: np.ndarray, F_nl: np.ndarray,
               x: np.ndarray) -> None:
        """Capture stamps evaluated at (pre-update) state *x*."""
        self.J_nl[...] = J_nl
        self.F_nl[...] = F_nl
        self.x_stamp[...] = x
        self.valid = True


def bind(circuit: Circuit) -> tuple[list[str], dict[str, int],
                                    dict[str, int], int]:
    """Bind *circuit*'s elements to the solver ordering, in place.

    Unknowns are the sorted node voltages, then one branch current per
    voltage source in element order.  Returns ``(node_names,
    node_index, branch_index, size)``.
    """
    if len(circuit) == 0:
        raise CircuitError(f"circuit {circuit.name!r} has no elements")
    node_names = sorted(circuit.nodes)
    if not node_names:
        raise CircuitError(f"circuit {circuit.name!r} has no non-ground nodes")
    node_index = {name: i for i, name in enumerate(node_names)}
    branch = len(node_names)
    branch_index: dict[str, int] = {}
    for element in circuit.elements:
        element.bind(node_index, branch if element.n_branches else -1)
        if element.n_branches:
            branch_index[element.name] = branch
            branch += element.n_branches
    return node_names, node_index, branch_index, branch


class MnaSystem:
    """Bound MNA system for one circuit.

    Parameters
    ----------
    circuit:
        The netlist to bind.  The circuit must contain at least one element
        and at least one non-ground node.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        (self.node_names, self.node_index, self.branch_index,
         self.size) = bind(circuit)
        self.n_nodes = len(self.node_names)

        self._nonlinear = tuple(e for e in circuit.elements if e.is_nonlinear)

        # Constant Jacobian entries (resistors, source rows); FET channel
        # stamps are per-iteration, FET capacitances are dynamic.
        self._G_static = np.zeros((self.size, self.size))
        for element in circuit.elements:
            element.stamp_static(self._G_static)

        # Capacitance matrix: the transient Jacobian is G_static + C/dt
        # and the storage part of the rhs is (C @ x_prev)/dt.
        self._C_unit = np.zeros((self.size, self.size))
        for element in circuit.elements:
            element.stamp_dynamic(self._C_unit)

        # The sources: elements that never override stamp_rhs are
        # skipped outright.
        self._rhs_time = tuple(
            e for e in circuit.elements
            if type(e).stamp_rhs is not Element.stamp_rhs)

    @functools.cached_property
    def nl_slots(self) -> np.ndarray:
        """Solver indices any nonlinear element stamps (sorted, unique)."""
        return np.array(sorted({i for e in self._nonlinear for i in e._idx
                                if i >= 0}), dtype=np.intp)

    def make_stamp_cache(self, eta: float) -> StampCache | None:
        """A :class:`StampCache` for this system, or None when pointless
        (bypass disabled, or nothing nonlinear to cache)."""
        if eta <= 0.0 or not self._nonlinear:
            return None
        return StampCache(eta, self.nl_slots, self.size)

    # -- assembly -------------------------------------------------------------

    def linear_jacobian(self, dt: float | None = None) -> np.ndarray:
        """Constant Jacobian: static stamps plus storage companions for *dt*.

        With ``dt=None`` (DC analysis) capacitors are open circuits.
        """
        if dt is None:
            return self._G_static.copy()
        return self._G_static + self._C_unit / dt

    def rhs(self, t: float, x_prev: np.ndarray | None = None,
            dt: float | None = None) -> np.ndarray:
        """Right-hand side at time *t* (source values + storage history)."""
        b = np.zeros(self.size)
        for element in self._rhs_time:
            element.stamp_rhs(b, t)
        if x_prev is not None and dt is not None:
            b += self._C_unit @ x_prev / dt
        return b

    @telemetry.timed("solver.stamp")
    def residual_and_jacobian(self, x: np.ndarray, G_lin: np.ndarray,
                              b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full Newton residual ``F(x)`` and Jacobian ``J(x)``.

        ``F = G_lin @ x - b + F_nl(x)`` and ``J = G_lin + J_nl(x)``.
        """
        J = G_lin.copy()
        F = G_lin @ x - b
        for element in self._nonlinear:
            element.stamp_nonlinear(J, F, x)
        return F, J

    @telemetry.timed("solver.stamp")
    def residual_and_jacobian_frozen(
            self, x: np.ndarray, G_lin: np.ndarray, b: np.ndarray,
            cache: StampCache) -> tuple[np.ndarray, np.ndarray]:
        """Assembly from cached nonlinear stamps (stamp-bypassed step)."""
        J = G_lin + cache.J_nl
        F = G_lin @ x - b + cache.F_nl
        return F, J

    # -- solution access -------------------------------------------------------

    def voltage(self, x: np.ndarray, node: str) -> float:
        """Voltage of *node* in solution vector *x* (ground is 0 V)."""
        if node in self.node_index:
            return float(x[self.node_index[node]])
        if node in ("0", "gnd", "GND", "ground"):
            return 0.0
        raise CircuitError(f"unknown node {node!r}")

    def source_current(self, x: np.ndarray, source_name: str) -> float:
        """Branch current through voltage source *source_name* (pos -> neg)."""
        try:
            k = self.branch_index[source_name]
        except KeyError:
            raise CircuitError(
                f"{source_name!r} is not a voltage source in this circuit"
            ) from None
        return float(x[k])
