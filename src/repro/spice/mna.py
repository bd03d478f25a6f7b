"""Modified-nodal-analysis system assembly.

:class:`MnaSystem` binds a :class:`~repro.spice.netlist.Circuit` to a
concrete unknown ordering (node voltages, then branch currents of voltage
sources), precomputes the constant linear Jacobian, and provides the
per-iteration residual/Jacobian assembly used by the DC and transient
solvers.

Splitting constant stamps (resistors, source incidence) from per-iteration
stamps (transistors) keeps the Newton inner loop cheap: only nonlinear
elements are re-stamped each iteration.

Two structures are cached once per system rather than rebuilt per call:

- the unit capacitance matrix ``C`` (all ``stamp_dynamic`` contributions at
  ``dt = 1``), so the transient Jacobian is ``G_static + C/dt`` and the
  storage-history right-hand side is ``(C @ x_prev)/dt`` — no per-element
  Python loop in either;
- per-model FET index batches (drain/gate/source solver indices, widths,
  lengths, and the six Jacobian scatter positions in both drain/source
  orientations), so one Newton iteration evaluates *all* transistors of a
  circuit in a single array-valued ``ids_array`` call and two fancy-indexed
  scatters.

Because NumPy carries a fixed per-operation cost (~0.5 us), batched
stamping only pays off once a model's FET group is large enough — measured
crossover is around ten devices.  By default batches smaller than
:data:`VECTORIZE_MIN_FETS` use the scalar per-element path; the
``vectorized=`` argument of :class:`MnaSystem` forces either path (the
equivalence regression tests use it, or patch the constant).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.errors import CircuitError
from repro.runtime import telemetry
from repro.spice.elements import FET_GMIN, Element, Fet
from repro.spice.netlist import Circuit

#: Minimum FETs sharing one model before batched stamping beats the scalar
#: loop (NumPy fixed overhead amortises at roughly this size).
VECTORIZE_MIN_FETS = 10


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


class _FetBatch:
    """All FETs of one circuit that share a device model, as index arrays.

    The batch evaluates the model once for every device (vectorized) and
    scatters currents/conductances into an *extended* residual vector and
    flattened Jacobian: index ``n`` (one past the real unknowns) is a trash
    slot that absorbs ground contributions, mirroring the scalar stamps'
    ground-drop behaviour without branching.

    Drain/source swapping (symmetric devices) is handled arithmetically:
    the swapped-orientation scatter indices are precomputed as deltas from
    the normal orientation, so selecting an orientation per device is two
    integer ops instead of six ``np.where`` calls.
    """

    __slots__ = ("pol", "d", "g", "s", "_eval",
                 "_sd_delta", "_flat_normal", "_flat_delta")

    def __init__(self, model, fets: list[Fet], n: int) -> None:
        self.pol = float(model.polarity)

        def solver_index(i: int) -> int:
            return i if i >= 0 else n

        self.d = np.array([solver_index(f._idx[0]) for f in fets])
        self.g = np.array([solver_index(f._idx[1]) for f in fets])
        self.s = np.array([solver_index(f._idx[2]) for f in fets])
        w = np.array([f.w for f in fets])
        l = np.array([f.l for f in fets])
        if hasattr(model, "batch_evaluator"):
            self._eval = model.batch_evaluator(w, l)
        else:
            self._eval = lambda vgs, vds: model.ids_array(vgs, vds, w, l)

        # Jacobian scatter templates.  With effective drain a / source b,
        # the six entries are (a,a) (a,g) (a,b) (b,a) (b,g) (b,b); the
        # normal template has a=d, b=s, and the delta flips orientation.
        ext = n + 1
        d, g, s = self.d, self.g, self.s
        self._sd_delta = s - d
        rows_n = np.stack([d, d, d, s, s, s])
        cols_n = np.stack([d, g, s, d, g, s])
        self._flat_normal = rows_n * ext + cols_n
        rows_s = np.stack([s, s, s, d, d, d])
        cols_s = np.stack([s, g, d, s, g, d])
        self._flat_delta = rows_s * ext + cols_s - self._flat_normal

    def stamp(self, J_flat: np.ndarray, F_ext: np.ndarray,
              x_ext: np.ndarray) -> None:
        p = self.pol
        dv = x_ext[self.d] - x_ext[self.s]
        swapped = (dv < 0.0) if p > 0 else (dv > 0.0)
        shift = swapped * self._sd_delta
        a = self.d + shift
        b = self.s - shift
        vb = x_ext[b]
        vg = x_ext[self.g]
        # In the n-type frame vds is |vd - vs| by construction of the swap.
        vds_n = np.abs(dv)
        vgs_n = (vg - vb) if p > 0 else (vb - vg)
        if telemetry.ENABLED:
            t0 = perf_counter()
            ids, gm, gds = self._eval(vgs_n, vds_n)
            telemetry.time_add("solver.device_eval", perf_counter() - t0)
        else:
            ids, gm, gds = self._eval(vgs_n, vds_n)

        # Physical current leaving effective-drain node a is p * ids, and
        # va - vb = p * vds_n, so i_phys = p * (ids + GMIN * vds_n).
        i_phys = ids + FET_GMIN * vds_n
        if p < 0:
            i_phys = -i_phys
        np.add.at(F_ext, a, i_phys)
        np.add.at(F_ext, b, -i_phys)

        g_ds = gds + FET_GMIN
        gsum = gm + g_ds
        vals = np.concatenate([g_ds, gm, -gsum, -g_ds, -gm, gsum])
        flat = self._flat_normal + swapped * self._flat_delta
        np.add.at(J_flat, flat.ravel(), vals)


class MnaSystem:
    """Bound MNA system for one circuit.

    Parameters
    ----------
    circuit:
        The netlist to bind.  The circuit must contain at least one element
        and at least one non-ground node.
    vectorized:
        ``True`` forces batched FET stamping for every model group,
        ``False`` forces the scalar per-element path, and ``None`` (the
        default) batches only groups of at least :data:`VECTORIZE_MIN_FETS`
        devices.
    """

    def __init__(self, circuit: Circuit,
                 vectorized: bool | None = None) -> None:
        if len(circuit) == 0:
            raise CircuitError(f"circuit {circuit.name!r} has no elements")
        node_names = sorted(circuit.nodes)
        if not node_names:
            raise CircuitError(f"circuit {circuit.name!r} has no non-ground nodes")

        self.circuit = circuit
        self.node_names = node_names
        self.node_index = {name: i for i, name in enumerate(node_names)}
        self.n_nodes = len(node_names)

        branch = self.n_nodes
        self.branch_index: dict[str, int] = {}
        for element in circuit.elements:
            element.bind(self.node_index, branch if element.n_branches else -1)
            if element.n_branches:
                self.branch_index[element.name] = branch
                branch += element.n_branches
        self.size = branch

        self._nonlinear = tuple(e for e in circuit.elements if e.is_nonlinear)
        self._linear = tuple(e for e in circuit.elements if not e.is_nonlinear)

        # Constant Jacobian entries (resistors, source rows); FET channel
        # stamps are per-iteration, FET capacitances are dynamic.
        self._G_static = np.zeros((self.size, self.size))
        for element in circuit.elements:
            element.stamp_static(self._G_static)

        # Unit capacitance matrix: all storage companions at dt = 1, so
        # the transient Jacobian is G_static + C/dt and the storage part
        # of the rhs is (C @ x_prev)/dt.
        self._C_unit = np.zeros((self.size, self.size))
        for element in circuit.elements:
            element.stamp_dynamic(self._C_unit, 1.0)

        # Elements with a genuinely time-dependent rhs (sources).  Storage
        # elements flag themselves with ``rhs_is_storage``; their history
        # term is the C @ x_prev product above.  Elements that never
        # override stamp_rhs are skipped outright.
        self._rhs_time = tuple(
            e for e in circuit.elements
            if not e.rhs_is_storage
            and type(e).stamp_rhs is not Element.stamp_rhs)

        self._batches: list[_FetBatch] = []
        fallback = list(self._nonlinear)
        if vectorized is not False:
            min_fets = 1 if vectorized else VECTORIZE_MIN_FETS
            groups: dict[int, list[Fet]] = {}
            for e in self._nonlinear:
                if isinstance(e, Fet) and hasattr(e.model, "ids_array"):
                    groups.setdefault(id(e.model), []).append(e)
            for fets in groups.values():
                if len(fets) >= min_fets:
                    self._batches.append(_FetBatch(fets[0].model, fets,
                                                   self.size))
                    for f in fets:
                        fallback.remove(f)
        self._nl_fallback = tuple(fallback)

        if self._batches:
            ext = self.size + 1
            self._J_ext = np.zeros((ext, ext))
            self._F_ext = np.zeros(ext)
            self._x_ext = np.zeros(ext)

        self._nl_slots: np.ndarray | None | str = "unset"

    @property
    def nl_slots(self) -> np.ndarray:
        """Solver indices any nonlinear element stamps (sorted, unique).

        Elements whose terminal bindings cannot be introspected widen
        the set to every unknown — conservative, never wrong, for the
        stamp-bypass freeze test.
        """
        if isinstance(self._nl_slots, str):
            slots: set[int] = set()
            for e in self._nonlinear:
                idx = getattr(e, "_idx", None)
                if idx is None:
                    slots = set(range(self.size))
                    break
                slots.update(i for i in idx if i >= 0)
            self._nl_slots = np.array(sorted(slots), dtype=np.intp)
        return self._nl_slots

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
            element.stamp_rhs(b, t, x_prev, dt)
        if x_prev is not None and dt is not None:
            b += self._C_unit @ x_prev / dt
        return b

    def residual_and_jacobian(self, x: np.ndarray, G_lin: np.ndarray,
                              b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full Newton residual ``F(x)`` and Jacobian ``J(x)``.

        ``F = G_lin @ x - b + F_nl(x)`` and ``J = G_lin + J_nl(x)``.

        On the vectorized path the returned arrays are views into buffers
        owned by this system: they stay valid until the next call.
        """
        if telemetry.ENABLED:
            t0 = perf_counter()
            result = self._residual_and_jacobian(x, G_lin, b)
            telemetry.time_add("solver.stamp", perf_counter() - t0)
            return result
        return self._residual_and_jacobian(x, G_lin, b)

    def residual_and_jacobian_frozen(
            self, x: np.ndarray, G_lin: np.ndarray, b: np.ndarray,
            cache: StampCache) -> tuple[np.ndarray, np.ndarray]:
        """Assembly from cached nonlinear stamps (stamp-bypassed step)."""
        if telemetry.ENABLED:
            t0 = perf_counter()
        J = G_lin + cache.J_nl
        F = G_lin @ x - b + cache.F_nl
        if telemetry.ENABLED:
            telemetry.time_add("solver.stamp", perf_counter() - t0)
        return F, J

    def _residual_and_jacobian(self, x: np.ndarray, G_lin: np.ndarray,
                               b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if not self._batches:
            J = G_lin.copy()
            F = G_lin @ x - b
            for element in self._nl_fallback:
                element.stamp_nonlinear(J, F, x)
            return F, J

        n = self.size
        J_ext = self._J_ext
        J_ext[:n, :n] = G_lin
        J_ext[n, :] = 0.0
        J_ext[:n, n] = 0.0
        F_ext = self._F_ext
        np.dot(G_lin, x, out=F_ext[:n])
        F_ext[:n] -= b
        F_ext[n] = 0.0
        x_ext = self._x_ext
        x_ext[:n] = x

        J_flat = J_ext.reshape(-1)
        for batch in self._batches:
            batch.stamp(J_flat, F_ext, x_ext)

        F = F_ext[:n]
        J = J_ext[:n, :n]
        for element in self._nl_fallback:
            element.stamp_nonlinear(J, F, x)
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
