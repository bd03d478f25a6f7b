"""Batched ensemble DC/transient engine: many bindings, one stacked solve.

Characterisation and Monte-Carlo workloads integrate *the same circuit
topology* hundreds of times with different parameter bindings — source
slews, load capacitances, per-device W/L/VT perturbations.  Run as
independent scalar solves they pay Python loop overhead, per-circuit
stamping set-up, and NumPy's fixed per-op cost once per member per
Newton iteration.  This module runs a whole *ensemble* of such members
in lockstep instead:

- state is a stacked ``(B, S)`` array and the Jacobian a stacked
  ``(B, S, S)`` array, solved with one batched ``numpy.linalg.solve``;
- all members' transistors are evaluated by **one** array-valued device
  kernel per Newton iteration (heterogeneous per-member models included,
  via :class:`repro.devices.tft_level61.StackedTftParams`);
- every member keeps its **own** adaptive timestep, Newton damping
  schedule and stop time; a masked *active set* drops members out of the
  stacked solve as they converge, finish, or need a private retry at a
  smaller step, so a fast member can never perturb a slow one;
- delay/slew events are extracted online (threshold crossings between
  accepted states, linearly interpolated — the same arithmetic
  :class:`repro.spice.waveform.Waveform` applies to sampled data), so no
  full waveforms are materialised.

Per-member trajectories follow exactly the scalar controllers in
:mod:`repro.spice.transient` and :mod:`repro.spice.dc` (warm-start
prediction, LTE growth/rejection, dt halving, gmin/source-stepping DC
continuation), so results agree with scalar runs to solver tolerance;
the equivalence test suite pins this down.

The scalar engine is the oracle those tests compare against, never a
second production path: a member the batched chain cannot converge
raises :class:`~repro.errors.ConvergenceError` where it fails, and the
error's last event names the failing member (its ``member`` field) so
a caller can attach that member's context.
"""

from __future__ import annotations

import copy
import functools
from typing import Mapping, Sequence

import numpy as np

from repro.devices.tft_level61 import StackedTftParams, UnifiedTft
from repro.errors import CircuitError, ConvergenceError
from repro.runtime import telemetry
from repro.spice.backends import EnsembleNewtonRequest, get_backend
from repro.spice.dc import NewtonOptions
from repro.spice.elements import (
    FET_GMIN,
    Element,
    Fet,
    RampValue,
    VoltageSource,
)
from repro.spice.mna import bind, bypass_eta
from repro.spice.netlist import Circuit
from repro.spice.transient import TransientOptions

__all__ = ["EnsembleSystem", "EnsembleTransient", "Probe",
           "ensemble_dc_sweep", "ensemble_operating_point"]


class _StackedFetBatch:
    """All stackable FETs of all members, as flat index/parameter arrays.

    Each member's state is *extended* by one trash slot (index ``size``,
    one past the real unknowns) that absorbs ground contributions, so
    scatters need no branch.  Drain/source swapping is arithmetic: the
    swapped-orientation scatter indices are precomputed as deltas from
    the normal orientation.  The polarity is a per-device array (one
    batch covers n- and p-type and per-member model perturbations), and
    member offsets place each device's stamps into its member's slice of
    the flattened extended state/Jacobian.  ``gather`` re-narrows all
    arrays to an active member subset — the index arithmetic the masked
    active set runs on.

    Devices are member-major: every member has the template's devices
    in template order, so the index arrays are member 0's tiled B
    times.  *vary* holds, per device, the attributes (``model``, ``w``,
    ``l``) whose values differ member to member; when none do, the
    parameter arrays are computed once for one member and tiled too.
    """

    def __init__(self, fets: list[Fet], vary: list[dict[str, list]],
                 B: int, size: int) -> None:
        ext = size + 1
        self.ext = ext

        def loc(i: int) -> int:
            return i if i >= 0 else size

        n = len(fets)
        self.member_id = np.repeat(np.arange(B, dtype=np.intp), n)
        self.d_loc = np.tile(np.array([loc(f._idx[0]) for f in fets],
                                      dtype=np.intp), B)
        self.g_loc = np.tile(np.array([loc(f._idx[1]) for f in fets],
                                      dtype=np.intp), B)
        self.s_loc = np.tile(np.array([loc(f._idx[2]) for f in fets],
                                      dtype=np.intp), B)
        # One member's parameters when every member shares them (the
        # batch tiles them), else None.
        self.member_params: StackedTftParams | None = None
        if any(vary):
            flat = [_member_copy(f, v, b) if v else f
                    for b in range(B) for f, v in zip(fets, vary)]
            self.pol = np.array([float(f.model.polarity) for f in flat])
            self.params = StackedTftParams(
                [f.model for f in flat], np.array([f.w for f in flat]),
                np.array([f.l for f in flat]))
        else:
            tile = np.tile(np.arange(n), B)
            self.pol = np.array([float(f.model.polarity) for f in fets])[tile]
            self.member_params = StackedTftParams(
                [f.model for f in fets], np.array([f.w for f in fets]),
                np.array([f.l for f in fets]))
            self.params = self.member_params.subset(tile)

        d, g, s = self.d_loc, self.g_loc, self.s_loc
        self.sd_delta = s - d
        rows_n = np.stack([d, d, d, s, s, s])
        cols_n = np.stack([d, g, s, d, g, s])
        self.flat_normal = rows_n * ext + cols_n
        rows_s = np.stack([s, s, s, d, d, d])
        cols_s = np.stack([s, g, d, s, g, d])
        self.flat_delta = rows_s * ext + cols_s - self.flat_normal

    def gather(self, mem_idx: np.ndarray) -> "_GatheredFets | None":
        """Index/parameter arrays narrowed to the members in *mem_idx*."""
        if len(self.member_id) == 0:
            return None
        n_members = int(self.member_id.max(initial=-1)) + 1
        pos = np.full(n_members, -1, dtype=np.intp)
        pos[mem_idx] = np.arange(len(mem_idx))
        sel = pos[self.member_id] >= 0
        if not sel.any():
            return None
        lane = pos[self.member_id[sel]]
        vec_off = lane * self.ext
        jac_off = lane * (self.ext * self.ext)
        return _GatheredFets(
            d=self.d_loc[sel] + vec_off,
            g=self.g_loc[sel] + vec_off,
            s=self.s_loc[sel] + vec_off,
            pol=self.pol[sel],
            sd_delta=self.sd_delta[sel],
            flat_normal=self.flat_normal[:, sel] + jac_off,
            flat_delta=self.flat_delta[:, sel],
            params=self.params.subset(sel),
            lane=lane,
        )


class _GatheredFets:
    """A :class:`_StackedFetBatch` narrowed to one active member subset."""

    __slots__ = ("d", "g", "s", "pol", "sd_delta", "flat_normal",
                 "flat_delta", "params", "lane")

    def __init__(self, **arrays) -> None:
        for name, value in arrays.items():
            setattr(self, name, value)

    def subset(self, keep_lanes: np.ndarray) -> "_GatheredFets | None":
        """Devices of the lanes flagged in the boolean *keep_lanes* mask
        (stamp-bypassed lanes drop their devices from the evaluation)."""
        sel = keep_lanes[self.lane]
        if sel.all():
            return self
        if not sel.any():
            return None
        return _GatheredFets(
            d=self.d[sel], g=self.g[sel], s=self.s[sel],
            pol=self.pol[sel], sd_delta=self.sd_delta[sel],
            flat_normal=self.flat_normal[:, sel],
            flat_delta=self.flat_delta[:, sel],
            params=self.params.subset(sel),
            lane=self.lane[sel],
        )

    def stamp(self, J_flat: np.ndarray, F_flat: np.ndarray,
              x_flat: np.ndarray) -> None:
        dv = x_flat[self.d] - x_flat[self.s]
        swapped = (self.pol * dv) < 0.0
        shift = swapped * self.sd_delta
        a = self.d + shift
        b = self.s - shift
        vb = x_flat[b]
        vg = x_flat[self.g]
        vds_n = np.abs(dv)
        vgs_n = self.pol * (vg - vb)
        ids, gm, gds = self.params.evaluate(vgs_n, vds_n)

        i_phys = self.pol * (ids + FET_GMIN * vds_n)
        np.add.at(F_flat, a, i_phys)
        np.add.at(F_flat, b, -i_phys)

        g_ds = gds + FET_GMIN
        gsum = gm + g_ds
        vals = np.concatenate([g_ds, gm, -gsum, -g_ds, -gm, gsum])
        flat = self.flat_normal + swapped * self.flat_delta
        np.add.at(J_flat, flat.ravel(), vals)


#: The element attributes an ensemble may vary, by the stamp that reads
#: them.
_STATIC_READS = frozenset({"resistance"})
_DYNAMIC_READS = frozenset({"capacitance", "model", "w", "l"})
_RHS_READS = frozenset({"value"})


def _member_copy(element: Element, vary: dict[str, list], b: int
                 ) -> Element:
    """Member *b*'s copy of the bound *element*; a FET's capacitances
    follow its model and size."""
    twin = copy.copy(element)
    for attr, vals in vary.items():
        setattr(twin, attr, vals[b])
    if isinstance(twin, Fet):
        twin.cgs, twin.cgd, twin.cds = twin.model.capacitances(twin.w,
                                                                twin.l)
    return twin


def _stacked(element: Element, vary: dict[str, list]) -> Element:
    """A copy of *element* whose varying numeric attributes are length-B
    arrays, so one stamp call writes every member."""
    twin = copy.copy(element)
    for attr, vals in vary.items():
        if attr != "model" and not any(callable(v) for v in vals):
            setattr(twin, attr, np.asarray(vals, dtype=float))
    if isinstance(twin, Fet):
        members = [_member_copy(element, vary, b)
                   for b in range(len(next(iter(vary.values()))))]
        twin.cgs, twin.cgd, twin.cds = (
            np.array([getattr(m, name) for m in members])
            for name in ("cgs", "cgd", "cds"))
    return twin


def _unbatched(template: Circuit, element: Element, what: str
               ) -> CircuitError:
    return CircuitError(
        f"element {element.name!r} of {template.name!r} is {what}: the "
        f"ensemble does not batch it; simulate each member with the "
        f"scalar engine (operating_point, dc_sweep, transient)")


class EnsembleSystem:
    """A batch of B circuits of one topology, bound to one ordering.

    Built from **one** template :class:`Circuit` plus per-member values:
    *values* maps ``(element_name, attribute)`` to a length-B sequence —
    a source's ``value`` (a float or a :class:`RampValue`), a
    capacitor's ``capacitance``, a resistor's ``resistance``, a FET's
    ``model``, ``w`` or ``l``.  Anything not named keeps the template's
    value in every member.  Nodes and branches are bound once, on the
    template.

    The ensemble batches exactly what the characterisation flow builds,
    and nothing else:

    - every nonlinear element is a :class:`Fet` whose models are all
      :class:`~repro.devices.tft_level61.UnifiedTft`; they are stacked
      into one cross-member device batch;
    - every source value is a constant, or, for a voltage source, a
      :class:`RampValue` with ``duration > 0`` in every member,
      evaluated for all members as one array expression.

    Any other element (a Level-1 FET, a plain callable or zero-duration
    ramp, a time-varying current source) raises :class:`CircuitError`
    at construction; the scalar engine
    (:func:`~repro.spice.dc.operating_point`,
    :func:`~repro.spice.dc.dc_sweep`,
    :func:`~repro.spice.transient.transient`) takes any
    :class:`~repro.spice.elements.FetModel` and any callable source,
    and is the oracle.

    ``G_static``, ``C_unit`` and the constant rhs are stamped once, in
    the template's element order, by the elements' own stamp methods
    writing through a member-last view of the stacked ``(B, ...)``
    array: a shared value is a scalar added to every member, a varying
    one a length-B vector.  Every entry of every member therefore sees
    exactly the addition sequence that member's own
    :class:`~repro.spice.mna.MnaSystem` would perform, so the stacks are
    bit-identical to stacking per-member systems (the tests compare
    them byte for byte).
    """

    def __init__(self, template: Circuit,
                 values: Mapping[tuple[str, str], Sequence] | None = None,
                 n_members: int | None = None) -> None:
        values = {key: list(v) for key, v in (values or {}).items()}
        sizes = {len(v) for v in values.values()}
        if n_members is not None:
            sizes.add(n_members)
        if len(sizes) > 1:
            raise CircuitError(
                f"ensemble values disagree on the member count: "
                f"{sorted(sizes)}")
        self.B = B = sizes.pop() if sizes else 1
        if B < 1:
            raise CircuitError("ensemble needs at least one member")
        self.template = template
        (self.node_names, self.node_index, self.branch_index,
         self.size) = bind(template)
        self.n_nodes = len(self.node_names)
        S = self.size

        self._vary: dict[str, dict[str, list]] = {}
        for (name, attr), vals in values.items():
            if (attr not in _STATIC_READS | _DYNAMIC_READS | _RHS_READS
                    or not template.has_element(name)
                    or not hasattr(template.element(name), attr)):
                raise CircuitError(
                    f"ensemble value {name}.{attr} names no attribute of "
                    f"an element of {template.name!r}")
            self._vary.setdefault(name, {})[attr] = vals
        elements = template.elements

        # FETs go to the device batch, constant sources to one stack,
        # ramps to per-member planes; anything else is rejected (see the
        # class doc).
        fets: list[Fet] = []
        const: list[Element] = []
        self._ramps: list[tuple[int, np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]] = []
        for e in elements:
            vary = self._vary.get(e.name, {})
            if e.is_nonlinear:
                if not (isinstance(e, Fet) and all(
                        isinstance(m, UnifiedTft)
                        for m in vary.get("model", [e.model]))):
                    raise _unbatched(template, e, "a nonlinear element "
                                     "other than a FET on UnifiedTft models")
                fets.append(e)
            if type(e).stamp_rhs is Element.stamp_rhs:
                continue
            vals = vary.get("value", [e.value] * B)
            if not any(callable(v) for v in vals):
                const.append(e)
            elif (isinstance(e, VoltageSource)
                  and all(isinstance(v, RampValue) and v.duration > 0.0
                          for v in vals)):
                self._ramps.append((
                    e._branch,
                    np.array([v.v0 for v in vals]),
                    np.array([v.v1 - v.v0 for v in vals]),
                    np.array([v.t_start for v in vals]),
                    np.array([1.0 / v.duration for v in vals]),
                ))
            else:
                raise _unbatched(template, e, "a time-varying source that "
                                 "is not a RampValue with duration > 0 in "
                                 "every member")

        twins = {e.name: _stacked(e, self._vary[e.name])
                 for e in elements if e.name in self._vary}

        def stack(elements, stamp, reads, shape) -> np.ndarray:
            # One shared array until the first element whose stamp
            # reads a varying value, then stacked; see the class doc.
            acc = np.zeros(shape)
            view = acc
            for e in elements:
                if reads & self._vary.get(e.name, {}).keys():
                    if view is acc:
                        acc = np.repeat(acc[None], B, axis=0)
                        view = np.moveaxis(acc, 0, -1)
                    e = twins[e.name]
                stamp(e, view)
            return acc if acc.ndim > len(shape) \
                else np.repeat(acc[None], B, axis=0)

        self.G_static = stack(elements,
                              lambda e, G: e.stamp_static(G),
                              _STATIC_READS, (S, S))
        self.C_unit = stack(elements,
                            lambda e, C: e.stamp_dynamic(C),
                            _DYNAMIC_READS, (S, S))
        self._b_const = stack(const, lambda e, b: e.stamp_rhs(b, 0.0),
                              _RHS_READS, (S,))
        self.fet_batch = _StackedFetBatch(
            fets, [self._vary.get(f.name, {}) for f in fets], B, S)

        # Active-set compositions repeat for long stretches of a run (they
        # only change when members finish or retry), so gathered FET
        # subsets are memoised by member-index signature.
        self._gather_cache: dict[bytes, _GatheredFets | None] = {}

    @functools.cached_property
    def nl_slots(self) -> np.ndarray:
        """Solver slots any FET of any member stamps (sorted, unique)."""
        batch = self.fet_batch
        locs = np.concatenate([batch.d_loc, batch.g_loc, batch.s_loc])
        return np.unique(locs[locs < self.size])

    def gather_cached(self, mem_idx: np.ndarray) -> "_GatheredFets | None":
        key = mem_idx.tobytes()
        try:
            return self._gather_cache[key]
        except KeyError:
            gathered = self.fet_batch.gather(mem_idx)
            self._gather_cache[key] = gathered
            return gathered

    # -- right-hand sides ---------------------------------------------------

    @telemetry.timed("solver.rhs")
    def rhs_batch(self, mem_idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Stacked source right-hand sides at per-member times ``t``.

        Constant sources come from the precomputed stack and ramps are
        evaluated vectorised across members.  The storage history is
        not a source: :meth:`newton_batch` adds it with *add_storage*.
        """
        b = self._b_const[mem_idx].copy()
        for row, v0, dv, t_start, inv_dur in self._ramps:
            frac = np.clip((t - t_start[mem_idx]) * inv_dur[mem_idx],
                           0.0, 1.0)
            b[:, row] += v0[mem_idx] + dv[mem_idx] * frac
        return b

    # -- stacked Newton ------------------------------------------------------

    @telemetry.timed("solver.stamp")
    def assemble(self, mem_idx: np.ndarray, gathered: "_GatheredFets | None",
                 G_lin: np.ndarray, b: np.ndarray, x: np.ndarray,
                 frozen: np.ndarray | None = None,
                 bypass: "_EnsembleBypass | None" = None
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked residual ``F(x)`` and Jacobian ``J(x)`` for a subset.

        *gathered* must already exclude the devices of lanes flagged in
        the boolean *frozen* mask — those lanes get their nonlinear
        stamps from the *bypass* cache instead of device evaluation.
        """
        A = len(mem_idx)
        S = self.size
        ext = S + 1
        J_ext = np.zeros((A, ext, ext))
        J_ext[:, :S, :S] = G_lin
        F_ext = np.zeros((A, ext))
        F_ext[:, :S] = np.einsum("aij,aj->ai", G_lin, x) - b
        x_ext = np.zeros((A, ext))
        x_ext[:, :S] = x
        if gathered is not None:
            gathered.stamp(J_ext.reshape(-1), F_ext.reshape(-1),
                           x_ext.reshape(-1))
        if frozen is not None and frozen.any():
            mf = mem_idx[frozen]
            J_ext[frozen, :S, :S] += bypass.J_nl[mf]
            F_ext[frozen, :S] += bypass.F_nl[mf]
        return F_ext[:, :S], J_ext[:, :S, :S]

    @telemetry.timed("solver.solve")
    def newton_batch(self, mem_idx: np.ndarray, G_lin: np.ndarray | None,
                     b: np.ndarray, x0: np.ndarray,
                     options: NewtonOptions,
                     max_step_v: np.ndarray | None = None,
                     max_iterations: np.ndarray | None = None,
                     gmin: float = 0.0,
                     gathered: "_GatheredFets | None" = None,
                     inv_dt: np.ndarray | None = None,
                     x_prev: np.ndarray | None = None,
                     add_storage: bool = False,
                     bypass: "_EnsembleBypass | None" = None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Damped Newton on a member subset; returns ``(x, converged)``.

        Per-lane damping and iteration budgets follow the scalar
        :func:`repro.spice.dc._newton` exactly; a lane that converges is
        frozen (its state no longer updated) while the remaining lanes
        keep iterating, and a lane whose Jacobian goes singular or whose
        iteration budget runs out is reported unconverged rather than
        aborting the batch.

        The whole solve is first offered to the process backend's
        :meth:`~repro.spice.backends.numpy_ref.NumpyBackend.ensemble_newton`
        hook (the compiled kernel); ``G_lin=None`` with *inv_dt* set is
        the transient fast path where the backend composes
        ``G_static + C_unit/dt`` itself and (with *add_storage*) adds
        the storage history to *b* — Python never materialises either.
        Backends that decline fall through to the reference loop here.
        """
        A = len(mem_idx)
        backend = get_backend()
        if max_step_v is None:
            max_step_v = np.full(A, options.max_step_v)
        if max_iterations is None:
            max_iterations = np.full(A, options.max_iterations,
                                     dtype=np.int64)
        x = x0.copy()

        request = EnsembleNewtonRequest(
            self, mem_idx, G_lin, inv_dt, b, x, x_prev, add_storage,
            options, max_step_v, max_iterations,
            gmin, bypass if gmin == 0.0 else None)
        result = backend.ensemble_newton(request)
        if result is not None:
            x, converged, iteration = result
            self._flush_newton_batch(A, iteration, converged)
            return x, converged

        # Reference loop.  A declined transient fast path first needs
        # the arrays the backend would have composed internally.
        if G_lin is None:
            G_lin = self.G_static[mem_idx] \
                + self.C_unit[mem_idx] * inv_dt[:, None, None]
            if add_storage:
                b = b + np.einsum("aij,aj->ai", self.C_unit[mem_idx],
                                  x_prev) * inv_dt[:, None]
        if gathered is None:
            gathered = self.gather_cached(mem_idx)

        frozen = None
        if bypass is not None and x_prev is not None and gmin == 0.0:
            frozen = bypass.frozen_lanes(mem_idx, x_prev)
            if frozen.any():
                if gathered is not None:
                    gathered = gathered.subset(~frozen)
            else:
                frozen = None
        track = bypass is not None and gmin == 0.0

        # A fully-frozen batch (every lane reuses its cached stamps)
        # iterates against an iteration-invariant Jacobian: assemble it
        # once and rebuild only the cheap residual afterwards.  The
        # residual arithmetic is the exact op sequence of
        # :meth:`assemble`, so results stay bitwise identical to the
        # plain loop.
        frozen_all = frozen is not None and bool(frozen.all())
        J_frozen = None

        n = self.n_nodes
        diag = np.arange(n)
        active = np.ones(A, dtype=bool)
        converged = np.zeros(A, dtype=bool)
        iteration = 0
        lane_iters = 0
        budget = int(max_iterations.max())
        while active.any() and iteration < budget:
            if J_frozen is None:
                F, J = self.assemble(mem_idx, gathered, G_lin, b, x,
                                     frozen=frozen, bypass=bypass)
                if frozen_all:
                    J_frozen = J
            else:
                J = J_frozen
                F = np.einsum("aij,aj->ai", G_lin, x) - b
                F += bypass.F_nl[mem_idx]
            if gmin > 0.0:
                J[:, diag, diag] += gmin
                F[:, :n] += gmin * x[:, :n]
            act_idx = np.flatnonzero(active)
            delta, solve_ok = backend.solve_stacked(J[act_idx], F[act_idx])
            if not solve_ok.all():
                # Singular lanes are deactivated (reported unconverged
                # to the caller's continuation chain), never fatal.
                active[act_idx[~solve_ok]] = False
                act_idx = act_idx[solve_ok]
                delta = delta[solve_ok]
            if len(act_idx) == 0:
                break
            max_delta = np.max(np.abs(delta), axis=1) if delta.size \
                else np.zeros(len(act_idx))
            scale = np.minimum(1.0, max_step_v[act_idx]
                               / np.maximum(max_delta, 1e-300))
            residual = np.max(np.abs(F[act_idx][:, :n]), axis=1) if n \
                else np.zeros(len(act_idx))
            done = (max_delta < options.abstol_v) \
                & (residual < options.abstol_i)
            new_done = act_idx[done]
            if track and len(new_done):
                # Write back fresh stamps at the pre-update state for
                # lanes that just converged without the bypass.
                nd = new_done if frozen is None \
                    else new_done[~frozen[new_done]]
                if len(nd):
                    m = mem_idx[nd]
                    lin = np.einsum("aij,aj->ai", G_lin[nd], x[nd]) - b[nd]
                    bypass.J_nl[m] = J[nd] - G_lin[nd]
                    bypass.F_nl[m] = F[nd] - lin
                    bypass.x_stamp[m] = x[nd]
                    bypass.valid[m] = 1
            x[act_idx] += delta * scale[:, None]
            converged[new_done] = True
            active[new_done] = False
            iteration += 1
            lane_iters += len(act_idx)
            out_of_budget = active & (iteration >= max_iterations)
            active &= ~out_of_budget
        self._flush_newton_batch(A, iteration, converged, lane_iters)
        return x, converged

    @staticmethod
    def _flush_newton_batch(A: int, iteration: int, converged: np.ndarray,
                            lane_iterations: int | None = None) -> None:
        """One registry update per batched call; `iteration` is the
        number of stacked assemble/solve rounds the batch took.

        *lane_iterations* is the per-lane Newton iteration total (each
        round counts only the lanes still active after singular trim),
        the counter the native kernels mirror bit-for-bit; ``None``
        means the backend hook already flushed it."""
        if not telemetry.ENABLED:
            return
        telemetry.count("ensemble.newton_batches")
        telemetry.count("ensemble.newton_iterations", iteration)
        telemetry.observe("ensemble.batch_occupancy", A)
        if lane_iterations is not None:
            telemetry.count("ensemble.newton_lane_iterations",
                            lane_iterations)
        unconverged = int(A - int(converged.sum()))
        if unconverged:
            telemetry.count("ensemble.newton_lane_failures", unconverged)

    # -- DC -----------------------------------------------------------------

    def solve_dc(self, mem_idx: np.ndarray | None = None,
                 x0: np.ndarray | None = None,
                 options: NewtonOptions | None = None,
                 b: np.ndarray | None = None, strict: bool = False
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked DC operating points with the scalar continuation chain.

        Returns ``(x, ok)`` over the requested member subset.  The rhs
        is the sources at ``t = 0`` unless *b* gives it.  Lanes failing
        plain Newton go through gmin stepping, then source stepping —
        each on the still-failing subset only — mirroring
        :func:`repro.spice.dc.solve_operating_point` lane by lane.  A
        lane the whole chain leaves unconverged comes back
        ``ok = False``; with *strict* the first such lane raises
        :class:`ConvergenceError` instead, naming its member, with one
        event per stage tried (newton, gmin, source).
        """
        options = options or NewtonOptions()
        if mem_idx is None:
            mem_idx = np.arange(self.B)
        mem_idx = np.asarray(mem_idx, dtype=np.intp)
        A = len(mem_idx)
        G_lin = self.G_static[mem_idx].copy()
        if b is None:
            b = self.rhs_batch(mem_idx, np.zeros(A))
        x = np.zeros((A, self.size)) if x0 is None else x0.copy()

        x_out, ok = self.newton_batch(mem_idx, G_lin, b, x, options)
        if ok.all():
            return x_out, ok
        # The step each lane last failed at, for the strict error's trail.
        failed_gmin = np.zeros(A)
        failed_alpha = np.zeros(A)

        # Fallback 1: gmin stepping on the failing subset.
        retry = np.flatnonzero(~ok)
        if telemetry.ENABLED:
            telemetry.count("ensemble.gmin_fallback_lanes", len(retry))
        xg = x[retry].copy()
        g_ok = np.ones(len(retry), dtype=bool)
        sub = mem_idx[retry]
        for gmin in options.gmin_steps:
            alive = np.flatnonzero(g_ok)
            if len(alive) == 0:
                break
            xg_new, step_ok = self.newton_batch(
                sub[alive], G_lin[retry[alive]], b[retry[alive]],
                xg[alive], options, gmin=float(gmin))
            xg[alive] = np.where(step_ok[:, None], xg_new, xg[alive])
            g_ok[alive[~step_ok]] = False
            failed_gmin[retry[alive[~step_ok]]] = gmin
        recovered = np.flatnonzero(g_ok)
        x_out[retry[recovered]] = xg[recovered]
        ok[retry[recovered]] = True
        if ok.all():
            return x_out, ok

        # Fallback 2: source stepping on whatever still fails.
        retry = np.flatnonzero(~ok)
        if telemetry.ENABLED:
            telemetry.count("ensemble.source_fallback_lanes", len(retry))
        sub = mem_idx[retry]
        xs = np.zeros((len(retry), self.size))
        s_ok = np.ones(len(retry), dtype=bool)
        relaxed_iter = np.full(len(retry), options.max_iterations * 2,
                               dtype=int)
        for alpha in np.linspace(1.0 / options.source_steps, 1.0,
                                 options.source_steps):
            alive = np.flatnonzero(s_ok)
            if len(alive) == 0:
                break
            xs_new, step_ok = self.newton_batch(
                sub[alive], G_lin[retry[alive]], alpha * b[retry[alive]],
                xs[alive], options, max_iterations=relaxed_iter[alive])
            xs[alive] = np.where(step_ok[:, None], xs_new, xs[alive])
            s_ok[alive[~step_ok]] = False
            failed_alpha[retry[alive[~step_ok]]] = alpha
        recovered = np.flatnonzero(s_ok)
        x_out[retry[recovered]] = xs[recovered]
        ok[retry[recovered]] = True
        if strict and not ok.all():
            lane = int(np.flatnonzero(~ok)[0])
            member = int(mem_idx[lane])
            raise ConvergenceError(
                f"DC operating point of member {member} of ensemble "
                f"{self.template.name!r} did not converge",
                events=[{"stage": "newton", "member": member},
                        {"stage": "gmin", "member": member,
                         "last_gmin": float(failed_gmin[lane])},
                        {"stage": "source", "member": member,
                         "last_alpha": float(failed_alpha[lane])}])
        return x_out, ok

    # -- solution access -----------------------------------------------------

    def node_slot(self, node: str) -> int:
        """Solver index of *node* (ground aliases are rejected: probe a
        real node)."""
        try:
            return self.node_index[node]
        except KeyError:
            raise CircuitError(f"unknown ensemble node {node!r}") from None


def ensemble_operating_point(template: Circuit,
                             values: Mapping[tuple[str, str], Sequence]
                             | None = None,
                             options: NewtonOptions | None = None
                             ) -> tuple[np.ndarray, EnsembleSystem]:
    """Stacked DC operating points of one template's members.

    A member the batched newton -> gmin -> source chain cannot converge
    raises :class:`ConvergenceError` naming it (see
    :meth:`EnsembleSystem.solve_dc`).
    """
    es = EnsembleSystem(template, values)
    x, _ok = es.solve_dc(options=options, strict=True)
    return x, es


def ensemble_dc_sweep(template: Circuit, source_name: str,
                      sweep: np.ndarray | list[float],
                      values: Mapping[tuple[str, str], Sequence]
                      | None = None,
                      options: NewtonOptions | None = None
                      ) -> tuple[np.ndarray, np.ndarray, EnsembleSystem]:
    """Sweep one voltage source across all members in lockstep.

    Returns ``(solutions, ok, system)`` where ``solutions`` has shape
    ``(len(sweep), B, size)`` (NaN for failed lanes from the first point
    they fail) and ``ok`` flags members that converged at every point.
    Continuation warm-starts each point from the previous solution, as
    the scalar :func:`repro.spice.dc.dc_sweep` does.  The template is
    not modified.
    """
    sweep = np.asarray(sweep, dtype=float)
    es = EnsembleSystem(template, values)
    if not isinstance(template.element(source_name), VoltageSource):
        raise ConvergenceError(
            f"element {source_name!r} is not a voltage source")
    # The swept source alone stamps its branch row, so each point's rhs
    # is the t = 0 rhs with that row set to the point's value.
    row = es.branch_index[source_name]
    base = es.rhs_batch(np.arange(es.B), np.zeros(es.B))
    base[:, row] = 0.0
    solutions = np.full((len(sweep), es.B, es.size), np.nan)
    ok = np.ones(es.B, dtype=bool)
    x_prev: np.ndarray | None = None
    for i, value in enumerate(sweep):
        alive = np.flatnonzero(ok)
        if len(alive) == 0:
            break
        b = base[alive]
        b[:, row] += value
        x0 = x_prev[alive] if x_prev is not None else None
        x, point_ok = es.solve_dc(mem_idx=alive, x0=x0, options=options,
                                  b=b)
        # A lane the batched chain cannot converge is written off; it
        # never stops the sweep of the others.
        ok[alive[~point_ok]] = False
        good = alive[point_ok]
        solutions[i, good] = x[point_ok]
        if x_prev is None:
            x_prev = np.zeros((es.B, es.size))
        x_prev[good] = x[point_ok]
    return solutions, ok, es


# ---------------------------------------------------------------------------
# Transient
# ---------------------------------------------------------------------------

class _EnsembleBypass:
    """Per-member stamp cache for the ensemble transient bypass.

    The batched twin of :class:`repro.spice.mna.StampCache`: one slot
    per ensemble member, indexed by member id so lanes keep their cache
    across active-set recompositions.  Layouts are exactly what the
    native kernel reads/writes (`valid` as uint8, stamps without the
    trash slot), and the NumPy reference path uses the same arrays, so
    freeze decisions agree across backends.
    """

    __slots__ = ("eta", "slots", "valid", "x_stamp", "J_nl", "F_nl",
                 "addrs")

    def __init__(self, eta: float, slots: np.ndarray, B: int,
                 size: int) -> None:
        self.eta = eta
        self.slots = slots
        self.valid = np.zeros(B, dtype=np.uint8)
        self.x_stamp = np.zeros((B, size))
        self.J_nl = np.zeros((B, size, size))
        self.F_nl = np.zeros((B, size))
        # Raw data addresses for the native kernel: the arrays above are
        # allocated once and only ever mutated in place.
        self.addrs = (self.valid.ctypes.data, self.x_stamp.ctypes.data,
                      self.J_nl.ctypes.data, self.F_nl.ctypes.data)

    def frozen_lanes(self, mem_idx: np.ndarray,
                     x_accepted: np.ndarray) -> np.ndarray:
        """Boolean lane mask: cached stamps still usable at *x_accepted*."""
        dist = np.max(np.abs(x_accepted[:, self.slots]
                             - self.x_stamp[mem_idx][:, self.slots]), axis=1)
        return (self.valid[mem_idx] != 0) & (dist <= self.eta)


class Probe:
    """A threshold-crossing watchpoint: one node, one level per member.

    ``levels`` may be a scalar (shared by every member) or a length-B
    sequence.  Crossing instants are linearly interpolated between
    accepted integration states — the same arithmetic
    :meth:`repro.spice.waveform.Waveform.crossing_times` applies to a
    sampled waveform of the identical trajectory.
    """

    def __init__(self, node: str, levels) -> None:
        self.node = node
        self.levels = levels


class EnsembleTransient:
    """Lockstep transient integration of one ensemble.

    Each member runs the exact per-member controller of
    :func:`repro.spice.transient.transient` — nominal step ``dt``,
    halving on Newton failure, warm-start prediction, LTE-steered growth
    up to ``dt_max`` — but the Newton iterations of all members still
    stepping are assembled and solved as one stacked batch.  Members
    whose step fails or whose LTE estimate rejects an oversized step
    simply sit out the accept phase and retry at their reduced step on
    the next sweep of the active set; members that reach their ``t_stop``
    leave the batch entirely.  A member whose DC initial condition does
    not converge, or whose step fails even at its minimum, raises
    :class:`ConvergenceError` naming it.
    """

    def __init__(self, template: Circuit,
                 options: Sequence[TransientOptions],
                 probes: Sequence[Probe] = (),
                 values: Mapping[tuple[str, str], Sequence] | None = None
                 ) -> None:
        self.es = EnsembleSystem(template, values, len(options))
        es = self.es
        B = es.B
        newton = options[0].newton
        if any(o.newton != newton for o in options):
            raise CircuitError("ensemble members must share NewtonOptions")
        self.newton = newton

        self.dt_nom = np.array([o.dt for o in options])
        self.t_stop = np.array([o.t_stop for o in options])
        self.dt_min = np.array([o.dt / (2 ** o.max_halvings)
                                for o in options])
        self.dt_cap = np.array([o.dt_max if o.dt_max is not None else o.dt
                                for o in options])
        self.lte_tol = np.array([o.lte_tol if o.lte_tol is not None
                                 else np.inf for o in options])
        self.growth = np.array([o.growth for o in options])
        self._damped_step_v = newton.max_step_v / 8.0
        self._damped_iter = newton.max_iterations * 3
        # Undamped per-lane limits, sliced per sweep (read-only), and a
        # reusable prediction-error buffer.
        self._step_v_full = np.full(B, newton.max_step_v)
        self._iter_full = np.full(B, newton.max_iterations, dtype=np.int64)
        self._pred_buf = np.empty(B)
        self._lte4 = 4.0 * self.lte_tol
        # Controller parameters stacked for a single per-sweep gather:
        # rows are lte_tol, dt_nom, dt_cap, growth.
        self._ctrl = np.stack([self.lte_tol, self.dt_nom,
                               self.dt_cap, self.growth])

        x, _ok = es.solve_dc(options=newton, strict=True)
        self.x = x
        self.x_init = x.copy()
        self.t = np.zeros(B)
        self.dt = self.dt_nom.copy()
        self.x_last = np.zeros_like(x)
        self.dt_last = np.zeros(B)
        self.has_hist = np.zeros(B, dtype=bool)
        self.steps = np.zeros(B, dtype=np.int64)

        eta = bypass_eta(newton)
        self._bypass = None
        if eta > 0.0 and len(es.fet_batch.member_id):
            self._bypass = _EnsembleBypass(eta, es.nl_slots, B, es.size)

        self.probes = list(probes)
        self._probe_slots = [es.node_slot(p.node) for p in self.probes]
        self._probe_levels = [np.broadcast_to(
            np.asarray(p.levels, dtype=float), (B,)).copy()
            for p in self.probes]
        # Stacked (P,) slots and (P, B) levels so crossing detection is
        # one vectorised compare over all probes per accepted sweep.
        self._probe_slot_arr = np.asarray(self._probe_slots, dtype=np.int64)
        self._levels_mat = (np.stack(self._probe_levels)
                            if self.probes else np.zeros((0, B)))
        #: crossings[probe][member] -> list of (time, rising) tuples.
        self.crossings: list[list[list[tuple[float, bool]]]] = [
            [[] for _ in range(B)] for _ in self.probes]

    # -- integration ---------------------------------------------------------

    @telemetry.timed("solver.step_control")
    def run(self) -> "EnsembleTransient":
        """Integrate every member to its ``t_stop``; returns self.

        The linear transient Jacobian ``G_static + C_unit/dt`` and the
        storage history term are *not* built here: :meth:`newton_batch`
        passes ``inv_dt`` through to the backend, which composes them
        per lane (inside the compiled kernel on the native backend,
        vectorised in NumPy otherwise).
        """
        es = self.es
        # Telemetry accumulates in locals across the whole run and
        # flushes once on return (or on the failure path below).
        n_accepted = 0
        n_halvings = 0
        n_lte_rejections = 0
        # Offer the entire run to the backend's whole-timestep hook
        # first (the compiled kernel integrates each lane to completion
        # with the bit-exact step schedule of the sweep loop below).
        # Backends without the hook decline; lanes the kernel could not
        # finish (dt underflow, crossing-buffer overflow) are simply
        # still short of t_stop, so the sweep loop resumes them — and
        # raises the reference ConvergenceError when the failure is
        # real.
        native = get_backend().ensemble_timestep(self)
        if native is not None:
            n_accepted = native["accepted"]
            n_halvings = native["halvings"]
            n_lte_rejections = native["lte_rejections"]
        while True:
            act = np.flatnonzero((self.t_stop - self.t) > self.dt_min)
            if len(act) == 0:
                if telemetry.ENABLED:
                    self._flush_run(n_accepted, n_halvings, n_lte_rejections)
                return self
            dt_step = np.minimum(self.dt[act], self.t_stop[act] - self.t[act])
            damped = dt_step <= 8.0 * self.dt_min[act]
            if damped.any():
                max_step_v = np.where(damped, self._damped_step_v,
                                      self.newton.max_step_v)
                max_iter = np.where(damped, self._damped_iter,
                                    self.newton.max_iterations)
            else:
                # The common sweep has no damped lane: share the
                # preallocated constant arrays instead of two np.where.
                max_step_v = self._step_v_full[:len(act)]
                max_iter = self._iter_full[:len(act)]
            x_prev = self.x[act]
            hist = self.has_hist[act]
            hist_all = bool(hist.all())
            if hist_all:
                ratio = dt_step / self.dt_last[act]
                x_start = x_prev + (x_prev - self.x_last[act]) \
                    * ratio[:, None]
            else:
                x_start = x_prev.copy()
                if hist.any():
                    ratio = dt_step[hist] / self.dt_last[act][hist]
                    x_start[hist] = x_prev[hist] + (
                        x_prev[hist] - self.x_last[act][hist]) * ratio[:, None]
            b = es.rhs_batch(act, self.t[act] + dt_step)
            inv_dt = 1.0 / dt_step
            x_new, conv = es.newton_batch(
                act, None, b, x_start, self.newton,
                max_step_v=max_step_v, max_iterations=max_iter,
                inv_dt=inv_dt, x_prev=x_prev, add_storage=True,
                bypass=self._bypass)
            all_conv = bool(conv.all())
            pred_err = self._pred_buf[:len(act)]
            pred_err.fill(np.nan)
            if hist_all and all_conv:
                np.max(np.abs(x_new - x_start), axis=1, out=pred_err)
            else:
                warm = hist & conv
                if warm.any():
                    pred_err[warm] = np.max(
                        np.abs(x_new[warm] - x_start[warm]), axis=1)

                # Bad predictions (e.g. across a source edge): retry
                # those lanes from the previous accepted state, like the
                # scalar controller's inner fallback.
                retry = hist & ~conv
                if retry.any():
                    r = np.flatnonzero(retry)
                    x_r, conv_r = es.newton_batch(
                        act[r], None, b[r], x_prev[r], self.newton,
                        max_step_v=max_step_v[r], max_iterations=max_iter[r],
                        inv_dt=inv_dt[r], x_prev=x_prev[r], add_storage=True,
                        bypass=self._bypass)
                    x_new[r] = x_r
                    conv[r] = conv_r

            # Newton failures: halve the member's step and let it retry
            # on the next active-set sweep.
            if not conv.all():
                failed = np.flatnonzero(~conv)
                n_halvings += len(failed)
                for k in failed:
                    lane = act[k]
                    new_dt = dt_step[k] / 2.0
                    if new_dt < self.dt_min[lane]:
                        if telemetry.ENABLED:
                            self._flush_run(n_accepted, n_halvings,
                                            n_lte_rejections, failed=True)
                        raise ConvergenceError(
                            f"transient step failed at t={self.t[lane]:g}s "
                            f"in circuit "
                            f"{es.template.name!r} even at "
                            f"minimum step {self.dt_min[lane]:g}s",
                            events=[{"stage": "ensemble_transient",
                                     "t": float(self.t[lane]),
                                     "member": int(lane),
                                     "dt_min": float(self.dt_min[lane])}])
                    self.dt[lane] = new_dt

            # LTE rejection of oversized steps whose estimate blew up.
            rejected = conv & (dt_step > self.dt_nom[act]) \
                & (pred_err > self._lte4[act])
            n_rej = int(np.count_nonzero(rejected))
            if n_rej:
                n_lte_rejections += n_rej
                for k in np.flatnonzero(rejected):
                    lane = act[k]
                    self.dt[lane] = max(dt_step[k] / 2.0, self.dt_nom[lane])

            accepted = conv & ~rejected
            if accepted.all():
                # Common sweep: everything accepted, skip the gathers.
                lanes = act
                xp_acc, xn_acc = x_prev, x_new
                dt_acc, err = dt_step, pred_err
            elif accepted.any():
                acc = np.flatnonzero(accepted)
                lanes = act[acc]
                xp_acc, xn_acc = x_prev[acc], x_new[acc]
                dt_acc, err = dt_step[acc], pred_err[acc]
            else:
                continue
            n_accepted += len(lanes)
            self._record_crossings(lanes, xp_acc, xn_acc,
                                   self.t[lanes], dt_acc)
            self.x_last[lanes] = xp_acc
            self.dt_last[lanes] = dt_acc
            self.has_hist[lanes] = True
            self.x[lanes] = xn_acc
            self.t[lanes] += dt_acc
            self.steps[lanes] += 1

            # Step-size update, scalar growth rules per lane.  Lanes
            # without a prediction have err = NaN: both comparisons are
            # False, so they hold their step — same as the masked form.
            tol, dt_nom_l, dt_cap_l, growth_l = self._ctrl[:, lanes]
            self.dt[lanes] = np.where(
                dt_acc >= dt_nom_l,
                np.where(err < 0.25 * tol,
                         np.minimum(2.0 * dt_acc, dt_cap_l),
                         np.where(err > tol,
                                  np.maximum(dt_acc / 2.0, dt_nom_l),
                                  dt_acc)),
                np.minimum(dt_nom_l, dt_acc * growth_l))

    @staticmethod
    def _flush_run(accepted: int, halvings: int, lte_rejections: int,
                   failed: bool = False) -> None:
        """One registry update per :meth:`run` call (never per step)."""
        telemetry.count("ensemble.transient_runs")
        telemetry.count("ensemble.transient_steps", accepted)
        if halvings:
            telemetry.count("ensemble.transient_halvings", halvings)
        if lte_rejections:
            telemetry.count("ensemble.lte_rejections", lte_rejections)
        if failed:
            telemetry.count("ensemble.transient_failures")

    @telemetry.timed("solver.probe")
    def _record_crossings(self, lanes: np.ndarray, x_prev: np.ndarray,
                          x_new: np.ndarray, t0: np.ndarray,
                          dt: np.ndarray) -> None:
        if not self.probes:
            return
        lv = self._levels_mat[:, lanes]                # (P, A)
        v0 = x_prev[:, self._probe_slot_arr].T - lv
        v1 = x_new[:, self._probe_slot_arr].T - lv
        crossed = np.sign(v0) != np.sign(v1)
        if not crossed.any():
            return
        if telemetry.ENABLED:
            telemetry.count("ensemble.probe_crossings",
                            int(crossed.sum()))
        for p, k in zip(*np.nonzero(crossed)):
            a, c = v0[p, k], v1[p, k]
            frac = -a / (c - a)
            self.crossings[p][lanes[k]].append(
                (float(t0[k] + frac * dt[k]), bool(c > a)))

    # -- measurements --------------------------------------------------------

    def crossing_times(self, probe_index: int, member: int,
                       direction: str = "any") -> np.ndarray:
        """Crossing instants of one probe for one member, oldest first."""
        events = self.crossings[probe_index][member]
        if direction == "rise":
            events = [e for e in events if e[1]]
        elif direction == "fall":
            events = [e for e in events if not e[1]]
        return np.asarray([e[0] for e in events])

    def final_value(self, node: str) -> np.ndarray:
        """Final node voltage of every member."""
        return self.x[:, self.es.node_slot(node)].copy()

    def initial_value(self, node: str) -> np.ndarray:
        """Node voltage of every member at the DC initial condition."""
        return self.x_init[:, self.es.node_slot(node)].copy()

    def final_time(self) -> np.ndarray:
        return self.t.copy()
