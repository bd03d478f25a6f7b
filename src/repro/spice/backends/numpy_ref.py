"""Pure-NumPy reference backend: the solver contract and its oracle.

Every Newton iteration of the DC and transient engines bottoms out in a
dense linear solve: ``J delta = -F`` for one circuit (scalar path) or a
stacked ``(B, S, S)`` batch of them (ensemble path).  A backend owns
exactly that layer, and :class:`NumpyBackend` both defines the contract
and implements it.  The contract is small on purpose:

- :meth:`~NumpyBackend.solve` / :meth:`~NumpyBackend.solve_stacked`
  **never raise** on singular matrices — they report per-system success
  flags instead, so a single degenerate ensemble lane can never abort a
  whole batch (the caller decides whether a failed lane is retried,
  deactivated, or fatal);
- :meth:`~NumpyBackend.ensemble_newton` and
  :meth:`~NumpyBackend.ensemble_timestep` optionally take over the
  *entire* ensemble Newton inner loop or transient sweep; the reference
  declines with ``None`` and the caller runs the NumPy loop, which the
  compiled :class:`~repro.spice.backends.native.NativeBackend` overrides.

Both solves go through ``numpy.linalg.solve`` (LAPACK ``gesv``), so
the SPICE engine needs no SciPy: the scalar solve once per system, the
stacked solve once per batch.  A singular lane in a batch triggers a
lane-by-lane solve so the healthy lanes still get their LAPACK answers.

The backend is resolved once per process (see
:mod:`repro.spice.backends`) and is stateless apart from telemetry
counters, so one instance serves every circuit and thread of a run.
"""

from __future__ import annotations

import numpy as np

from repro.runtime import telemetry


class NumpyBackend:
    """Dense LAPACK solves through NumPy; the behaviour oracle."""

    #: Identity reported in telemetry span metadata and run reports.
    name = "numpy"

    def available(self) -> bool:
        """Whether this backend can run on the current machine."""
        return True

    def thread_budget(self) -> int:
        """Threads one ensemble sweep may use; the NumPy path is serial."""
        return 1

    # -- accounting ---------------------------------------------------------

    def _count(self, lanes: int) -> None:
        """Per-backend solve counters (one registry update per solve call)."""
        if telemetry.ENABLED:
            telemetry.count(f"backend.{self.name}.solve_calls")
            telemetry.count(f"backend.{self.name}.lanes_solved", lanes)

    # -- scalar -------------------------------------------------------------

    def solve(self, J: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, bool]:
        """Solve ``J delta = -F`` for one system.

        Returns ``(delta, ok)``; ``ok`` is False (and ``delta`` all-zero)
        when ``J`` is singular.  Never raises ``LinAlgError``.
        """
        self._count(1)
        try:
            return np.linalg.solve(J, -F), True
        except np.linalg.LinAlgError:
            return np.zeros_like(F), False

    # -- stacked ------------------------------------------------------------

    def solve_stacked(self, J: np.ndarray, F: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Solve ``J[a] delta[a] = -F[a]`` for a stacked ``(A, S, S)`` batch.

        Returns ``(delta, ok)`` where ``ok`` is a boolean lane mask;
        singular lanes come back ``ok[a] = False`` with ``delta[a] = 0``
        and **must not** raise — this is the per-lane containment the
        ensemble active set relies on.
        """
        self._count(len(J))
        ok = np.ones(len(J), dtype=bool)
        try:
            return np.linalg.solve(J, -F[..., None])[..., 0], ok
        except np.linalg.LinAlgError:
            # Some lane is singular: solve lane by lane so the healthy
            # lanes still get the exact batched-LAPACK answers.
            delta = np.zeros_like(F)
            for a in range(len(J)):
                try:
                    delta[a] = np.linalg.solve(J[a], -F[a])
                except np.linalg.LinAlgError:
                    ok[a] = False
            return delta, ok

    # -- whole-loop hooks ---------------------------------------------------

    def ensemble_newton(self, request: "EnsembleNewtonRequest"
                        ) -> tuple[np.ndarray, np.ndarray, int] | None:
        """Run a full ensemble Newton solve, or decline with ``None``.

        Implementations must reproduce the reference semantics of
        :meth:`repro.spice.ensemble.EnsembleSystem.newton_batch` (per-lane
        damping, freeze-on-converge, singular-lane deactivation, stamp
        bypass) to solver tolerance.  Returns ``(x, converged,
        iterations)`` with ``x`` updated in place of ``request.x``.
        """
        return None

    def ensemble_timestep(self, et) -> dict | None:
        """Run a whole transient sweep natively, or decline with ``None``.

        *et* is an :class:`repro.spice.ensemble.EnsembleTransient`,
        batchable by construction: every nonlinear element is a FET on
        :class:`~repro.devices.tft_level61.UnifiedTft` models and every
        source a constant or a :class:`~repro.spice.elements.RampValue`
        with ``duration > 0`` (anything else never reaches a backend; it
        is the scalar engine's).  An
        implementation integrates every lane towards its ``t_stop`` with
        the **bit-exact** per-lane step schedule of the reference sweep
        loop in :meth:`~repro.spice.ensemble.EnsembleTransient.run`
        (predictor extrapolation, BE companion RHS, Newton with stamp
        bypass, LTE accept/reject and dt halving/growth, probe crossing
        records), mutating the transient's state arrays and crossing
        lists in place.  Lanes it cannot finish must be left at their
        last accepted state — the reference loop resumes them.  Returns
        ``{"accepted", "halvings", "lte_rejections", "bailed"}`` step
        counts for the caller's telemetry flush, or ``None`` to decline
        (the default: only the native backend implements this).
        """
        return None


class EnsembleNewtonRequest:
    """Everything a backend needs to run one batched Newton solve.

    A plain attribute bag (no behaviour) so the native kernel call site
    and the pure-Python reference read the same fields.  ``G_lin`` is
    either a gathered ``(A, S, S)`` array or ``None`` — in the latter
    case the backend composes ``G_static[m] + C_unit[m] / dt`` per lane
    from the ensemble's base arrays (the transient fast path, which
    avoids materialising the gathered Jacobian in Python entirely).
    """

    __slots__ = ("es", "mem_idx", "G_lin", "inv_dt", "b", "x", "x_prev",
                 "add_storage", "options", "max_step_v", "max_iterations",
                 "gmin", "bypass")

    def __init__(self, es, mem_idx, G_lin, inv_dt, b, x, x_prev,
                 add_storage, options, max_step_v, max_iterations,
                 gmin, bypass) -> None:
        self.es = es
        self.mem_idx = mem_idx
        self.G_lin = G_lin
        self.inv_dt = inv_dt
        self.b = b
        self.x = x
        self.x_prev = x_prev
        self.add_storage = add_storage
        self.options = options
        self.max_step_v = max_step_v
        self.max_iterations = max_iterations
        self.gmin = gmin
        self.bypass = bypass
