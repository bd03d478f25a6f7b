"""Bounded nonlinear least squares for the Figure 4 model fits.

A numpy transcription of the one path of ``scipy.optimize.least_squares``
(SciPy 1.17) that :func:`repro.devices.extraction.fit_level1` and
:func:`~repro.devices.extraction.fit_level61` take: the Trust Region
Reflective method with finite bounds, a forward-difference (``'2-point'``)
Jacobian, unit ``x_scale``, the linear loss and the dense SVD
trust-region solver (``tr_solver='exact'``), tolerances ``1e-8`` and the
default budget of ``100 * n`` residual evaluations.

It repeats SciPy's floating-point operations in SciPy's order, so it
returns the same bits as SciPy on the same problem; DESIGN §7k lists the
array layouts that must match for that to hold.  Every other option of
SciPy's function is out of scope and is not accepted.
"""

from __future__ import annotations

from collections.abc import Callable
from math import copysign

import numpy as np
from numpy.linalg import norm

EPS = np.finfo(float).eps

#: Stopping tolerances on the cost, the step and the scaled gradient.
FTOL = XTOL = GTOL = 1e-8


def least_squares(fun: Callable[[np.ndarray], np.ndarray], x0,
                  bounds: tuple) -> np.ndarray:
    """Minimise ``0.5 * sum(fun(x)**2)`` subject to ``lb <= x <= ub``.

    *bounds* is ``(lb, ub)``, each a sequence as long as *x0*, every entry
    finite and ``lb < ub``.  Returns the solution ``x``, equal bit for bit
    to ``scipy.optimize.least_squares(fun, x0, bounds=bounds).x``.
    """
    x0 = np.atleast_1d(x0).astype(float)
    if x0.ndim > 1:
        raise ValueError("`x0` must have at most 1 dimension.")
    lb, ub = (np.asarray(b, dtype=float) for b in bounds)
    if lb.shape != x0.shape or ub.shape != x0.shape:
        raise ValueError("Inconsistent shapes between bounds and `x0`.")
    if not (np.all(np.isfinite(lb)) and np.all(np.isfinite(ub))):
        raise ValueError("Every bound must be finite.")
    if np.any(lb >= ub):
        raise ValueError("Each lower bound must be strictly less than each "
                         "upper bound.")
    if not _in_bounds(x0, lb, ub):
        raise ValueError("Initial guess is outside of provided bounds")
    x0 = _make_strictly_feasible(x0, lb, ub)

    def residuals(x: np.ndarray) -> np.ndarray:
        return np.atleast_1d(fun(x.copy()))

    f0 = residuals(x0)
    if f0.ndim != 1:
        raise ValueError("`fun` must return at most 1-d array_like.")
    if not np.all(np.isfinite(f0)):
        raise ValueError("Residuals are not finite in the initial point.")
    J0 = _jacobian(residuals, x0, f0, lb, ub)
    return _trf_bounds(residuals, x0, f0, J0, lb, ub)


def _jacobian(fun, x0: np.ndarray, f0: np.ndarray, lb: np.ndarray,
              ub: np.ndarray) -> np.ndarray:
    """Forward differences, each step flipped or shortened to stay in bounds.

    Returns the transpose of an ``(n, m)`` array, a Fortran-ordered
    ``(m, n)`` view, as ``_dense_difference`` does: ``J.T.dot(f)`` sums
    in SciPy's order only on that layout.
    """
    sign_x0 = (x0 >= 0).astype(float) * 2 - 1
    h = EPS**0.5 * sign_x0 * np.maximum(1.0, np.abs(x0))

    # _adjust_scheme_to_bounds, '1-sided', one step: flip a step that
    # leaves the box, or shorten it to the farther bound if neither fits.
    lower_dist = x0 - lb
    upper_dist = ub - x0
    x = x0 + h
    violated = (x < lb) | (x > ub)
    fitting = np.abs(h) <= np.maximum(lower_dist, upper_dist)
    h[violated & fitting] *= -1
    forward = (upper_dist >= lower_dist) & ~fitting
    h[forward] = upper_dist[forward]
    backward = (upper_dist < lower_dist) & ~fitting
    h[backward] = -lower_dist[backward]

    J_transposed = np.empty((x0.size, f0.size))
    for i in range(x0.size):
        x1 = np.copy(x0)
        x1[i] = x0[i] + h[i]
        J_transposed[i] = (fun(x1) - f0) / ((x0[i] + h[i]) - x0[i])
    return J_transposed.T


def _trf_bounds(fun, x0: np.ndarray, f0: np.ndarray, J0: np.ndarray,
                lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """SciPy's ``trf_bounds`` with its stopping rules; returns ``x``.

    SciPy goes on to difference a Jacobian at the last point after a
    stopping rule fires, which cannot change ``x``; this loop returns
    there instead.
    """
    x, f, J = x0.copy(), f0, J0
    nfev = 1
    m, n = J.shape

    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)

    v, dv = _cl_scaling_vector(x, g, lb, ub)
    Delta = norm(x0 / v**0.5)
    if Delta == 0:
        Delta = 1.0

    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    max_nfev = x0.size * 100
    alpha = 0.0  # Levenberg-Marquardt parameter

    while True:
        v, dv = _cl_scaling_vector(x, g, lb, ub)
        g_norm = norm(g * v, ord=np.inf)
        if g_norm < GTOL or nfev == max_nfev:
            return x

        # Coleman-Li scaling: the trust region lives in "hat" space.
        d = v**0.5
        diag_h = g * dv
        g_h = d * g

        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]
        J_augmented[m:] = np.diag(diag_h**0.5)
        U, s, V = _svd(J_augmented)
        uf = U.T.dot(f_augmented)

        # theta controls the step back from the bounds.
        theta = max(0.995, 1 - g_norm)

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha)
            p = d * p_h
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta)

            x_new = _make_strictly_feasible(x + step, lb, ub, rstep=0)
            f_new = fun(x_new)
            nfev += 1

            step_h_norm = norm(step_h)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue

            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new

            # Step quality sets the next radius (update_tr_radius).
            if predicted_reduction > 0:
                ratio = actual_reduction / predicted_reduction
            elif predicted_reduction == actual_reduction == 0:
                ratio = 1
            else:
                ratio = 0
            Delta_new = Delta
            if ratio < 0.25:
                Delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * Delta:
                Delta_new *= 2.0

            # check_termination: small relative cost drop or small step.
            if ((actual_reduction < FTOL * cost and ratio > 0.25)
                    or norm(step) < XTOL * (XTOL + norm(x))):
                return x_new if actual_reduction > 0 else x

            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = _jacobian(fun, x, f, lb, ub)
            g = J.T.dot(f)


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``a = U @ diag(s) @ V.T`` in ``scipy.linalg.svd``'s layouts.

    Both libraries call LAPACK ``gesdd`` and agree on the values, but
    SciPy hands back Fortran-ordered ``U`` and ``Vt`` where numpy's are
    C-ordered.  ``U.T.dot(f)`` and ``V.dot(y)`` sum in a different BLAS
    order on the other layout, so the factors are copied into SciPy's.
    """
    U, s, Vt = np.linalg.svd(a, full_matrices=False)
    return np.asfortranarray(U), s, np.asfortranarray(Vt).T


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """The best of the trust-region, reflected and Cauchy steps."""
    if _in_bounds(x + p, lb, ub):
        p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)
        return p, p_h, -p_value

    p_stride, hits = _step_size_to_bound(x, p, lb, ub)

    # The reflected direction.
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h

    # Restrict the trust-region step so that it hits the bound.
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p

    # The reflected direction crosses either the feasible region's or the
    # trust region's boundary first.
    _, to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_size_to_bound(x_on_bound, r, lb, ub)

    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        if r_stride == to_bound:
            r_stride_u = theta * to_bound
        else:
            r_stride_u = to_tr
    else:
        r_stride_l = 0
        r_stride_u = -1

    if r_stride_l <= r_stride_u:
        a, b, c = _build_quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(
            a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf

    # Pull the trust-region step strictly inside.
    p *= theta
    p_h *= theta
    p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)

    ag_h = -g_h
    ag = d * ag_h

    to_tr = Delta / norm(ag_h)
    to_bound, _ = _step_size_to_bound(x, ag, lb, ub)
    if to_bound < to_tr:
        ag_stride = theta * to_bound
    else:
        ag_stride = to_tr

    a, b = _build_quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    elif r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    else:
        return ag, ag_h, -ag_value


# Helpers from scipy.optimize._lsq.common, specialised to finite bounds.

def _solve_lsq_trust_region(n, m, uf, s, V, Delta, initial_alpha,
                            rtol=0.01, max_iter=10):
    """More's Levenberg-Marquardt step of norm ``Delta`` from the SVD."""

    def phi_and_derivative(alpha, suf, s, Delta):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        phi = p_norm - Delta
        phi_prime = -np.sum(suf ** 2 / denom**3) / p_norm
        return phi, phi_prime

    suf = s * uf

    # Try the Gauss-Newton step if J has full rank.
    if m >= n:
        threshold = EPS * m * s[0]
        full_rank = s[-1] > threshold
    else:
        full_rank = False

    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0

    alpha_upper = norm(suf) / Delta

    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0, suf, s, Delta)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0

    if not full_rank and initial_alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    else:
        alpha = initial_alpha

    for _ in range(max_iter):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)

        phi, phi_prime = phi_and_derivative(alpha, suf, s, Delta)

        if phi < 0:
            alpha_upper = alpha

        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta

        if np.abs(phi) < rtol * Delta:
            break

    p = -V.dot(suf / (s**2 + alpha))

    # Put p on the trust-region boundary exactly.
    p *= Delta / norm(p)

    return p, alpha


def _intersect_trust_region(x, s, Delta):
    """Both ``t`` with ``||x + s*t|| = Delta``, smaller first."""
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")

    b = np.dot(x, s)

    c = np.dot(x, x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")

    d = np.sqrt(b*b - a*c)  # Root of one fourth of the discriminant.

    # Avoid loss of significance ("Numerical Recipes").
    q = -(b + copysign(d, b))
    t1 = q / a
    t2 = c / q

    if t1 < t2:
        return t1, t2
    else:
        return t2, t1


def _build_quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients of the model along ``s0 + s*t``."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5

    b = np.dot(g, s)

    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    """Minimum of ``a*t**2 + b*t + c`` over ``lb <= t <= ub``."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    min_index = np.argmin(y)
    return t[min_index], y[min_index]


def _evaluate_quadratic(J, g, s, diag):
    """``0.5 * s.T (J.T J + diag) s + g.T s``."""
    Js = J.dot(s)
    q = np.dot(Js, Js)
    q += np.dot(s * diag, s)
    return 0.5 * q + np.dot(s, g)


def _step_size_to_bound(x, s, lb, ub):
    """The largest ``t`` with ``x + s*t`` feasible, and which bounds it hits."""
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    with np.errstate(over='ignore'):
        steps[non_zero] = np.maximum((lb - x)[non_zero] / s_non_zero,
                                     (ub - x)[non_zero] / s_non_zero)
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _in_bounds(x, lb, ub):
    return np.all((x >= lb) & (x <= ub))


def _make_strictly_feasible(x, lb, ub, rstep=1e-10):
    """Move ``x`` off any bound it sits on: ``rstep`` relative inside,
    or to the next float inside if ``rstep`` is 0."""
    x_new = x.copy()
    if rstep == 0:
        lower_mask = x <= lb
        upper_mask = x >= ub
        x_new[lower_mask] = np.nextafter(lb[lower_mask], ub[lower_mask])
        x_new[upper_mask] = np.nextafter(ub[upper_mask], lb[upper_mask])
    else:
        lower_dist = x - lb
        upper_dist = ub - x
        lower_mask = lower_dist <= np.minimum(
            upper_dist, rstep * np.maximum(1, np.abs(lb)))
        upper_mask = upper_dist <= np.minimum(
            lower_dist, rstep * np.maximum(1, np.abs(ub)))
        lower_mask &= ~upper_mask
        x_new[lower_mask] = (lb[lower_mask] +
                             rstep * np.maximum(1, np.abs(lb[lower_mask])))
        x_new[upper_mask] = (ub[upper_mask] -
                             rstep * np.maximum(1, np.abs(ub[upper_mask])))

    tight_bounds = (x_new < lb) | (x_new > ub)
    x_new[tight_bounds] = 0.5 * (lb[tight_bounds] + ub[tight_bounds])
    return x_new


def _cl_scaling_vector(x, g, lb, ub):
    """Coleman-Li scaling: distance to the bound the anti-gradient faces."""
    v = np.ones_like(x)
    dv = np.zeros_like(x)

    mask = g < 0
    v[mask] = ub[mask] - x[mask]
    dv[mask] = -1

    mask = g > 0
    v[mask] = x[mask] - lb[mask]
    dv[mask] = 1

    return v, dv
