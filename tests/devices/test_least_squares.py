"""The Figure 4 fits' bounded least-squares solver.

``repro.devices.least_squares`` transcribes the one path of
``scipy.optimize.least_squares`` the fits take; the oracle tests hold it
to SciPy's ``x`` bit for bit and skip where SciPy is not installed.
"""

import numpy as np
import pytest

from repro.devices import extraction, measured_transfer_curve
from repro.devices.least_squares import _jacobian, _svd, least_squares
from repro.devices.pentacene import PENTACENE_CI


def _fits_against_scipy(monkeypatch, curve):
    """Fit *curve* with both models, solving every problem twice: with
    the port, and with SciPy on the same residuals.  Returns the pairs
    of solutions."""
    optimize = pytest.importorskip("scipy.optimize")
    pairs = []

    def both(fun, x0, bounds):
        x = least_squares(fun, x0, bounds)
        pairs.append((x, optimize.least_squares(fun, x0, bounds=bounds).x))
        return x

    monkeypatch.setattr(extraction, "least_squares", both)
    extraction.fit_level1(curve, PENTACENE_CI)
    extraction.fit_level61(curve, PENTACENE_CI)
    assert len(pairs) == 2
    return pairs


class TestScipyOracle:
    def test_figure4_curve(self, monkeypatch):
        curve = measured_transfer_curve(vds=-1.0, seed=2017)
        for x, ref in _fits_against_scipy(monkeypatch, curve):
            assert np.array_equal(x, ref)

    @pytest.mark.parametrize("seed", range(2000, 2008))
    def test_seed_vds_grid(self, monkeypatch, seed):
        for vds in (-0.5, -1.0, -2.0, -5.0):
            curve = measured_transfer_curve(vds=vds, seed=seed)
            for x, ref in _fits_against_scipy(monkeypatch, curve):
                assert np.array_equal(x, ref), (seed, vds)

    def test_svd_factors_in_scipy_layout(self):
        """SciPy's ``U`` and ``Vt`` are Fortran-ordered, numpy's are not;
        the solver's dot products match SciPy's bits only on SciPy's
        layout, so ``_svd`` copies the factors into it."""
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(4)
        for m, n in [(40, 2), (55, 4), (61, 4), (201, 4)]:
            a = np.vstack([rng.normal(size=(m, n)),
                           np.diag(rng.uniform(0.0, 2.0, size=n))])
            U, s, V = _svd(a)
            U_ref, s_ref, Vt_ref = linalg.svd(a, full_matrices=False)
            V_ref = Vt_ref.T
            assert U_ref.flags.f_contiguous and V_ref.flags.c_contiguous
            assert U.flags.f_contiguous and V.flags.c_contiguous
            assert np.array_equal(s, s_ref)
            assert np.array_equal(U, U_ref) and np.array_equal(V, V_ref)
            f = rng.normal(size=m + n)
            y = rng.normal(size=n)
            assert np.array_equal(U.T.dot(f), U_ref.T.dot(f))
            assert np.array_equal(V.dot(y), V_ref.dot(y))

    def test_jacobian_in_scipy_layout(self):
        """SciPy's forward-difference Jacobian is the transpose of an
        ``(n, m)`` array; ``J.T.dot(f)`` keeps its bits only on that
        layout, and a step near a bound is flipped as SciPy flips it."""
        numdiff = pytest.importorskip("scipy.optimize._numdiff")
        t = np.linspace(0.0, 1.0, 30)

        def fun(x):
            return x[0] * np.exp(x[1] * t) - x[2] * t

        lb, ub = np.array([0.0, -2.0, -1.0]), np.array([2.0, 2.0, 1.0])
        for x0 in ([1.0, 0.5, 0.0], [2.0 - 1e-9, 0.5, -1.0 + 1e-12]):
            x0 = np.array(x0)
            f0 = fun(x0)
            J = _jacobian(fun, x0, f0, lb, ub)
            J_ref = numdiff.approx_derivative(fun, x0, method="2-point",
                                              f0=f0, bounds=(lb, ub))
            assert J.flags.f_contiguous and J_ref.flags.f_contiguous
            assert np.array_equal(J, J_ref)


class TestSolver:
    BOUNDS = ([-1.0, -1.0], [1.0, 1.0])

    def test_interior_minimum(self):
        target = np.array([0.25, -0.5])
        x = least_squares(lambda x: x - target, [0.0, 0.0], self.BOUNDS)
        assert x == pytest.approx(target, abs=1e-8)

    def test_minimum_outside_the_box_lands_on_its_bound(self):
        target = np.array([3.0, -0.5])
        x = least_squares(lambda x: x - target, [0.0, 0.0], self.BOUNDS)
        assert x[0] == pytest.approx(1.0, abs=1e-6) and x[0] <= 1.0
        assert x[1] == pytest.approx(-0.5, abs=1e-8)

    @pytest.mark.parametrize("x0, bounds", [
        ([0.0, 0.0], ([-np.inf, -1.0], [1.0, 1.0])),   # unbounded below
        ([0.0, 0.0], ([-1.0, 1.0], [1.0, 1.0])),       # lb == ub
        ([2.0, 0.0], ([-1.0, -1.0], [1.0, 1.0])),      # x0 outside
        ([0.0], ([-1.0, -1.0], [1.0, 1.0])),           # shape mismatch
    ])
    def test_rejects_problems_off_the_transcribed_path(self, x0, bounds):
        with pytest.raises(ValueError):
            least_squares(lambda x: x, x0, bounds)

    def test_rejects_nonfinite_initial_residuals(self):
        with pytest.raises(ValueError, match="not finite"):
            least_squares(lambda x: np.full(2, np.nan), [0.0, 0.0],
                          self.BOUNDS)

    def test_takes_no_other_option(self):
        with pytest.raises(TypeError):
            least_squares(lambda x: x, [0.0, 0.0], self.BOUNDS,
                          method="dogbox")
