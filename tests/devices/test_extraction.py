"""Extraction and model-fitting tests (Figure 4 reproduction)."""

import numpy as np
import pytest

from repro.devices import measured_transfer_curve
from repro.devices.extraction import (
    _as_normalised,
    _LOG_FLOOR,
    _savgol,
    characterize_curve,
    extract_on_off_ratio,
    extract_subthreshold_slope,
    fit_level1,
    fit_level61,
)
from repro.devices.pentacene import PENTACENE_CI, TEST_L, TEST_W
from repro.errors import ExtractionError


@pytest.fixture(scope="module")
def curve():
    return measured_transfer_curve(vds=-1.0)


class TestFigure4:
    def test_level61_fits_well(self, curve):
        fit = fit_level61(curve, PENTACENE_CI)
        # Sub-0.1-decade RMS error across the whole sweep.
        assert fit.rms_log_error < 0.1

    def test_level1_fits_on_region(self, curve):
        fit = fit_level1(curve, PENTACENE_CI)
        # "Fast and qualitative": decent above threshold...
        assert fit.rms_log_error_on < 1.0

    def test_level1_fails_subthreshold(self, curve):
        """Figure 4's message: level 1 misses sub-VT conduction/leakage."""
        l1 = fit_level1(curve, PENTACENE_CI)
        l61 = fit_level61(curve, PENTACENE_CI)
        assert l1.rms_log_error > 10 * l61.rms_log_error

    def test_level61_recovers_parameters(self, curve):
        """The fit lands near the golden device's parameters."""
        from repro.devices import PENTACENE
        fit = fit_level61(curve, PENTACENE_CI)
        assert fit.params["mu_band"] == pytest.approx(PENTACENE.mu_band,
                                                      rel=0.2)
        assert fit.params["ss"] == pytest.approx(PENTACENE.ss, rel=0.15)
        assert fit.params["i_off_w"] == pytest.approx(PENTACENE.i_off_w,
                                                      rel=0.5)

    def test_fit_predict_matches_measurement(self, curve):
        fit = fit_level61(curve, PENTACENE_CI)
        vgs_n = -np.asarray(curve.vgs)
        order = np.argsort(vgs_n)
        pred = fit.predict(vgs_n[order], 1.0, TEST_W, TEST_L)
        meas = np.abs(curve.id_)[order]
        log_err = np.abs(np.log10(np.maximum(pred, 1e-14))
                         - np.log10(np.maximum(meas, 1e-14)))
        assert np.median(log_err) < 0.1


class TestExtractionEdgeCases:
    def test_too_few_points(self):
        curve = measured_transfer_curve(
            vgs=np.linspace(10, -10, 4))
        with pytest.raises(ExtractionError):
            characterize_curve(curve, PENTACENE_CI)

    def test_flat_curve_rejected(self):
        vgs = np.linspace(-1, 1, 50)
        with pytest.raises(ExtractionError):
            extract_subthreshold_slope(vgs, np.full(50, 1e-9))

    def test_on_off_handles_zero_floor(self):
        ratio = extract_on_off_ratio(np.array([0.0, 1e-6]))
        assert ratio > 1e6

    def test_report_fields_sane(self, curve):
        rep = characterize_curve(curve, PENTACENE_CI)
        assert rep.vds == -1.0
        assert rep.mobility_cm2 > 0
        assert rep.subthreshold_slope_mv_dec > 0


class TestSavgol:
    """``_savgol`` is ``savgol_filter(x, 15, 2)`` bit for bit."""

    @staticmethod
    def _reference(x):
        from scipy.signal import savgol_filter
        return savgol_filter(x, 15, 2)

    @pytest.mark.parametrize("vds, seed", [(-1.0, 2017), (-10.0, 2018)])
    def test_figure3_curves(self, vds, seed):
        _, id_, _ = _as_normalised(measured_transfer_curve(vds=vds, seed=seed))
        logi = np.log10(np.maximum(id_, _LOG_FLOOR))
        assert np.array_equal(_savgol(logi), self._reference(logi))

    @pytest.mark.parametrize("n", [*range(15, 65), 201])
    def test_random_inputs(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            assert np.array_equal(_savgol(x), self._reference(x))
