"""Golden-device calibration tests: Section 4.1's reported values.

These are reproduction checks — the pentacene model must yield the
paper's extracted figures of merit through the same extraction routines
the 'measurements' feed.
"""

import numpy as np
import pytest

from repro.devices import PENTACENE, measured_transfer_curve, pentacene_model
from repro.devices.extraction import characterize_curve
from repro.devices.pentacene import (
    ORGANIC_VDD,
    ORGANIC_VSS,
    PENTACENE_CI,
    TEST_L,
    TEST_W,
)


@pytest.fixture(scope="module")
def report_vds1():
    return characterize_curve(measured_transfer_curve(vds=-1.0), PENTACENE_CI)


@pytest.fixture(scope="module")
def report_vds10():
    return characterize_curve(measured_transfer_curve(vds=-10.0), PENTACENE_CI)


class TestSection41Calibration:
    def test_linear_mobility(self, report_vds1):
        """Paper: 0.16 cm^2/Vs (within measurement noise)."""
        assert report_vds1.mobility_cm2 == pytest.approx(0.16, rel=0.15)

    def test_subthreshold_slope(self, report_vds1):
        """Paper: 350 mV/dec."""
        assert report_vds1.subthreshold_slope_mv_dec == pytest.approx(
            350.0, rel=0.10)

    def test_on_off_ratio(self, report_vds1):
        """Paper: 1e6 (order of magnitude)."""
        assert 3e5 < report_vds1.on_off_ratio < 3e6

    def test_vt_at_vds1_negative(self, report_vds1):
        """Paper: VT = -1.3 V at VDS = -1 V."""
        assert report_vds1.threshold_v == pytest.approx(-1.3, abs=0.5)

    def test_vt_sign_flip_at_high_drain_bias(self, report_vds1, report_vds10):
        """Paper: VT flips to +1.3 V at VDS = -10 V."""
        assert report_vds1.threshold_v < 0
        assert report_vds10.threshold_v > 0.5


class TestMeasurementGenerator:
    def test_deterministic_per_seed(self):
        a = measured_transfer_curve(seed=7)
        b = measured_transfer_curve(seed=7)
        assert np.array_equal(a.id_, b.id_)

    def test_noise_varies_with_seed(self):
        a = measured_transfer_curve(seed=1)
        b = measured_transfer_curve(seed=2)
        assert not np.array_equal(a.id_, b.id_)

    def test_positive_vds_rejected(self):
        with pytest.raises(ValueError):
            measured_transfer_curve(vds=+1.0)

    def test_gate_leakage_small(self):
        curve = measured_transfer_curve()
        assert np.max(curve.ig) < 1e-10
        assert np.max(curve.id_) > 1e-6

    def test_geometry_recorded(self):
        curve = measured_transfer_curve()
        assert curve.w == TEST_W and curve.l == TEST_L


class TestModelVariants:
    def test_vt_shift(self):
        shifted = pentacene_model(vt_shift=0.3)
        assert shifted.vt0 == pytest.approx(PENTACENE.vt0 + 0.3)

    def test_mu_scale(self):
        scaled = pentacene_model(mu_scale=2.0)
        assert scaled.mu_band == pytest.approx(2 * PENTACENE.mu_band)

    @pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
    def test_mu_scale_scales_channel_current(self, scale):
        """Transconductance and output conductance scale exactly; the
        drain current does too, but for the gate-independent leakage
        floor."""
        scaled = pentacene_model(mu_scale=scale)
        for vgs, vds in ((10.0, 1.0), (15.0, 10.0), (2.0, 5.0)):
            i, gm, gds = scaled.ids(vgs, vds, TEST_W, TEST_L)
            i0, gm0, gds0 = PENTACENE.ids(vgs, vds, TEST_W, TEST_L)
            assert gm == pytest.approx(scale * gm0, rel=1e-12)
            assert gds == pytest.approx(scale * gds0, rel=1e-12)
            assert i == pytest.approx(scale * i0, rel=1e-4)

    def test_variants_keep_capacitance(self):
        for variant in (pentacene_model(vt_shift=0.3),
                        pentacene_model(mu_scale=10.0)):
            assert (variant.capacitances(TEST_W, TEST_L)
                    == PENTACENE.capacitances(TEST_W, TEST_L))

    def test_positive_vt_shift_turns_device_off(self):
        """Normalised frame: a positive shift is harder to turn on."""
        currents = [pentacene_model(vt_shift=s).ids(10.0, 5.0,
                                                    TEST_W, TEST_L)[0]
                    for s in (-0.3, 0.0, 0.3)]
        assert currents[0] > currents[1] > currents[2] > 0

    def test_bad_mu_scale(self):
        with pytest.raises(ValueError):
            pentacene_model(mu_scale=0.0)

    def test_rails(self):
        assert ORGANIC_VDD == 5.0
        assert ORGANIC_VSS == -15.0
