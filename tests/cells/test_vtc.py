"""VTC analysis tests, including the Figure 6/7/8 reproduction claims."""

import numpy as np
import pytest

from repro.analysis.figures import (
    fig6_inverter_comparison,
    fig7_vdd_scaling,
    fig8_vss_tuning,
)
from repro.cells.topologies import diode_load_inverter, pseudo_e_inverter
from repro.cells.vtc import (
    VtcCurve,
    analyze_inverter,
    compute_vtc,
    max_gain,
    noise_margin_mec,
    noise_margins_unity_gain,
    switching_threshold,
)
from repro.devices import PENTACENE, pentacene_model


@pytest.fixture(scope="module")
def pseudo_curve():
    return compute_vtc(pseudo_e_inverter(PENTACENE), n_points=121)


class TestVtcMechanics:
    def test_monotone_decreasing_overall(self, pseudo_curve):
        assert pseudo_curve.vout[0] > pseudo_curve.vout[-1]

    def test_vm_is_fixed_point(self, pseudo_curve):
        vm = switching_threshold(pseudo_curve)
        f_vm = float(np.interp(vm, pseudo_curve.vin, pseudo_curve.vout))
        assert f_vm == pytest.approx(vm, abs=0.02)

    def test_gain_exceeds_one(self, pseudo_curve):
        assert max_gain(pseudo_curve) > 1.0

    def test_mec_positive_for_regenerative_curve(self, pseudo_curve):
        assert noise_margin_mec(pseudo_curve) > 0.3

    def test_mec_on_ideal_inverter(self):
        """An ideal steep inverter's MEC approaches VDD/2."""
        vin = np.linspace(0, 5, 501)
        vout = np.where(vin < 2.5, 5.0, 0.0) + 0.0
        # smooth one segment to keep it a function
        curve = VtcCurve(vin=vin, vout=vout, power=np.zeros_like(vin), vdd=5.0)
        nm = noise_margin_mec(curve)
        assert nm == pytest.approx(2.5, abs=0.1)

    def test_unity_gain_margins_nonnegative(self, pseudo_curve):
        nmh, nml = noise_margins_unity_gain(pseudo_curve)
        assert nmh >= 0 and nml >= 0

    def test_power_positive_somewhere(self, pseudo_curve):
        assert np.max(pseudo_curve.power) > 0


class TestFigure6:
    @pytest.fixture(scope="class")
    def fig6(self):
        return fig6_inverter_comparison()

    def test_gain_ordering(self, fig6):
        """Paper: diode 1.2 < biased 1.6 < pseudo-E 3.0."""
        g_d, g_b, g_p = fig6.gains()
        assert g_d < g_b < g_p

    def test_pseudo_e_gain_factor(self, fig6):
        """Pseudo-E gain ~2.5x the diode-load gain (paper: 3.0 vs 1.2)."""
        g_d, _, g_p = fig6.gains()
        assert g_p / g_d > 2.0

    def test_noise_margin_improvement(self, fig6):
        """Paper: 'the noise margin increases ten times'."""
        assert fig6.pseudo_e.nm_mec > 10 * max(fig6.diode.nm_mec, 0.05)

    def test_pseudo_e_reaches_rails(self, fig6):
        """Pseudo-E's level shifter lets VOH reach VDD (Section 4.3.2)."""
        assert fig6.pseudo_e.voh > 0.97 * 15.0
        assert fig6.pseudo_e.vol < 0.02 * 15.0

    def test_ratioed_styles_do_not_reach_vdd(self, fig6):
        assert fig6.diode.voh < 0.9 * 15.0
        assert fig6.biased.voh < 0.9 * 15.0

    def test_static_power_scale(self, fig6):
        """All styles burn ~100 uW-scale static power at VIN = 0."""
        for a in (fig6.diode, fig6.biased, fig6.pseudo_e):
            assert 20e-6 < a.static_power_low < 500e-6

    def test_static_power_asymmetry(self, fig6):
        """Input-high static power is orders of magnitude lower."""
        for a in (fig6.diode, fig6.biased, fig6.pseudo_e):
            assert a.static_power_high < 0.05 * a.static_power_low


class TestFigure7:
    @pytest.fixture(scope="class")
    def fig7(self):
        return fig7_vdd_scaling()

    def test_vm_tracks_vdd(self, fig7):
        vms = [fig7.analyses[v].vm for v in (5.0, 10.0, 15.0)]
        assert vms[0] < vms[1] < vms[2]

    def test_power_reduction_at_low_vdd(self, fig7):
        """Paper: 'the 5 V inverter will be only 6% that of the 15 V'."""
        p5 = fig7.analyses[5.0].static_power_low
        p15 = fig7.analyses[15.0].static_power_low
        assert p5 < 0.4 * p15

    def test_gain_stays_useful(self, fig7):
        for a in fig7.analyses.values():
            assert a.max_gain > 2.0

    def test_noise_margin_fraction_of_vdd(self, fig7):
        """Paper: noise margin about 20-25% of VDD across supplies."""
        for vdd, a in fig7.analyses.items():
            assert 0.10 < a.nm_mec / vdd < 0.35


class TestFigure8:
    @pytest.fixture(scope="class")
    def fig8(self):
        return fig8_vss_tuning()

    def test_vm_increases_with_vss(self, fig8):
        """Paper: 'when VSS increases by 10 V, VM increases by 2.2 V'."""
        assert fig8.slope > 0

    def test_relationship_is_linear(self, fig8):
        fit = fig8.slope * fig8.vss_values + fig8.intercept
        residual = np.max(np.abs(fit - fig8.vm_values))
        assert residual < 0.15

    def test_slope_magnitude(self, fig8):
        """Paper slope 0.22; ours is the same order (document exact)."""
        assert 0.05 < fig8.slope < 0.4


class TestProcessShift:
    """A threshold shift, the pentacene process's dominant variation,
    moves the pseudo-E VM, and the VSS rail (Figure 8's knob) trims it
    back; the diode-load style has no rail to trim and a far smaller
    margin to lose."""

    #: VSS trim grid, volts: the Figure 8 range in 0.5 V steps.
    VSS_GRID = np.arange(-22.0, -7.75, 0.5)

    @staticmethod
    def vm(vt_shift, vss=-15.0):
        cell = pseudo_e_inverter(pentacene_model(vt_shift=vt_shift), vss=vss)
        return switching_threshold(compute_vtc(cell, n_points=61))

    @pytest.mark.parametrize("vt_shift", [-0.5, -0.25, 0.0, 0.25, 0.5])
    def test_pseudo_e_margin_exceeds_diode_load(self, vt_shift):
        model = pentacene_model(vt_shift=vt_shift)
        pseudo = compute_vtc(pseudo_e_inverter(model, vdd=15.0),
                             n_points=61)
        diode = compute_vtc(diode_load_inverter(model, vdd=15.0),
                            n_points=61)
        assert noise_margin_mec(pseudo) > 3 * noise_margin_mec(diode)

    def test_vm_falls_as_vt_rises(self):
        vms = [self.vm(s) for s in (-0.5, -0.25, 0.0, 0.25, 0.5)]
        assert all(np.diff(vms) < 0)

    @pytest.mark.parametrize("vt_shift", [-0.5, -0.25, 0.25, 0.5])
    def test_vss_trim_recentres_vm(self, vt_shift):
        """The best VSS on the grid brings the shifted VM back within
        one grid step's worth of VM of the unshifted cell, and lies on
        the side Figure 8's positive slope predicts."""
        target = self.vm(0.0)
        errors = [abs(self.vm(vt_shift, vss) - target)
                  for vss in self.VSS_GRID]
        best = self.VSS_GRID[int(np.argmin(errors))]
        assert min(errors) < abs(self.vm(vt_shift) - target) / 3
        # Half a grid step at the steepest slope Figure 8 admits (0.4).
        assert min(errors) < 0.5 * 0.5 * 0.4
        assert np.sign(best + 15.0) == np.sign(vt_shift)
