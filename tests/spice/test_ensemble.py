"""Batched ensemble engine vs the scalar solver, member by member.

The ensemble engine promises each member the *exact* trajectory the
scalar controller would produce — same Newton damping, same step-size
schedule, same crossing interpolation — so these tests compare against
:func:`repro.spice.transient` / :func:`repro.spice.dc.dc_sweep` at tight
tolerances, and check that co-residents in a batch cannot perturb each
other (active-set isolation).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells.topologies import diode_load_inverter, pseudo_e_inverter
from repro.devices.mosfet_level1 import Level1Mosfet
from repro.devices.pentacene import PENTACENE, pentacene_model
from repro.errors import CircuitError
from repro.spice import (
    Capacitor,
    Circuit,
    EnsembleSystem,
    EnsembleTransient,
    Fet,
    NewtonOptions,
    Probe,
    RampValue,
    Resistor,
    TransientOptions,
    VoltageSource,
    dc_sweep,
    ensemble_dc_sweep,
    ensemble_operating_point,
    operating_point,
    transient,
)
from repro.spice.backends import NumpyBackend, reset_backend
from repro.spice.ensemble import _EnsembleBypass
from repro.spice.mna import MnaSystem, bypass_eta

from tests.spice.stacking import stack, transient_ensemble

VDD = 15.0


def inverter_testbench(load=1e-12, slew=2e-4, w_drive=100e-6,
                       vt_shift=0.0, v0=0.0, v1=VDD):
    """Diode-load inverter driven by a rising (or falling) input ramp."""
    model = pentacene_model(vt_shift=vt_shift)
    cell = diode_load_inverter(model, w_drive=w_drive, w_load=30e-6, vdd=VDD)
    ckt = Circuit("tb")
    ckt.add(VoltageSource("v_vdd", "vdd", "0", VDD))
    ckt.add(VoltageSource("v_a", "a", "0",
                          RampValue(v0, v1, 0.2 * slew, slew)))
    cell.instantiate(ckt, {"a": "a", "out": "out", "vdd": "vdd", "vss": "0"})
    ckt.add(Capacitor("c_load", "out", "0", load))
    return ckt


def ramp_inverter_testbench(load, slew):
    """The pseudo-E inverter, which swings rail to rail, driven by an
    input ramp."""
    ckt = pseudo_e_testbench()
    ckt.add(Capacitor("c_load", "out", "0", load))
    ckt.element("v_a").value = RampValue(0.0, VDD, 0.2 * slew, slew)
    return ckt


def run_scalar(ckt, options, nodes=("out",)):
    res = transient(ckt, options)
    return {n: res.waveform(n) for n in nodes}


def default_options(slew=2e-4, t_stop=2e-3):
    dt = min(t_stop / 400, slew / 8)
    return TransientOptions(dt=dt, t_stop=t_stop, dt_max=16 * dt,
                            lte_tol=5e-4 * VDD)


class TestTransientEquivalence:
    """Crossings are measured on the pseudo-E inverter, whose output
    swings rail to rail through the 0.5 VDD probe; the diode-load
    inverter's output stays near VDD, so it has no crossing to
    compare."""

    def test_grid_matches_scalar_member_by_member(self):
        """A slew x load grid in one batch reproduces scalar waveforms."""
        slews = (1e-4, 4e-4)
        loads = (0.5e-12, 4e-12)
        members, opts = [], []
        for slew in slews:
            for load in loads:
                members.append(ramp_inverter_testbench(load, slew))
                opts.append(default_options(slew=slew))
        probes = [Probe("out", 0.5 * VDD)]
        ens = transient_ensemble(members, opts, probes).run()

        for m, (slew, load) in enumerate(
                (s, c) for s in slews for c in loads):
            ckt = ramp_inverter_testbench(load, slew)
            w = run_scalar(ckt, default_options(slew=slew))["out"]
            assert ens.final_value("out")[m] == pytest.approx(
                w.final_value, abs=1e-9)
            assert ens.initial_value("out")[m] == pytest.approx(
                w.initial_value, abs=1e-9)
            batch_cross = ens.crossing_times(0, m, "fall")
            scalar_cross = w.crossing_times(0.5 * VDD, direction="fall")
            assert len(batch_cross) == len(scalar_cross) > 0
            np.testing.assert_allclose(batch_cross, scalar_cross,
                                       rtol=1e-9, atol=1e-15)

    def test_heterogeneous_devices_match_scalar(self):
        """Members may differ in device parameters (MC-style bindings)."""
        shifts = (-0.4, 0.0, 0.4)
        members = [inverter_testbench(vt_shift=s) for s in shifts]
        opts = [default_options() for _ in shifts]
        ens = transient_ensemble(members, opts,
                                 [Probe("out", 0.5 * VDD)]).run()
        for m, s in enumerate(shifts):
            w = run_scalar(inverter_testbench(vt_shift=s),
                           default_options())["out"]
            assert ens.final_value("out")[m] == pytest.approx(
                w.final_value, abs=1e-9)

    def test_active_set_isolation(self):
        """A fast member finishing early must not perturb slow members.

        Run a short-window member next to a long-window member, then the
        long member alone: the long member's events must be bit-equal.
        """
        slow = ramp_inverter_testbench(load=4e-12, slew=4e-4)
        fast = ramp_inverter_testbench(load=0.2e-12, slew=1e-4)
        slow_opts = default_options(slew=4e-4, t_stop=2e-3)
        fast_opts = default_options(slew=1e-4, t_stop=2e-4)
        probes = [Probe("out", 0.5 * VDD)]

        paired = transient_ensemble([slow, fast], [slow_opts, fast_opts],
                                    probes).run()
        alone = EnsembleTransient(
            ramp_inverter_testbench(load=4e-12, slew=4e-4), [slow_opts],
            probes).run()

        assert paired.final_time()[1] < paired.final_time()[0]
        assert paired.final_value("out")[0] == alone.final_value("out")[0]
        assert len(alone.crossing_times(0, 0)) > 0
        np.testing.assert_array_equal(paired.crossing_times(0, 0),
                                      alone.crossing_times(0, 0))
        assert paired.steps[0] == alone.steps[0]

    def test_structural_mismatch_rejected(self):
        """Members are one template: values must name its elements'
        attributes and give every member one entry."""
        tb = inverter_testbench()
        for values in ({("r1", "resistance"): [1e3, 2e3]},
                       {("c_load", "resistance"): [1e3, 2e3]},
                       {("c_load", "capacitance"): [1e-12, 2e-12],
                        ("v_vdd", "value"): [VDD]}):
            with pytest.raises(CircuitError):
                EnsembleSystem(tb, values)
        with pytest.raises(CircuitError):
            EnsembleTransient(tb, [default_options()] * 2,
                              values={("c_load", "capacitance"): [1e-12]})

    def test_stamps_follow_template_order(self):
        """A stacked entry sums in the template's element order.

        Four capacitors share one node; the first and third vary per
        member.  Float addition is not associative (here
        ((0.6 + 0.6) + 0.6) + 0.2 != ((0.6 + 0.2) + 0.6) + 0.6), so
        ``C_unit`` equals each member's own ``MnaSystem`` bit for bit
        only if every element stamps in template order.
        """
        def rc(c1, c3):
            ckt = Circuit("rc")
            ckt.add(VoltageSource("v1", "in", "0", 1.0))
            ckt.add(Resistor("r1", "in", "out", 1e3))
            for name, c in (("c1", c1), ("c2", 0.6), ("c3", c3),
                            ("c4", 0.2)):
                ckt.add(Capacitor(name, "out", "0", c))
            return ckt

        members = [rc(0.6, 0.6), rc(0.1, 0.7), rc(0.3, 0.3)]
        es = EnsembleSystem(*stack(members))
        want = np.stack([MnaSystem(c)._C_unit for c in members])
        assert es.C_unit.tobytes() == want.tobytes()

    @settings(max_examples=10, deadline=None)
    @given(
        load=st.floats(min_value=0.2e-12, max_value=6e-12),
        slew=st.floats(min_value=0.5e-4, max_value=6e-4),
        w_drive=st.floats(min_value=40e-6, max_value=300e-6),
        vt_shift=st.floats(min_value=-0.5, max_value=0.5),
    )
    def test_randomized_binding_matches_scalar(self, load, slew, w_drive,
                                               vt_shift):
        """Hypothesis-randomized bindings: batch of 2 vs scalar runs."""
        bindings = [
            dict(load=load, slew=slew, w_drive=w_drive, vt_shift=vt_shift),
            dict(load=2e-12, slew=2e-4, w_drive=100e-6, vt_shift=0.0),
        ]
        members = [inverter_testbench(**b) for b in bindings]
        opts = [default_options(slew=b["slew"]) for b in bindings]
        ens = transient_ensemble(members, opts,
                                 [Probe("out", 0.5 * VDD)]).run()
        for m, b in enumerate(bindings):
            w = run_scalar(inverter_testbench(**b),
                           default_options(slew=b["slew"]))["out"]
            assert ens.final_value("out")[m] == pytest.approx(
                w.final_value, abs=1e-8)


def pseudo_e_testbench(vt_shift=0.0, vss=-15.0):
    model = pentacene_model(vt_shift=vt_shift)
    cell = pseudo_e_inverter(model, vdd=VDD, vss=vss)
    ckt = Circuit("tb_pe")
    node_map = {"a": "a", "out": "out"}
    for rail, volts in cell.rails.items():
        if volts == 0.0:
            node_map[rail] = "0"
        else:
            node_map[rail] = rail
            ckt.add(VoltageSource(f"v_{rail}", rail, "0", volts))
    ckt.add(VoltageSource("v_a", "a", "0", 0.0))
    cell.instantiate(ckt, node_map)
    return ckt


class TestDcEquivalence:
    def test_operating_point_matches_scalar(self):
        shifts = (-0.3, 0.0, 0.3)
        x, es = ensemble_operating_point(
            *stack([pseudo_e_testbench(s) for s in shifts]))
        for m, s in enumerate(shifts):
            xs, sys = operating_point(pseudo_e_testbench(s))
            np.testing.assert_allclose(
                x[m, :sys.size], xs, rtol=1e-9, atol=1e-12)

    def test_dc_sweep_matches_scalar(self):
        shifts = (-0.3, 0.0, 0.3)
        values = np.linspace(0.0, VDD, 21)
        template, members = stack([pseudo_e_testbench(s) for s in shifts])
        sols, ok, es = ensemble_dc_sweep(template, "v_a", values, members)
        assert ok.all()
        out = es.node_slot("out")
        for m, s in enumerate(shifts):
            scalar = dc_sweep(pseudo_e_testbench(s), "v_a", values)
            np.testing.assert_allclose(sols[:, m, out],
                                       scalar.voltage("out"),
                                       rtol=1e-9, atol=1e-12)

    def test_sweep_restores_source_values(self):
        ckt = pseudo_e_testbench(0.0)
        before = ckt.element("v_a").value
        ensemble_dc_sweep(ckt, "v_a", [0.0, VDD / 2, VDD])
        assert ckt.element("v_a").value == before

    def test_newton_options_must_match(self):
        members = [inverter_testbench(), inverter_testbench()]
        opts = [default_options(),
                TransientOptions(dt=1e-6, t_stop=1e-4,
                                 newton=NewtonOptions(max_step_v=1.0))]
        with pytest.raises(CircuitError):
            transient_ensemble(members, opts)


class TestFrozenAllShortcut:
    """A fully bypass-frozen Newton batch assembles its Jacobian once.

    Every later iteration rebuilds only the residual against the frozen
    Jacobian; the contract is bitwise equality with a plain loop that
    calls :meth:`EnsembleSystem.assemble` with every lane frozen on
    every iteration.
    """

    @pytest.fixture(autouse=True)
    def _numpy_backend(self):
        reset_backend(NumpyBackend())
        yield
        reset_backend()

    def test_bitwise_equal_to_assembling_every_iteration(self, monkeypatch):
        options = NewtonOptions()
        es = EnsembleSystem(*stack([inverter_testbench(load=c)
                                    for c in (0.5e-12, 1e-12, 4e-12)]))
        mem = np.arange(es.B)
        x_dc, ok = es.solve_dc(mem)
        assert ok.all()
        dt = np.full(es.B, 2e-6)
        G_lin = es.G_static[mem] + es.C_unit[mem] / dt[:, None, None]
        bypass = _EnsembleBypass(bypass_eta(options), es.nl_slots,
                                 es.B, es.size)

        # Step 1: no cached stamps, so every lane converges on fresh
        # device evaluations and writes its stamps back.
        b1 = es.rhs_batch(mem, np.full(es.B, 1e-4), x_dc, dt)
        x1, conv1 = es.newton_batch(mem, G_lin, b1, x_dc, options,
                                    x_prev=x_dc, bypass=bypass)
        assert conv1.all() and bypass.valid.all()

        # Step 2: the accepted state equals the stamped one, so every
        # lane is frozen and the shortcut takes over.
        x_prev = bypass.x_stamp[mem].copy()
        assert bypass.frozen_lanes(mem, x_prev).all()
        b2 = es.rhs_batch(mem, np.full(es.B, 1.2e-4), x_prev, dt)
        assembles = []
        real_assemble = es.assemble

        def counting_assemble(*args, **kwargs):
            assembles.append(1)
            return real_assemble(*args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(es, "assemble", counting_assemble)
            x_fast, conv_fast = es.newton_batch(
                mem, G_lin, b2, x_prev, options, x_prev=x_prev,
                bypass=bypass)
        assert len(assembles) == 1

        # Reference: the plain damped-Newton loop, assembling every time.
        frozen = np.ones(es.B, dtype=bool)
        n = es.n_nodes
        x = x_prev.copy()
        active = np.ones(es.B, dtype=bool)
        converged = np.zeros(es.B, dtype=bool)
        iterations = 0
        while active.any() and iterations < options.max_iterations:
            F, J = es.assemble(mem, None, G_lin, b2, x,
                               frozen=frozen, bypass=bypass)
            act = np.flatnonzero(active)
            delta = np.linalg.solve(J[act], -F[act][..., None])[..., 0]
            max_delta = np.max(np.abs(delta), axis=1)
            scale = np.minimum(1.0, options.max_step_v
                               / np.maximum(max_delta, 1e-300))
            residual = np.max(np.abs(F[act][:, :n]), axis=1)
            done = act[(max_delta < options.abstol_v)
                       & (residual < options.abstol_i)]
            x[act] += delta * scale[:, None]
            converged[done] = True
            active[done] = False
            iterations += 1
        assert iterations >= 2            # the shortcut actually iterated
        assert converged.all()
        assert np.array_equal(conv_fast, converged)
        assert np.array_equal(x_fast, x)


# ---------------------------------------------------------------------------
# Per-member fallback: elements the stacked kernels do not cover
# ---------------------------------------------------------------------------

L1_VDD = 5.0


def level1_testbench(load, kp_p):
    """CMOS inverter on square-law MOSFETs, driven by an input ramp."""
    nmos = Level1Mosfet(polarity=1, kp=1e-4, vt0=0.7, lambda_=0.02,
                        ci=1e-3)
    pmos = Level1Mosfet(polarity=-1, kp=kp_p, vt0=0.7, lambda_=0.02,
                        ci=1e-3)
    ckt = Circuit("tb_l1")
    ckt.add(VoltageSource("v_vdd", "vdd", "0", L1_VDD))
    ckt.add(VoltageSource("v_a", "a", "0",
                          RampValue(0.0, L1_VDD, 1e-9, 2e-9)))
    ckt.add(Fet("mp", "out", "a", "vdd", pmos, 20e-6, 2e-6))
    ckt.add(Fet("mn", "out", "a", "0", nmos, 10e-6, 2e-6))
    ckt.add(Capacitor("c_load", "out", "0", load))
    return ckt


def callable_source_testbench(load, slew):
    """The pseudo-E inverter driven by a plain callable, not a ramp."""
    ckt = ramp_inverter_testbench(load, slew)
    t_start = 0.2 * slew

    def drive(t):
        return VDD * min(1.0, max(0.0, (t - t_start) / slew))

    ckt.element("v_a").value = drive
    return ckt


class TestPerMemberFallback:
    """Members whose elements the stacked kernels cannot batch — a FET
    whose model is not a ``UnifiedTft``, a source whose value is a plain
    callable — are stamped member by member, and must still reproduce
    the scalar solver member by member, without reaching the native
    whole-timestep kernel."""

    CASES = {
        "level1-fet": (
            [level1_testbench(load, kp) for load, kp in
             ((0.2e-12, 4e-5), (1e-12, 6e-5))],
            dict(dt=2.5e-11, t_stop=1e-8, dt_max=4e-10,
                 lte_tol=5e-4 * L1_VDD),
            "_any_fallback"),
        "callable-source": (
            [callable_source_testbench(load, slew) for load, slew in
             ((0.5e-12, 1e-4), (4e-12, 4e-4))],
            dict(dt=5e-6, t_stop=2e-3, dt_max=8e-5, lte_tol=5e-4 * VDD),
            "_any_generic_rhs"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_operating_point_matches_scalar(self, case):
        members, _options, flag = self.CASES[case]
        x, es = ensemble_operating_point(*stack(members))
        assert getattr(es, flag)
        for m, ckt in enumerate(members):
            xs, sys = operating_point(ckt)
            np.testing.assert_allclose(
                x[m, :sys.size], xs, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_transient_matches_scalar(self, case):
        from repro.runtime import telemetry
        from repro.spice.backends import get_backend

        members, options, flag = self.CASES[case]
        opts = TransientOptions(**options)
        vdd = L1_VDD if case == "level1-fet" else VDD
        telemetry.reset()
        telemetry.enable(True)
        try:
            ens = transient_ensemble(members, [opts] * len(members),
                                     [Probe("out", 0.5 * vdd)]).run()
            counters = dict(telemetry.counters())
        finally:
            telemetry.enable(False)
            telemetry.reset()
        assert getattr(ens.es, flag)
        assert counters.get("ensemble.scalar_retries", 0) == 0
        if get_backend().name == "native":
            assert counters.get("backend.native.timestep_calls", 0) == 0

        for m, ckt in enumerate(members):
            w = run_scalar(ckt, opts)["out"]
            assert ens.final_value("out")[m] == pytest.approx(
                w.final_value, abs=1e-9)
            assert ens.initial_value("out")[m] == pytest.approx(
                w.initial_value, abs=1e-9)
            batch_cross = ens.crossing_times(0, m)
            scalar_cross = w.crossing_times(0.5 * vdd)
            assert len(batch_cross) == len(scalar_cross) > 0
            np.testing.assert_allclose(batch_cross, scalar_cross,
                                       rtol=1e-9, atol=1e-15)
