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

from repro.cells import topologies
from repro.cells.vtc import _vtc_testbench, compute_vtc
from repro.devices.mosfet_level1 import Level1Mosfet
from repro.devices.pentacene import pentacene_model
from repro.errors import CircuitError, ConvergenceError
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

from tests.spice.stacking import (
    VDD,
    assert_stacks_equal,
    inverter_testbench,
    pseudo_e_testbench,
    stack,
    transient_ensemble,
)


def run_scalar(ckt, options, nodes=("out",)):
    res = transient(ckt, options)
    return {n: res.waveform(n) for n in nodes}


def assert_member_matches(ens, m, ckt, options, abs_v=1e-9):
    """Member *m* of a run *ens* (probe 0 on ``out`` at 0.5 VDD)
    against the scalar transient of *ckt*: final and initial values,
    and every crossing of the probe, of which there is at least one."""
    w = run_scalar(ckt, options)["out"]
    assert ens.final_value("out")[m] == pytest.approx(w.final_value,
                                                      abs=abs_v)
    assert ens.initial_value("out")[m] == pytest.approx(w.initial_value,
                                                        abs=abs_v)
    batch_cross = ens.crossing_times(0, m)
    scalar_cross = w.crossing_times(0.5 * VDD)
    assert len(batch_cross) == len(scalar_cross) > 0
    np.testing.assert_allclose(batch_cross, scalar_cross,
                               rtol=1e-9, atol=1e-15)


def default_options(slew=2e-4, t_stop=2e-3):
    dt = min(t_stop / 400, slew / 8)
    return TransientOptions(dt=dt, t_stop=t_stop, dt_max=16 * dt,
                            lte_tol=5e-4 * VDD)


class TestTransientEquivalence:
    """Crossings are measured on the pseudo-E inverter, whose output
    swings rail to rail through the 0.5 VDD probe."""

    def test_grid_matches_scalar_member_by_member(self):
        """A slew x load grid in one batch reproduces scalar waveforms."""
        slews = (1e-4, 4e-4)
        loads = (0.5e-12, 4e-12)
        members, opts = [], []
        for slew in slews:
            for load in loads:
                members.append(inverter_testbench(load, slew))
                opts.append(default_options(slew=slew))
        probes = [Probe("out", 0.5 * VDD)]
        ens = transient_ensemble(members, opts, probes).run()

        for m, (slew, load) in enumerate(
                (s, c) for s in slews for c in loads):
            assert_member_matches(ens, m, inverter_testbench(load, slew),
                                  default_options(slew=slew))
            assert len(ens.crossing_times(0, m, "fall")) > 0

    def test_heterogeneous_devices_match_scalar(self):
        """Members may differ in device parameters (MC-style bindings)."""
        shifts = (-0.4, 0.0, 0.4)
        members = [inverter_testbench(vt_shift=s) for s in shifts]
        opts = [default_options() for _ in shifts]
        ens = transient_ensemble(members, opts,
                                 [Probe("out", 0.5 * VDD)]).run()
        for m, s in enumerate(shifts):
            assert_member_matches(ens, m, inverter_testbench(vt_shift=s),
                                  default_options())

    def test_active_set_isolation(self):
        """A fast member finishing early must not perturb slow members.

        Run a short-window member next to a long-window member, then the
        long member alone: the long member's events must be bit-equal.
        """
        slow = inverter_testbench(load=4e-12, slew=4e-4)
        fast = inverter_testbench(load=0.2e-12, slew=1e-4)
        slow_opts = default_options(slew=4e-4, t_stop=2e-3)
        fast_opts = default_options(slew=1e-4, t_stop=2e-4)
        probes = [Probe("out", 0.5 * VDD)]

        paired = transient_ensemble([slow, fast], [slow_opts, fast_opts],
                                    probes).run()
        alone = EnsembleTransient(
            inverter_testbench(load=4e-12, slew=4e-4), [slow_opts],
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
            assert_member_matches(ens, m, inverter_testbench(**b),
                                  default_options(slew=b["slew"]),
                                  abs_v=1e-8)


class TestDcEquivalence:
    #: Members that differ in device model (VT shift), drive width and
    #: VSS level: ``(vt_shift, w_drive, vss)``.
    MIXED = ((-0.3, 100e-6, -15.0), (0.0, 60e-6, -15.0),
             (0.3, 140e-6, -15.0), (0.0, 100e-6, -12.0),
             (0.0, 100e-6, -18.0))

    @classmethod
    def mixed_members(cls):
        return [pseudo_e_testbench(vt_shift=s, w_drive=w, vss=v)
                for s, w, v in cls.MIXED]

    def test_mixed_members_stack_exactly(self):
        """Per-member device models, widths and rail levels in one
        ``EnsembleSystem`` equal each member's own ``MnaSystem``,
        stacked, to the last bit."""
        members = self.mixed_members()
        template, values = stack(members)
        varied = {attr for _name, attr in values}
        assert {"model", "w", "value"} <= varied
        assert ("v_vss", "value") in values
        assert_stacks_equal(EnsembleSystem(template, values), members)

    def test_operating_point_matches_scalar(self):
        shifts = (-0.3, 0.0, 0.3)
        x, es = ensemble_operating_point(
            *stack([pseudo_e_testbench(s) for s in shifts]))
        for m, s in enumerate(shifts):
            xs, sys = operating_point(pseudo_e_testbench(s))
            np.testing.assert_allclose(
                x[m, :sys.size], xs, rtol=1e-9, atol=1e-12)

    def test_dc_sweep_matches_scalar(self):
        """Output voltage and every rail's current, member by member."""
        values = np.linspace(0.0, VDD, 21)
        template, per_member = stack(self.mixed_members())
        sols, ok, es = ensemble_dc_sweep(template, "v_a", values, per_member)
        assert ok.all()
        out = es.node_slot("out")
        for m, scalar_ckt in enumerate(self.mixed_members()):
            scalar = dc_sweep(scalar_ckt, "v_a", values)
            np.testing.assert_allclose(sols[:, m, out],
                                       scalar.voltage("out"),
                                       rtol=1e-9, atol=1e-12)
            for rail in ("v_vdd", "v_vss"):
                np.testing.assert_allclose(
                    sols[:, m, es.branch_index[rail]],
                    scalar.source_current(rail), rtol=1e-9, atol=1e-18)

    #: Organic cell families by name, each built on a given device
    #: model, and whether their VTC ties every input to the sweep.
    VTC_CELLS = {
        "diode_load": (topologies.diode_load_inverter, True),
        "biased_load": (topologies.biased_load_inverter, True),
        "pseudo_e": (topologies.pseudo_e_inverter, True),
        "pseudo_e_nand2": (topologies.pseudo_e_nand, True),
        "pseudo_e_nand2_held": (topologies.pseudo_e_nand, False),
        "pseudo_e_nor2": (topologies.pseudo_e_nor, True),
        "pseudo_e_nor2_held": (topologies.pseudo_e_nor, False),
    }

    @pytest.mark.parametrize("family", sorted(VTC_CELLS))
    def test_vtc_sweep_matches_compute_vtc(self, family):
        """A cell's VTC testbench, VT-shifted member to member, sweeps
        in one ensemble to ``compute_vtc``'s output and rail power."""
        build, tied = self.VTC_CELLS[family]
        cells = [build(pentacene_model(vt_shift=s), vdd=VDD)
                 for s in (-0.3, 0.0, 0.3)]
        pin = cells[0].inputs[0]
        template, values = stack([_vtc_testbench(c, pin, tied)
                                  for c in cells])
        assert "model" in {attr for _name, attr in values}
        sweep = np.linspace(0.0, VDD, 41)
        sols, ok, es = ensemble_dc_sweep(
            template, f"v_{pin}", sweep, values,
            options=NewtonOptions(max_step_v=VDD / 4.0))
        assert ok.all()
        for m, cell in enumerate(cells):
            want = compute_vtc(cell, n_points=len(sweep), tied_inputs=tied)
            np.testing.assert_allclose(sols[:, m, es.node_slot("out")],
                                       want.vout, rtol=1e-9, atol=1e-12)
            power = -sum(volts * sols[:, m, es.branch_index[f"v_{rail}"]]
                         for rail, volts in cell.rails.items() if volts)
            np.testing.assert_allclose(power, want.power,
                                       rtol=1e-9, atol=1e-18)

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
    every iteration.  Both solves are transient steps in the form
    :class:`EnsembleTransient` takes: ``G_lin=None``, ``inv_dt`` and
    the storage history added from ``C_unit`` (*add_storage*).
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
        inv_dt = np.full(es.B, 1.0 / 2e-6)
        bypass = _EnsembleBypass(bypass_eta(options), es.nl_slots,
                                 es.B, es.size)

        def step(t, x_prev):
            return es.newton_batch(mem, None, es.rhs_batch(mem, t), x_prev,
                                   options, inv_dt=inv_dt, x_prev=x_prev,
                                   add_storage=True, bypass=bypass)

        # Step 1: no cached stamps, so every lane converges on fresh
        # device evaluations and writes its stamps back.
        x1, conv1 = step(np.full(es.B, 1e-4), x_dc)
        assert conv1.all() and bypass.valid.all()

        # Step 2, mid input ramp: the accepted state equals the stamped
        # one, so every lane is frozen and the shortcut takes over.
        t2 = np.full(es.B, 1.2e-4)
        x_prev = bypass.x_stamp[mem].copy()
        assert bypass.frozen_lanes(mem, x_prev).all()
        assembles = []
        real_assemble = es.assemble

        def counting_assemble(*args, **kwargs):
            assembles.append(1)
            return real_assemble(*args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(es, "assemble", counting_assemble)
            x_fast, conv_fast = step(t2, x_prev)
        assert len(assembles) == 1

        # Reference: the plain damped-Newton loop on the same transient
        # system, assembling every time.
        G_lin = es.G_static[mem] + es.C_unit[mem] * inv_dt[:, None, None]
        b2 = es.rhs_batch(mem, t2) + np.einsum(
            "aij,aj->ai", es.C_unit[mem], x_prev) * inv_dt[:, None]
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
# What the ensemble does not batch goes to the scalar engine
# ---------------------------------------------------------------------------

L1_VDD = 5.0
L1_NMOS = Level1Mosfet(polarity=1, kp=1e-4, vt0=0.7, lambda_=0.02, ci=1e-3)


def level1_pmos(kp_p):
    return Level1Mosfet(polarity=-1, kp=kp_p, vt0=0.7, lambda_=0.02, ci=1e-3)


def level1_testbench(load, kp_p):
    """CMOS inverter on square-law MOSFETs, driven by an input ramp."""
    ckt = Circuit("tb_l1")
    ckt.add(VoltageSource("v_vdd", "vdd", "0", L1_VDD))
    ckt.add(VoltageSource("v_a", "a", "0",
                          RampValue(0.0, L1_VDD, 1e-9, 2e-9)))
    ckt.add(Fet("mp", "out", "a", "vdd", level1_pmos(kp_p), 20e-6, 2e-6))
    ckt.add(Fet("mn", "out", "a", "0", L1_NMOS, 10e-6, 2e-6))
    ckt.add(Capacitor("c_load", "out", "0", load))
    return ckt


def callable_source_testbench(load, slew):
    """The pseudo-E inverter driven by a plain callable, not a ramp."""
    ckt = inverter_testbench(load, slew)
    t_start = 0.2 * slew

    def drive(t):
        return VDD * min(1.0, max(0.0, (t - t_start) / slew))

    ckt.element("v_a").value = drive
    return ckt


def step_testbench(load, slew):
    """The pseudo-E inverter driven by a zero-duration ramp (a step)."""
    ckt = inverter_testbench(load, slew)
    ckt.element("v_a").value = RampValue(0.0, VDD, 0.2 * slew, 0.0)
    return ckt


class TestUnconvergedLanes:
    """A member the batched newton -> gmin -> source chain leaves
    unconverged raises ``ConvergenceError`` naming it, with one event
    per stage; the scalar engine never retries it.  A DC sweep writes
    such a member off and sweeps the others on."""

    SHIFTS = (-0.3, 0.0, 0.3)

    @pytest.fixture()
    def member_one_stuck(self, monkeypatch):
        """Every batched Newton solve leaves member 1 unconverged (the
        scalar solver converges it)."""
        real = EnsembleSystem.newton_batch

        def stuck(self, mem_idx, *args, **kwargs):
            x, converged = real(self, mem_idx, *args, **kwargs)
            return x, converged & (mem_idx != 1)

        monkeypatch.setattr(EnsembleSystem, "newton_batch", stuck)

    def members(self):
        return [pseudo_e_testbench(s) for s in self.SHIFTS]

    @staticmethod
    def assert_names_member(exc, member, options=NewtonOptions()):
        assert [e["stage"] for e in exc.events] == ["newton", "gmin",
                                                     "source"]
        assert {e["member"] for e in exc.events} == {member}
        assert exc.events[1]["last_gmin"] == options.gmin_steps[0]
        assert exc.events[2]["last_alpha"] == 1.0 / options.source_steps
        assert f"member {member} of" in str(exc)

    def test_operating_point_raises(self, member_one_stuck):
        with pytest.raises(ConvergenceError) as info:
            ensemble_operating_point(*stack(self.members()))
        self.assert_names_member(info.value, 1)

    def test_transient_initial_condition_raises(self, member_one_stuck):
        members = self.members()
        with pytest.raises(ConvergenceError) as info:
            transient_ensemble(members, [default_options()] * len(members))
        self.assert_names_member(info.value, 1)

    def test_no_budget_fails_first_member(self):
        """Unstubbed: a zero iteration budget fails every lane, and the
        error names the first."""
        options = NewtonOptions(max_iterations=0)
        with pytest.raises(ConvergenceError) as info:
            ensemble_operating_point(*stack(self.members()),
                                     options=options)
        self.assert_names_member(info.value, 0, options)

    def test_dc_sweep_writes_member_off(self, member_one_stuck):
        sweep = np.linspace(0.0, VDD, 5)
        template, values = stack(self.members())
        sols, ok, es = ensemble_dc_sweep(template, "v_a", sweep, values)
        assert ok.tolist() == [True, False, True]
        assert np.isnan(sols[:, 1]).all()
        out = es.node_slot("out")
        for m in (0, 2):
            scalar = dc_sweep(self.members()[m], "v_a", sweep)
            np.testing.assert_allclose(sols[:, m, out],
                                       scalar.voltage("out"),
                                       rtol=1e-9, atol=1e-12)


class TestUnbatched:
    """The ensemble batches UnifiedTft FETs and constant or ramp sources
    only.  A FET on another model, a source whose value is a plain
    callable, and a zero-duration ramp each raise :class:`CircuitError`
    at construction, naming the element, whether one member or every
    member carries it; the scalar engine still simulates them."""

    CASES = {
        "level1-fet": (level1_testbench, ((0.2e-12, 4e-5), (1e-12, 6e-5)),
                       "mp"),
        "callable-source": (callable_source_testbench,
                            ((0.5e-12, 1e-4), (4e-12, 4e-4)), "v_a"),
        "zero-duration-ramp": (step_testbench,
                               ((0.5e-12, 1e-4), (4e-12, 4e-4)), "v_a"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected(self, case):
        bench, args, element = self.CASES[case]
        members = [bench(*a) for a in args]
        match = f"element {element!r} of"
        for template, values in (stack(members), (members[0], None)):
            with pytest.raises(CircuitError, match=match):
                EnsembleSystem(template, values)
        with pytest.raises(CircuitError, match=match):
            ensemble_operating_point(*stack(members))
        with pytest.raises(CircuitError, match=match):
            transient_ensemble(members, [default_options()] * len(members))
        # The scalar oracle takes the same circuit.
        operating_point(members[0])

    def test_one_member_rejects(self):
        """A source that is a ramp in one member and a callable in
        another is not batched either."""
        members = [inverter_testbench(0.5e-12, 1e-4),
                   callable_source_testbench(4e-12, 4e-4)]
        with pytest.raises(CircuitError, match="element 'v_a' of"):
            EnsembleSystem(*stack(members))


class TestPerMemberFallback:
    """A stack the ensemble rejects falls back to the scalar engine,
    member by member.  The rejection leaves every member as it was, so the scalar engine solves each one
    exactly as it solves a fresh copy, and records an output crossing.
    A callable source loses nothing more: restated as the ``RampValue``
    it computes, the stack batches again and matches the scalar answer
    for the callable member by member."""

    CASES = {
        "level1-fet": (
            level1_testbench, ((0.2e-12, 4e-5), (1e-12, 6e-5)), L1_VDD,
            dict(dt=2.5e-11, t_stop=1e-8, dt_max=4e-10,
                 lte_tol=5e-4 * L1_VDD)),
        "callable-source": (
            callable_source_testbench, ((0.5e-12, 1e-4), (4e-12, 4e-4)),
            VDD, dict(dt=5e-6, t_stop=2e-3, dt_max=8e-5,
                      lte_tol=5e-4 * VDD)),
    }
    #: The batchable restatement of a case's members, where one exists.
    RESTATED = {"callable-source": inverter_testbench}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_operating_point_matches_scalar(self, case):
        bench, args, _vdd, _options = self.CASES[case]
        members = [bench(*a) for a in args]
        with pytest.raises(CircuitError):
            ensemble_operating_point(*stack(members))
        scalar = []
        for ckt, a in zip(members, args):
            xs = operating_point(ckt)[0]
            assert np.array_equal(xs, operating_point(bench(*a))[0])
            scalar.append(xs)
        if case in self.RESTATED:
            restated = [self.RESTATED[case](*a) for a in args]
            x, _es = ensemble_operating_point(*stack(restated))
            for m, xs in enumerate(scalar):
                np.testing.assert_allclose(
                    x[m, :xs.size], xs, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_transient_matches_scalar(self, case):
        bench, args, vdd, options = self.CASES[case]
        opts = TransientOptions(**options)
        members = [bench(*a) for a in args]
        with pytest.raises(CircuitError):
            transient_ensemble(members, [opts] * len(members))
        for ckt, a in zip(members, args):
            w = run_scalar(ckt, opts)["out"]
            fresh = run_scalar(bench(*a), opts)["out"]
            assert np.array_equal(w.times, fresh.times)
            assert np.array_equal(w.values, fresh.values)
            assert len(w.crossing_times(0.5 * vdd)) > 0
        if case in self.RESTATED:
            restated = [self.RESTATED[case](*a) for a in args]
            ens = transient_ensemble(restated, [opts] * len(restated),
                                     [Probe("out", 0.5 * VDD)]).run()
            for m, ckt in enumerate(members):
                assert_member_matches(ens, m, ckt, opts)
