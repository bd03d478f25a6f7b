"""Solver-backend dispatch, equivalence, and degradation tests.

The backend layer promises that ``REPRO_BACKEND`` changes *where* the
linear algebra runs, never *what* it computes: the compiled kernel
agrees with the NumPy reference to solver tolerance, a singular lane is
deactivated instead of killing its batch, and a machine without a C
compiler degrades to the reference backend with a single warning.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells.topologies import diode_load_inverter
from repro.devices.pentacene import pentacene_model
from repro.runtime import telemetry
from repro.spice import (
    Capacitor,
    Circuit,
    EnsembleSystem,
    EnsembleTransient,
    NewtonOptions,
    Probe,
    RampValue,
    Resistor,
    TransientOptions,
    VoltageSource,
)
from repro.spice.backends import (
    NativeBackend,
    NumpyBackend,
    get_backend,
    reset_backend,
)
from repro.spice.backends import native as native_mod

VDD = 15.0

BACKENDS = ("numpy", "native")


@pytest.fixture(autouse=True)
def _backend_isolation():
    """Re-resolve the backend (and the kernel load state) after each test."""
    yield
    reset_backend()
    native_mod.reset()


def _use(monkeypatch, name: str, whole_timestep: bool | None = None):
    if whole_timestep is not None:
        monkeypatch.setattr(NativeBackend, "whole_timestep", whole_timestep)
    monkeypatch.setenv("REPRO_BACKEND", name)
    reset_backend()
    return get_backend()


def inverter_testbench(load=1e-12, slew=2e-4, vt_shift=0.0):
    model = pentacene_model(vt_shift=vt_shift)
    cell = diode_load_inverter(model, w_drive=100e-6, w_load=30e-6, vdd=VDD)
    ckt = Circuit("tb")
    ckt.add(VoltageSource("v_vdd", "vdd", "0", VDD))
    ckt.add(VoltageSource("v_a", "a", "0",
                          RampValue(0.0, VDD, 0.2 * slew, slew)))
    cell.instantiate(ckt, {"a": "a", "out": "out", "vdd": "vdd", "vss": "0"})
    ckt.add(Capacitor("c_load", "out", "0", load))
    return ckt


def grid_run():
    """Final values + crossing times for a 2x2 slew/load ensemble grid."""
    members, opts = [], []
    for slew in (1e-4, 4e-4):
        for load in (0.5e-12, 4e-12):
            members.append(inverter_testbench(load=load, slew=slew))
            dt = min(2e-3 / 400, slew / 8)
            opts.append(TransientOptions(dt=dt, t_stop=2e-3, dt_max=16 * dt,
                                         lte_tol=5e-4 * VDD))
    ens = EnsembleTransient(members, opts, [Probe("out", 0.5 * VDD)]).run()
    crossings = [ens.crossing_times(0, m) for m in range(len(members))]
    return ens.final_value("out"), crossings


class TestEquivalence:
    def test_native_matches_numpy_within_tolerance(self, monkeypatch):
        backend = _use(monkeypatch, "native")
        if backend.name != "native":
            pytest.skip("no C compiler on this machine")
        final, cross = grid_run()
        _use(monkeypatch, "numpy")
        ref_final, ref_cross = grid_run()
        np.testing.assert_allclose(final, ref_final, rtol=1e-6, atol=1e-9)
        for c, rc in zip(cross, ref_cross):
            assert len(c) == len(rc)
            np.testing.assert_allclose(c, rc, rtol=1e-6, atol=1e-12)

    @settings(max_examples=5, deadline=None)
    @given(vt_shift=st.floats(-0.4, 0.4),
           load=st.floats(0.5e-12, 4e-12),
           slew=st.floats(1e-4, 4e-4))
    def test_randomized_bindings_agree_across_backends(
            self, vt_shift, load, slew):
        """Hypothesis-randomized bindings: every backend, same answer."""
        def run():
            members = [inverter_testbench(load=load, slew=slew,
                                          vt_shift=vt_shift),
                       inverter_testbench()]
            dt = min(2e-3 / 400, slew / 8)
            opts = [TransientOptions(dt=dt, t_stop=2e-3, dt_max=16 * dt,
                                     lte_tol=5e-4 * VDD)] * 2
            ens = EnsembleTransient(members, opts,
                                    [Probe("out", 0.5 * VDD)]).run()
            return ens.final_value("out")

        try:
            with pytest.MonkeyPatch.context() as mp:
                _use(mp, "numpy")
                ref = run()
            with pytest.MonkeyPatch.context() as mp:
                if _use(mp, "native").name == "native":
                    np.testing.assert_allclose(run(), ref,
                                               rtol=1e-6, atol=1e-9)
        finally:
            reset_backend()


class TestWholeTimestepLoop:
    """The native whole-timestep entry point (ensemble_timestep)."""

    def _native_or_skip(self, mp, whole_timestep: bool | None = None):
        backend = _use(mp, "native", whole_timestep)
        if backend.name != "native":
            pytest.skip("no C compiler on this machine")
        return backend

    def test_bitwise_identical_to_per_iteration_native(self, monkeypatch):
        """The C sweep loop replays the numpy orchestration bit-exactly.

        ``NativeBackend.whole_timestep = False`` keeps the per-iteration
        Newton kernel but runs the sweep loop in Python — the schedule
        contract says both paths produce the same steps, finals and
        crossings to the last bit (probing the ramping *input* guarantees
        the lanes actually record crossings, so the comparison is not
        vacuous).
        """
        def run():
            members, opts = [], []
            for slew in (1e-4, 4e-4):
                for load in (0.5e-12, 4e-12):
                    members.append(inverter_testbench(load=load, slew=slew))
                    dt = min(2e-3 / 400, slew / 8)
                    opts.append(TransientOptions(
                        dt=dt, t_stop=2e-3, dt_max=16 * dt,
                        lte_tol=5e-4 * VDD))
            ens = EnsembleTransient(
                members, opts,
                [Probe("a", 0.5 * VDD), Probe("out", 0.5 * VDD)]).run()
            cross = [ens.crossing_times(p, m)
                     for p in range(2) for m in range(len(members))]
            return ens.final_value("out"), cross, ens.steps.copy()

        self._native_or_skip(monkeypatch, whole_timestep=True)
        final_ts, cross_ts, steps_ts = run()
        assert sum(len(c) for c in cross_ts) > 0
        monkeypatch.setattr(NativeBackend, "whole_timestep", False)
        final_it, cross_it, steps_it = run()
        assert np.array_equal(final_ts, final_it)
        assert np.array_equal(steps_ts, steps_it)
        for c_ts, c_it in zip(cross_ts, cross_it):
            assert np.array_equal(c_ts, c_it)

    def test_crossing_buffer_overflow_bails_to_python(self, monkeypatch):
        """A lane overflowing the C crossing buffer resumes in Python.

        With the buffer forced to zero capacity every crossing-bearing
        lane bails at its first event; the Python sweep loop must finish
        those lanes with results bitwise equal to the per-iteration
        native run (the schedule contract's reference arithmetic).
        """
        self._native_or_skip(monkeypatch, whole_timestep=True)
        monkeypatch.setattr(native_mod, "CROSS_CAP", 0)

        def run():
            members, opts = [], []
            for slew in (1e-4, 4e-4):
                members.append(inverter_testbench(slew=slew))
                dt = min(2e-3 / 400, slew / 8)
                opts.append(TransientOptions(
                    dt=dt, t_stop=2e-3, dt_max=16 * dt,
                    lte_tol=5e-4 * VDD))
            ens = EnsembleTransient(members, opts,
                                    [Probe("a", 0.5 * VDD)]).run()
            return (ens.final_value("out"),
                    [ens.crossing_times(0, m) for m in range(2)],
                    ens.steps.copy())

        final_n, cross_n, steps_n = run()
        assert all(len(c) == 1 for c in cross_n)
        monkeypatch.setattr(NativeBackend, "whole_timestep", False)
        final_ref, cross_ref, steps_ref = run()
        assert np.array_equal(final_n, final_ref)
        assert np.array_equal(steps_n, steps_ref)
        for c, rc in zip(cross_n, cross_ref):
            assert np.array_equal(c, rc)

    def test_disable_knob_falls_back_to_per_iteration(self, monkeypatch):
        backend = self._native_or_skip(monkeypatch, whole_timestep=False)

        class _Probe:
            pass

        et = _Probe()  # never touched: the flag declines before reading
        assert backend.ensemble_timestep(et) is None

    @settings(max_examples=6, deadline=None)
    @given(batch=st.sampled_from([1, 7, 64]))
    def test_chunk_size_bit_identical_event_times(self, batch):
        """ENSEMBLE_BATCH is pure scheduling under the native loop.

        Each lane integrates to completion independently in C, so the
        per-lane step schedule — and every derived event time — cannot
        depend on which chunk a grid point lands in.  Characterising the
        same mini-grid with batch 1, 7 and 64 must give *bit-identical*
        delays and transitions (not approx: the contract is equality).
        """
        from repro import runtime
        from repro.cells.library_def import organic_library_definition
        from repro.characterization import harness

        with pytest.MonkeyPatch.context() as mp:
            self._native_or_skip(mp)
            defn = organic_library_definition()
            grid = harness.default_grid(defn)
            cell = defn.cells["inv"]
            points = [(s, l) for s in grid.slews[:3]
                      for l in grid.loads[:3]]
            mp.setattr(runtime, "ENSEMBLE_BATCH", batch)
            got = harness.measure_arc_batch(cell, "a", True, points)
            mp.setattr(runtime, "ENSEMBLE_BATCH", 64)
            ref = harness.measure_arc_batch(cell, "a", True, points)
        reset_backend()
        native_mod.reset()
        assert got == ref


class TestSingularLanes:
    def test_solve_stacked_flags_singular_lane(self):
        """A singular lane yields ok=False, zeros — never LinAlgError."""
        rng = np.random.default_rng(0)
        J = rng.normal(size=(3, 4, 4)) + 4.0 * np.eye(4)
        J[1] = 0.0
        F = rng.normal(size=(3, 4))
        delta, ok = NumpyBackend().solve_stacked(J, F)
        assert ok.tolist() == [True, False, True]
        assert np.all(delta[1] == 0.0)
        np.testing.assert_allclose(J[0] @ delta[0], -F[0], atol=1e-9)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_singular_lane_never_kills_the_batch(self, monkeypatch, name):
        """Integration: one degenerate lane, the others still converge."""
        backend = _use(monkeypatch, name)
        if name == "native" and backend.name != "native":
            pytest.skip("no C compiler on this machine")
        members = []
        for k in range(2):
            ckt = Circuit(f"rc{k}")
            ckt.add(VoltageSource("v1", "in", "0", 1.0))
            ckt.add(Resistor("r1", "in", "out", 1e3))
            ckt.add(Resistor("r2", "out", "0", 1e3 * (k + 1)))
            members.append(ckt)
        es = EnsembleSystem(members)
        G = es.G_static.copy()
        G[0] = 0.0                       # lane 0: exactly singular
        b = np.zeros((es.B, es.size))
        b[:, es.size - 1] = 1.0          # drive the source branch row
        x, conv = es.newton_batch(np.arange(es.B), G, b,
                                  np.zeros((es.B, es.size)), NewtonOptions())
        assert conv.tolist() == [False, True]
        assert np.all(np.isfinite(x))


class TestCounterParity:
    """The C kernels report the same solver counters as the numpy path.

    The native backends marshal per-lane Newton iteration and probe
    crossing counts out of the C kernels; the contract is *exact*
    integer equality with the numpy reference loop (same schedule, same
    arithmetic, same counts) — not just statistical agreement.  Probing
    the ramping input guarantees every lane records a crossing, so the
    crossing-counter comparison is never vacuous.
    """

    PARITY_KEYS = (
        "ensemble.transient_steps",
        "ensemble.transient_halvings",
        "ensemble.lte_rejections",
        "ensemble.newton_lane_iterations",
        "ensemble.probe_crossings",
    )

    def _counted_run(self):
        members, opts = [], []
        for slew in (1e-4, 4e-4):
            for load in (0.5e-12, 4e-12):
                members.append(inverter_testbench(load=load, slew=slew))
                dt = min(2e-3 / 400, slew / 8)
                opts.append(TransientOptions(dt=dt, t_stop=2e-3,
                                             dt_max=16 * dt,
                                             lte_tol=5e-4 * VDD))
        telemetry.reset()
        telemetry.enable(True)
        try:
            ens = EnsembleTransient(members, opts,
                                    [Probe("a", 0.5 * VDD)]).run()
            metrics = telemetry.metrics_snapshot()
        finally:
            telemetry.enable(False)
            telemetry.reset()
        counters = dict(metrics.get("counters", metrics))
        parity = {key: counters.get(key, 0) for key in self.PARITY_KEYS}
        return ens.final_value("out"), parity, counters

    def test_native_counters_match_numpy(self, monkeypatch):
        _use(monkeypatch, "numpy")
        ref_final, ref_parity, _ = self._counted_run()
        assert ref_parity["ensemble.transient_steps"] > 0
        assert ref_parity["ensemble.newton_lane_iterations"] > 0
        assert ref_parity["ensemble.probe_crossings"] >= 4  # one per lane

        backend = _use(monkeypatch, "native", whole_timestep=True)
        if backend.name != "native":
            pytest.skip("no C compiler on this machine")

        # Whole-timestep C loop (stats marshalled from the sweep kernel).
        final_ts, parity_ts, all_ts = self._counted_run()
        assert all_ts.get("backend.native.timestep_calls", 0) > 0
        assert parity_ts == ref_parity

        # Per-iteration C Newton kernel (stats from the newton kernel).
        monkeypatch.setattr(NativeBackend, "whole_timestep", False)
        final_it, parity_it, all_it = self._counted_run()
        assert all_it.get("backend.native.kernel_calls", 0) > 0
        assert all_it.get("backend.native.timestep_calls", 0) == 0
        assert parity_it == ref_parity

        np.testing.assert_allclose(final_ts, ref_final,
                                   rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(final_it, ref_final,
                                   rtol=1e-6, atol=1e-9)


class TestDispatchAndDegradation:
    def test_forced_numpy(self, monkeypatch):
        assert _use(monkeypatch, "numpy").name == "numpy"

    def test_unknown_name_warns_and_uses_auto(self, monkeypatch, caplog):
        """Unknown names, the retired ``blocked`` included, mean auto."""
        auto = _use(monkeypatch, "auto").name
        for name in ("no-such-backend", "blocked"):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="repro"):
                backend = _use(monkeypatch, name)
            assert backend.name == auto
            assert any("unknown REPRO_BACKEND" in r.getMessage()
                       for r in caplog.records)

    def test_compile_failure_degrades_with_single_warning(
            self, monkeypatch, tmp_path, caplog):
        """No compiler + no cached kernel: one warning, correct results."""
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path / "kernels"))
        monkeypatch.setattr(native_mod.shutil, "which", lambda name: None)
        native_mod.reset()
        with caplog.at_level(logging.WARNING, logger="repro"):
            backend = _use(monkeypatch, "native")
            get_backend()                # resolving again must not re-warn
            assert native_mod.load_kernel() is None
        assert backend.name == "numpy"
        native_warnings = [
            r for r in caplog.records
            if r.name == "repro.spice.backends.native"]
        assert len(native_warnings) == 1
        assert "no C compiler" in native_warnings[0].getMessage()
        # The degraded process still solves correctly.
        final, _ = grid_run()
        assert np.all(np.isfinite(final))

    def test_per_backend_solve_counters(self, monkeypatch):
        backend = _use(monkeypatch, "numpy")
        telemetry.reset()
        telemetry.enable(True)
        try:
            J = np.eye(3)[None].repeat(2, axis=0)
            backend.solve_stacked(J, np.ones((2, 3)))
        finally:
            telemetry.enable(False)
        metrics = telemetry.metrics_snapshot()
        counters = metrics.get("counters", metrics)
        assert counters.get("backend.numpy.solve_calls", 0) >= 1
        assert counters.get("backend.numpy.lanes_solved", 0) >= 2
