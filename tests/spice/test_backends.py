"""Solver-backend dispatch, equivalence, and degradation tests.

The backend layer promises that the choice of backend changes *where* the
linear algebra runs, never *what* it computes: the compiled kernel
agrees with the NumPy reference to solver tolerance, a singular lane is
deactivated instead of killing its batch, and a machine without a C
compiler degrades to the reference backend with a single warning.
"""

import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConvergenceError
from repro.runtime import native_build, telemetry
from repro.spice import (
    Circuit,
    EnsembleSystem,
    NewtonOptions,
    Probe,
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

from tests.spice.stacking import (
    VDD,
    inverter_testbench,
    stack,
    transient_ensemble,
)

BACKENDS = ("numpy", "native")


@pytest.fixture(autouse=True)
def _backend_isolation():
    """Re-resolve the backend (and the kernel load state) after each test."""
    yield
    reset_backend()
    native_mod.reset()


def _use(monkeypatch, name: str, whole_timestep: bool | None = None):
    """Pin the numpy oracle, or (``native``) resolve: native if it loads."""
    if whole_timestep is not None:
        monkeypatch.setattr(NativeBackend, "whole_timestep", whole_timestep)
    reset_backend(NumpyBackend() if name == "numpy" else None)
    return get_backend()


def grid_run():
    """Final values + crossing times for a 2x2 slew/load ensemble grid;
    every member's output crosses 0.5 VDD at least once."""
    members, opts = [], []
    for slew in (1e-4, 4e-4):
        for load in (0.5e-12, 4e-12):
            members.append(inverter_testbench(load=load, slew=slew))
            dt = min(2e-3 / 400, slew / 8)
            opts.append(TransientOptions(dt=dt, t_stop=2e-3, dt_max=16 * dt,
                                         lte_tol=5e-4 * VDD))
    ens = transient_ensemble(members, opts, [Probe("out", 0.5 * VDD)]).run()
    crossings = [ens.crossing_times(0, m) for m in range(len(members))]
    assert all(len(c) > 0 for c in crossings)
    return ens.final_value("out"), crossings


def _pin_batch(task):
    """One input pin's arcs as one ensemble (module-level: picklable)."""
    from repro.characterization import harness
    design, pin, points = task
    return harness.measure_pin_batch(design, pin, points)


def _counters(run):
    """``run()``'s result and the telemetry counters it booked."""
    telemetry.reset()
    telemetry.enable(True)
    try:
        result = run()
        metrics = telemetry.metrics_snapshot()
    finally:
        telemetry.enable(False)
        telemetry.reset()
    return result, dict(metrics.get("counters", metrics))


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
            ens = transient_ensemble(members, opts,
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
            ens = transient_ensemble(
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
        native run (the schedule contract's reference arithmetic), on
        one kernel thread and on two.
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
            ens = transient_ensemble(members, opts,
                                     [Probe("a", 0.5 * VDD)]).run()
            return (ens.final_value("out"),
                    [ens.crossing_times(0, m) for m in range(2)],
                    ens.steps.copy())

        runs = []
        for threads in (1, 2):
            monkeypatch.setattr(NativeBackend, "threads", threads)
            runs.append(_counters(run))
        monkeypatch.setattr(NativeBackend, "whole_timestep", False)
        final_ref, cross_ref, steps_ref = run()
        for (final_n, cross_n, steps_n), counters in runs:
            assert counters["backend.native.timestep_bailouts"] == 2
            assert all(len(c) == 1 for c in cross_n)
            assert np.array_equal(final_n, final_ref)
            assert np.array_equal(steps_n, steps_ref)
            for c, rc in zip(cross_n, cross_ref):
                assert np.array_equal(c, rc)
        assert runs[1][1]["backend.native.timestep_threads"] == 2

    def test_dt_underflow_bails_to_python(self, monkeypatch):
        """A lane whose step would halve below dt_min bails to Python.

        Lane 0 may halve its step once and fails Newton on the input
        edge: it bails while the other lanes finish in C.  Python then
        replays its step and raises the same ConvergenceError, from the
        same state, on one kernel thread and on two; the per-iteration
        path raises it too.
        """
        self._native_or_skip(monkeypatch, whole_timestep=True)

        def run():
            members, opts = [], []
            for k, slew in enumerate((1e-4, 4e-4, 2e-4, 3e-4)):
                members.append(inverter_testbench(slew=slew))
                opts.append(TransientOptions(
                    dt=min(2e-3 / 50, slew), t_stop=2e-3,
                    max_halvings=1 if k == 0 else 12,
                    newton=NewtonOptions(max_iterations=4)))
            ens = transient_ensemble(members, opts,
                                     [Probe("a", 0.5 * VDD)])
            with pytest.raises(ConvergenceError) as excinfo:
                ens.run()
            return (str(excinfo.value), ens.x.tobytes(), ens.t.tolist(),
                    ens.steps.tolist())

        runs = []
        for threads in (1, 2):
            monkeypatch.setattr(NativeBackend, "threads", threads)
            runs.append(_counters(run))
        (one, counters_1), (two, counters_2) = runs
        assert two == one
        assert counters_2["backend.native.timestep_bailouts"] == 1
        assert counters_2["backend.native.timestep_threads"] == 2
        assert counters_2["ensemble.transient_steps"] == \
            counters_1["ensemble.transient_steps"] > 0
        monkeypatch.setattr(NativeBackend, "whole_timestep", False)
        assert run()[0] == one[0]

    def test_pool_workers_run_one_thread_each(self, monkeypatch):
        """In a two-worker ``parallel_map`` pool each worker's kernel
        calls run one thread.

        The affinity is widened to four CPUs (fork-started workers
        inherit the patch), so a worker that ignored its budget of one
        would run more.  A two-input cell gives the pool two tasks (one
        ensemble per input pin).
        """
        from repro.cells.library_def import organic_library_definition
        from repro.characterization import harness
        from repro.runtime import executor

        self._native_or_skip(monkeypatch, whole_timestep=True)
        monkeypatch.setattr(executor.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3}, raising=False)
        defn = organic_library_definition()
        base = harness.default_grid(defn)
        design = defn.cell("nand2")
        points = [(rise, slew, load) for rise in (True, False)
                  for load in base.loads[:3] for slew in base.slews[:2]]
        tasks = [(design, pin, points) for pin in design.inputs]

        def characterize(workers):
            return [r.unwrap() for r in executor.parallel_map(
                _pin_batch, tasks, workers=workers)]

        serial, serial_counters = _counters(lambda: characterize(1))
        assert serial_counters["backend.native.timestep_threads"] > \
            serial_counters["backend.native.timestep_calls"]
        pooled, counters = _counters(lambda: characterize(2))
        calls = counters["backend.native.timestep_calls"]
        assert calls == serial_counters["backend.native.timestep_calls"] > 0
        assert counters["backend.native.timestep_threads"] == calls
        assert pooled == serial

    def test_disable_knob_falls_back_to_per_iteration(self, monkeypatch):
        backend = self._native_or_skip(monkeypatch, whole_timestep=False)

        class _Probe:
            pass

        et = _Probe()  # never touched: the flag declines before reading
        assert backend.ensemble_timestep(et) is None

    @settings(max_examples=6, deadline=None)
    @given(batch=st.sampled_from([1, 7, 64]),
           threads=st.sampled_from([1, 2, 3]))
    def test_chunk_size_bit_identical_event_times(self, batch, threads):
        """ENSEMBLE_BATCH and the lane threads are pure scheduling.

        Each lane integrates to completion independently in C, so the
        per-lane step schedule — and every derived event time — cannot
        depend on which chunk a grid point lands in, nor on which thread
        integrates it.  Characterising the same mini-grid with batch 1,
        7 and 64 on 1-3 threads must give *bit-identical* delays and
        transitions to batch 64 on one thread (not approx: the contract
        is equality).
        """
        from repro import runtime
        from repro.cells.library_def import organic_library_definition
        from repro.characterization import harness

        with pytest.MonkeyPatch.context() as mp:
            self._native_or_skip(mp)
            defn = organic_library_definition()
            grid = harness.default_grid(defn)
            cell = defn.cells["inv"]
            points = [(True, s, l) for s in grid.slews[:3]
                      for l in grid.loads[:3]]
            mp.setattr(runtime, "ENSEMBLE_BATCH", batch)
            mp.setattr(NativeBackend, "threads", threads)
            got = harness.measure_pin_batch(cell, "a", points)
            mp.setattr(runtime, "ENSEMBLE_BATCH", 64)
            mp.setattr(NativeBackend, "threads", 1)
            ref = harness.measure_pin_batch(cell, "a", points)
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
        es = EnsembleSystem(*stack(members))
        G = es.G_static.copy()
        G[0] = 0.0                       # lane 0: exactly singular
        b = np.zeros((es.B, es.size))
        b[:, es.size - 1] = 1.0          # drive the source branch row
        x, conv = es.newton_batch(np.arange(es.B), G, b,
                                  np.zeros((es.B, es.size)), NewtonOptions())
        assert conv.tolist() == [False, True]
        assert np.all(np.isfinite(x))


class TestFirstScalarSolve:
    """The numpy backend's scalar solve is ``numpy.linalg.solve`` and
    loads no SciPy."""

    @staticmethod
    def _first_solve(J, F):
        code = (
            "import json, sys\n"
            "import numpy as np\n"
            "from repro.spice.backends import NumpyBackend\n"
            "J, F = (np.array(a) for a in json.loads(sys.stdin.read()))\n"
            "assert 'scipy' not in sys.modules\n"
            "delta, ok = NumpyBackend().solve(J, F)\n"
            "assert 'scipy' not in sys.modules\n"
            "print(json.dumps([[float(v).hex() for v in delta], bool(ok)]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             input=json.dumps([J.tolist(), F.tolist()]),
                             capture_output=True, text=True)
        hexes, ok = json.loads(out.stdout)
        return np.array([float.fromhex(h) for h in hexes]), ok

    def test_returns_the_linalg_solve_answer(self):
        rng = np.random.default_rng(3)
        J = rng.normal(size=(6, 6)) + 3.0 * np.eye(6)
        F = rng.normal(size=6)
        delta, ok = self._first_solve(J, F)
        assert ok
        assert np.array_equal(delta, np.linalg.solve(J, -F))

    def test_singular_system_reports_not_ok(self):
        J = np.ones((4, 4))
        delta, ok = self._first_solve(J, np.arange(4.0))
        assert not ok
        assert np.array_equal(delta, np.zeros(4))


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
        ens, counters = _counters(lambda: transient_ensemble(
            members, opts, [Probe("a", 0.5 * VDD)]).run())
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

        # Whole-timestep C loop (stats marshalled from the sweep kernel)
        # on one thread, two, and one more than the four lanes.
        factorizations = set()
        for threads in (1, 2, 5):
            monkeypatch.setattr(NativeBackend, "threads", threads)
            final_ts, parity_ts, all_ts = self._counted_run()
            assert all_ts.get("backend.native.timestep_calls", 0) > 0
            assert parity_ts == ref_parity
            factorizations.add(all_ts["backend.native.lu_factorizations"])
        assert len(factorizations) == 1

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


class TestFrozenFactorReuse:
    """Bypass-frozen lanes factor their Jacobian once per Newton solve.

    The organic inverter's first 3 x 3 slew/load arc grid spends about a
    thousand lane-steps bypass-frozen.  The delays and transitions below
    are ``float.hex`` values recorded when every iteration refactored:
    reuse must leave every bit in place.  The numpy backend differs from
    native in the last ulps, so the pin applies to native only.
    """

    GOLDEN = [
        ("0x1.3d70b62841badp-14", "0x1.088a2b8e314f0p-14"),
        ("0x1.e4b8eef1927f1p-14", "0x1.dc015259eeff3p-14"),
        ("0x1.81e29be976b06p-13", "0x1.bcfa7284581fep-13"),
        ("0x1.378dc4ae13440p-14", "0x1.10e4eb14d026cp-14"),
        ("0x1.dac96de8b4422p-14", "0x1.e668d1762db80p-14"),
        ("0x1.7df25fab1982cp-13", "0x1.c09a387a4254cp-13"),
        ("0x1.458ec5646764ep-14", "0x1.9b9bcdddb3dc6p-14"),
        ("0x1.f07cce518e240p-14", "0x1.20ddef3fbef28p-13"),
        ("0x1.89d9477142ef1p-13", "0x1.de148454670c2p-13"),
    ]

    def _arc_grid(self, monkeypatch):
        from repro.cells.library_def import organic_library_definition
        from repro.characterization import harness

        if _use(monkeypatch, "native").name != "native":
            pytest.skip("no C compiler on this machine")
        defn = organic_library_definition()
        grid = harness.default_grid(defn)
        points = [(True, s, l) for s in grid.slews[:3]
                  for l in grid.loads[:3]]
        return _counters(lambda: harness.measure_pin_batch(
            defn.cells["inv"], "a", points))

    def test_frozen_lanes_factor_fewer_times_than_they_iterate(
            self, monkeypatch):
        _, counters = self._arc_grid(monkeypatch)
        assert counters.get("backend.native.bypassed_lane_steps", 0) > 0
        factors = counters.get("backend.native.lu_factorizations", 0)
        assert 0 < factors < counters["ensemble.newton_lane_iterations"]

    def test_arc_grid_bit_identical_to_recorded_values(self, monkeypatch):
        """On one kernel thread, two, and one more than the nine lanes."""
        for threads in (1, 2, 10):
            monkeypatch.setattr(NativeBackend, "threads", threads)
            arcs, counters = self._arc_grid(monkeypatch)
            assert counters.get("backend.native.bypassed_lane_steps", 0) > 0
            got = [(delay.hex(), slew.hex()) for delay, slew in arcs]
            assert got == self.GOLDEN
            if NativeBackend.whole_timestep:    # not the per-iteration twin
                # One sweep of the nine points, then a one-lane straggler
                # retry; a call runs at most one thread per lane.
                assert counters["backend.native.timestep_threads"] == \
                    min(threads, 9) + 1


class TestDispatchAndDegradation:
    def test_forced_numpy(self):
        """A pinned instance holds until the next reset."""
        pinned = NumpyBackend()
        reset_backend(pinned)
        assert get_backend() is pinned and get_backend().name == "numpy"
        reset_backend()
        loads = native_mod.load_kernel() is not None
        assert get_backend().name == ("native" if loads else "numpy")

    def test_repro_native_0_resolves_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native_mod.reset()
        assert _use(monkeypatch, "native").name == "numpy"

    def test_compile_failure_degrades_with_single_warning(
            self, monkeypatch, tmp_path, caplog):
        """No compiler + no cached kernel: one warning, correct results."""
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path / "kernels"))
        monkeypatch.setattr(native_build, "find_compiler", lambda: None)
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
