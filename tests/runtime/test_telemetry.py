"""Telemetry registry: instruments, spans, and cross-process merge."""

from __future__ import annotations

import pickle
import re
from pathlib import Path

import pytest

from repro.errors import ConvergenceError
from repro.runtime import telemetry
from repro.runtime.executor import parallel_map
from repro.spice import Circuit, Resistor, VoltageSource, operating_point


def _divider(v: float) -> Circuit:
    ckt = Circuit("div")
    ckt.add(VoltageSource("vin", "in", "0", v))
    ckt.add(Resistor("r1", "in", "mid", 1e3))
    ckt.add(Resistor("r2", "mid", "0", 1e3))
    return ckt


def _solve_task(v: float) -> float:
    """Module-level (picklable) task driving the real solver counters."""
    x, sys = operating_point(_divider(v))
    return sys.voltage(x, "mid")


def _count_task(i: int) -> int:
    telemetry.count("test.tasks")
    telemetry.count("test.units", i)
    telemetry.observe("test.occupancy", float(i))
    with telemetry.span("unit"):
        pass
    return i


def _profiled_task(i: int) -> int:
    if telemetry.ENABLED:
        telemetry.time_add("solver.stamp", 0.002)
        telemetry.time_add("solver.solve", 0.001)
    return i


class TestInstruments:
    def test_disabled_is_noop(self):
        telemetry.reset()
        telemetry.enable(False)
        telemetry.count("x")
        telemetry.observe("y", 1.0)
        telemetry.time_add("z", 0.5)
        with telemetry.span("s"):
            pass
        assert telemetry.counters() == {}
        assert telemetry.timers() == {}
        assert telemetry.span_tree() == []
        assert telemetry.span_totals() == {}

    def test_counters_and_distributions(self):
        with telemetry.collecting():
            telemetry.count("n")
            telemetry.count("n", 4)
            telemetry.observe("d", 3.0)
            telemetry.observe("d", 1.0)
            telemetry.observe("d", 2.0)
            telemetry.time_add("t", 0.25, calls=2)
            assert telemetry.counters() == {"n": 5}
            dist = telemetry.metrics_snapshot()["distributions"]["d"]
            assert dist["count"] == 3
            assert dist["min"] == 1.0 and dist["max"] == 3.0
            assert dist["mean"] == pytest.approx(2.0)
            timer = telemetry.timers()["t"]
            assert timer["calls"] == 2 and timer["seconds"] == 0.25

    def test_reset_clears_everything(self):
        with telemetry.collecting():
            telemetry.count("a")
            telemetry.warn("w")
        telemetry.reset()
        assert telemetry.counters() == {}
        assert telemetry.warnings() == []


class TestSpans:
    def test_nesting_builds_a_tree(self):
        with telemetry.collecting():
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    pass
                with telemetry.span("inner"):
                    pass
            tree = telemetry.span_tree()
        assert len(tree) == 1
        root = tree[0]
        assert root["name"] == "outer"
        assert [c["name"] for c in root["children"]] == ["inner", "inner"]
        assert root["seconds"] >= sum(c["seconds"] for c in root["children"]) \
            or root["seconds"] >= 0.0

    def test_span_totals_flatten_paths(self):
        with telemetry.collecting():
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    pass
                with telemetry.span("inner"):
                    pass
            totals = telemetry.span_totals()
        assert totals["outer"]["count"] == 1
        assert totals["outer/inner"]["count"] == 2

    def test_exception_unwinds_stack(self):
        with telemetry.collecting():
            with pytest.raises(ValueError):
                with telemetry.span("outer"):
                    with telemetry.span("inner"):
                        raise ValueError("boom")
            assert telemetry.current_path() == ""
            totals = telemetry.span_totals()
        assert set(totals) == {"outer", "outer/inner"}

    def test_current_path(self):
        with telemetry.collecting():
            assert telemetry.current_path() == ""
            with telemetry.span("a"):
                with telemetry.span("b"):
                    assert telemetry.current_path() == "a/b"


class TestMerge:
    def test_merge_is_additive_and_grafts_prefix(self):
        with telemetry.collecting():
            telemetry.count("n", 2)
            snap = {
                "counters": {"n": 3},
                "timers": {"t": [0.5, 2]},
                "dists": {"d": [2, 10.0, 1.0, 9.0]},
                "span_totals": {"task": [4, 0.25]},
                "warnings": ["worker said so"],
            }
            with telemetry.span("outer"):
                telemetry.merge_snapshot(snap)
            telemetry.merge_snapshot(
                {"dists": {"d": [1, 0.5, 0.5, 0.5]}})
            assert telemetry.counters()["n"] == 5
            assert telemetry.timers()["t"] == {"seconds": 0.5, "calls": 2}
            dist = telemetry.metrics_snapshot()["distributions"]["d"]
            assert dist["count"] == 3
            assert dist["min"] == 0.5 and dist["max"] == 9.0
            assert telemetry.span_totals()["outer/task"]["count"] == 4
            assert "worker said so" in telemetry.warnings()

    def test_parallel_counters_match_serial(self):
        """The regression the registry exists for: metrics accumulated in
        worker processes must come back and equal the serial run's."""
        tasks = list(range(6))
        with telemetry.collecting():
            parallel_map(_count_task, tasks, workers=1)
            serial = telemetry.counters()
            serial_dist = telemetry.metrics_snapshot()["distributions"]
        with telemetry.collecting():
            parallel_map(_count_task, tasks, workers=2)
            merged = telemetry.counters()
            merged_dist = telemetry.metrics_snapshot()["distributions"]
        assert merged == serial
        assert merged_dist == serial_dist

    def test_parallel_solver_counters_match_serial(self):
        voltages = [0.5, 1.0, 1.5, 2.0]
        with telemetry.collecting():
            serial_values = [r.value for r in
                             parallel_map(_solve_task, voltages, workers=1)]
            serial = telemetry.counters()
        with telemetry.collecting():
            parallel_values = [r.value for r in
                               parallel_map(_solve_task, voltages, workers=2)]
            merged = telemetry.counters()
        assert parallel_values == serial_values
        assert serial["spice.newton_solves"] == len(voltages)
        assert merged == serial

    def test_worker_spans_graft_under_call_site(self):
        with telemetry.collecting():
            with telemetry.span("outer"):
                parallel_map(_count_task, list(range(4)), workers=2)
            totals = telemetry.span_totals()
        assert totals["outer/unit"]["count"] == 4

    def test_profile_counters_survive_workers(self):
        """A stage profile must not lose worker-side stage time."""
        tasks = list(range(5))
        with telemetry.collecting():
            parallel_map(_profiled_task, tasks, workers=1)
            serial = telemetry.timers()
        with telemetry.collecting():
            parallel_map(_profiled_task, tasks, workers=2)
            merged = telemetry.timers()
        telemetry.reset()
        assert serial["solver.stamp"]["calls"] == len(tasks)
        assert merged == serial
        breakdown = telemetry.breakdown(1.0)
        assert breakdown["overhead"] == pytest.approx(1.0)


class TestProfileAccounting:
    """breakdown() must reject stage sums exceeding wall time."""

    def test_double_counted_stage_raises(self):
        with telemetry.collecting():
            telemetry.time_add("solver.solve", 0.8)
            telemetry.time_add("solver.step_control", 0.5)  # 1.3 > 1.0
            with pytest.raises(telemetry.ProfileAccountingError,
                               match="double-counted"):
                telemetry.breakdown(1.0)
        telemetry.reset()

    def test_timer_granularity_slack_tolerated(self):
        # A per-call-overhead overshoot of a fraction of a percent is
        # measurement noise, not double-counting.
        with telemetry.collecting():
            telemetry.time_add("solver.solve", 1.001)
            out = telemetry.breakdown(1.0)
        telemetry.reset()
        assert out["overhead"] == 0.0

    def test_check_can_be_disabled(self):
        with telemetry.collecting():
            telemetry.time_add("solver.solve", 2.0)
            out = telemetry.breakdown(1.0, check=False)
        telemetry.reset()
        assert out["solve"] == pytest.approx(2.0)
        assert out["overhead"] == 0.0

    def test_device_eval_not_double_counted(self):
        # device_eval is recorded inside stamp regions; the subtraction
        # must keep the pair within wall time.
        with telemetry.collecting():
            telemetry.time_add("solver.stamp", 0.9)
            telemetry.time_add("solver.device_eval", 0.6)
            out = telemetry.breakdown(1.0)
        telemetry.reset()
        assert out["stamp"] == pytest.approx(0.3)
        assert out["device_eval"] == pytest.approx(0.6)


def test_stage_list_matches_booked_timers():
    """Every listed stage is booked in ``src/``, and only listed ones."""
    src = Path(telemetry.__file__).resolve().parents[1]
    booked = {name for path in src.rglob("*.py")
              for name in re.findall(r"[\"']solver\.(\w+)[\"']",
                                     path.read_text(encoding="utf-8"))}
    assert booked == set(telemetry.STAGES)


class TestConvergenceErrorEvents:
    def test_trail_renders_in_message(self):
        exc = ConvergenceError("no convergence", iterations=150,
                               residual=3.2e-5)
        exc.add_event("newton", iterations=150, residual=3.2e-5, node="out")
        exc.add_event("gmin", last_gmin=0)
        assert "trail:" in str(exc)
        assert "newton(" in str(exc) and "gmin(" in str(exc)
        assert "node=out" in str(exc)

    def test_events_survive_pickling(self):
        exc = ConvergenceError("stuck", iterations=9).add_event(
            "source", last_alpha=0.25)
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.events == exc.events
        assert "source(last_alpha=0.25)" in str(clone)

    @staticmethod
    def _diode_load():
        from repro.devices import PENTACENE
        from repro.spice import Fet

        ckt = Circuit("bad")
        ckt.add(VoltageSource("vdd", "vdd", "0", -10.0))
        ckt.add(Fet("m1", "out", "out", "vdd", PENTACENE, w=1e-3, l=1e-5))
        ckt.add(Resistor("rl", "out", "0", 1e6))
        return ckt

    def test_solver_failure_carries_trail(self):
        from repro.spice import NewtonOptions

        # A zero-iteration budget forces the whole newton -> gmin ->
        # source fallback chain to fail, deterministically.
        with pytest.raises(ConvergenceError) as info:
            operating_point(self._diode_load(),
                            options=NewtonOptions(max_iterations=0))
        trail = info.value.events
        assert trail, "fallback chain should record events"
        stages = [event["stage"] for event in trail]
        assert "newton" in stages
        assert "gmin" in stages and "source" in stages
        assert "trail:" in str(info.value)

    @pytest.mark.parametrize("gmin_steps", [(), (1e-2, 1e-6)])
    def test_gmin_ladder_must_end_at_zero(self, gmin_steps):
        """A ladder that never reaches gmin = 0 would hand back a point of
        another circuit (or, empty, the unsolved initial guess) as the
        operating point; both engines read the same options."""
        from repro.spice import NewtonOptions

        with pytest.raises(ValueError, match="gmin_steps"):
            operating_point(self._diode_load(),
                            options=NewtonOptions(max_iterations=0,
                                                  gmin_steps=gmin_steps))
