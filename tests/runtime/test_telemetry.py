"""Telemetry registry: instruments, spans, and cross-process merge."""

from __future__ import annotations

import ast
import pickle
import re
import threading
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


class _FakeClock:
    """A clock that moves only when told to."""

    def __init__(self, step: float = 0.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        now = self.now
        self.now += self.step
        return now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch) -> _FakeClock:
    fake = _FakeClock()
    monkeypatch.setattr(telemetry, "_clock", fake)
    return fake


@telemetry.timed("solver.stamp")
def _stamp_step() -> None:
    pass


def _profiled_task(i: int) -> int:
    """Books exactly one 2 ms ``stamp`` call in whichever process runs it."""
    real = telemetry._clock
    telemetry._clock = _FakeClock(step=0.002)
    try:
        _stamp_step()
    finally:
        telemetry._clock = real
    return i


def _stages(**seconds: float) -> dict[str, float]:
    """A ``{stage: seconds}`` map over every stage, 0 where not given."""
    return {stage: seconds.get(stage, 0.0) for stage in telemetry.STAGES}


class TestInstruments:
    def test_disabled_is_noop(self):
        telemetry.reset()
        telemetry.enable(False)
        telemetry.count("x")
        telemetry.observe("y", 1.0)
        _stamp_step()
        with telemetry.span("s"):
            pass
        assert telemetry.counters() == {}
        assert telemetry.timers() == {}
        assert telemetry.span_tree() == []
        assert telemetry.span_totals() == {}

    def test_counters_and_distributions(self, monkeypatch):
        monkeypatch.setattr(telemetry, "_clock", _FakeClock(step=0.125))
        timed = telemetry.timed("t")(lambda: None)
        with telemetry.collecting():
            telemetry.count("n")
            telemetry.count("n", 4)
            telemetry.observe("d", 3.0)
            telemetry.observe("d", 1.0)
            telemetry.observe("d", 2.0)
            timed()
            timed()
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


class TestSelfTime:
    """``timed`` books each call's duration less its nested timed calls."""

    def test_nested_frames_book_disjoint_self_time(self, clock):
        @telemetry.timed("inner")
        def inner():
            clock.advance(0.6)

        @telemetry.timed("outer")
        def outer():
            clock.advance(0.3)
            inner()
            clock.advance(0.1)

        with telemetry.collecting():
            outer()
            timers = telemetry.timers()
        assert timers["outer"]["seconds"] == pytest.approx(0.4)
        assert timers["inner"]["seconds"] == pytest.approx(0.6)
        assert timers["outer"]["calls"] == timers["inner"]["calls"] == 1

    def test_grandchild_time_is_charged_to_its_parent_only(self, clock):
        @telemetry.timed("c")
        def c():
            clock.advance(0.5)

        @telemetry.timed("b")
        def b():
            clock.advance(0.2)
            c()

        @telemetry.timed("a")
        def a():
            clock.advance(0.1)
            b()

        with telemetry.collecting():
            a()
            timers = telemetry.timers()
        assert timers["a"]["seconds"] == pytest.approx(0.1)
        assert timers["b"]["seconds"] == pytest.approx(0.2)
        assert timers["c"]["seconds"] == pytest.approx(0.5)

    def test_same_stage_nesting_books_the_stage_once(self, clock):
        @telemetry.timed("solver.structures")
        def inner():
            clock.advance(0.6)

        @telemetry.timed("solver.structures")
        def outer():
            clock.advance(0.4)
            inner()

        with telemetry.collecting():
            outer()
            timer = telemetry.timers()["solver.structures"]
            out = telemetry.breakdown(1.0)
        assert timer["seconds"] == pytest.approx(1.0)
        assert timer["calls"] == 2
        assert out["structures"] == pytest.approx(1.0)
        assert out["overhead"] == 0.0

    def test_exception_unwinds_the_frame(self, clock):
        @telemetry.timed("inner")
        def inner():
            clock.advance(0.6)
            raise ValueError("boom")

        @telemetry.timed("outer")
        def outer():
            with pytest.raises(ValueError):
                inner()
            clock.advance(0.4)

        with telemetry.collecting():
            with pytest.raises(KeyError):
                telemetry.timed("raises")(lambda: {}["missing"])()
            assert telemetry._REG.frames == []
            outer()
            assert telemetry._REG.frames == []
            timers = telemetry.timers()
        assert timers["inner"]["seconds"] == pytest.approx(0.6)
        assert timers["outer"]["seconds"] == pytest.approx(0.4)
        assert timers["raises"]["calls"] == 1

    def test_frame_stacks_are_per_thread(self, clock):
        """A call on another thread, made while this thread's frame is
        open, is not charged to that frame."""
        opened, done = threading.Event(), threading.Event()
        seen = []

        @telemetry.timed("worker")
        def worker():
            clock.advance(0.6)

        def other_thread():
            opened.wait()
            seen.append(list(telemetry._REG.frames))
            worker()
            done.set()

        @telemetry.timed("main")
        def main():
            opened.set()
            done.wait()
            clock.advance(0.4)

        with telemetry.collecting():
            thread = threading.Thread(target=other_thread)
            thread.start()
            main()
            thread.join()
            timers = telemetry.timers()
        assert seen == [[]]
        assert timers["worker"]["seconds"] == pytest.approx(0.6)
        assert timers["main"]["seconds"] == pytest.approx(1.0)


class TestProfileAccounting:
    """breakdown() must reject stage sums exceeding wall time."""

    def test_double_counted_stage_raises(self):
        with pytest.raises(telemetry.ProfileAccountingError,
                           match="double-counted"):
            telemetry.breakdown(1.0, stages=_stages(solve=0.8,
                                                    step_control=0.5))

    def test_timer_granularity_slack_tolerated(self):
        # A per-call-overhead overshoot of a fraction of a percent is
        # measurement noise, not double-counting.
        out = telemetry.breakdown(1.0, stages=_stages(solve=1.001))
        assert out["overhead"] == 0.0

    def test_check_can_be_disabled(self):
        out = telemetry.breakdown(1.0, check=False,
                                  stages=_stages(solve=2.0))
        assert out["solve"] == pytest.approx(2.0)
        assert out["overhead"] == 0.0

    def test_nested_stages_not_double_counted(self, clock):
        """``device_eval`` runs inside ``stamp``; self time keeps the
        pair within the wall time with no subtraction in breakdown()."""
        @telemetry.timed("solver.device_eval")
        def evaluate():
            clock.advance(0.6)

        @telemetry.timed("solver.stamp")
        def assemble():
            clock.advance(0.3)
            evaluate()

        with telemetry.collecting():
            assemble()
            out = telemetry.breakdown(0.9)
        assert out["stamp"] == pytest.approx(0.3)
        assert out["device_eval"] == pytest.approx(0.6)
        assert out["overhead"] == 0.0


def _src_modules() -> list[Path]:
    """Every ``src/`` module except ``telemetry.py`` itself."""
    own = Path(telemetry.__file__).resolve()
    return [path for path in sorted(own.parents[1].rglob("*.py"))
            if path != own]


def test_stages_are_booked_only_by_timed_decorators():
    """Every ``"solver.<stage>"`` literal outside ``telemetry.py`` is the
    argument of a ``@telemetry.timed(...)`` decorator, and nothing
    books a timer by hand."""
    stray = []
    for path in _src_modules():
        text = path.read_text(encoding="utf-8")
        if "time_add(" in text:
            stray.append(f"{path.name}: time_add(")
        tree = ast.parse(text)
        in_decorator = {
            id(arg) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for dec in node.decorator_list
            if isinstance(dec, ast.Call)
            and ast.unparse(dec.func) == "telemetry.timed"
            for arg in dec.args}
        stray += [f"{path.name}:{node.lineno}: {node.value}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and re.fullmatch(r"solver\.\w+", node.value)
                  and id(node) not in in_decorator]
    assert not stray


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
