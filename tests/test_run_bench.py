"""Accounting of the ``run_bench`` microbench rows and of the committed
``BENCH_perf.json``."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import repro.analysis.figures
import repro.core.physical
import repro.core.tradeoffs
from benchmarks.perf import run_bench
from repro.runtime import telemetry


@telemetry.timed("solver.ipc")
def _fake_simulations() -> None:
    time.sleep(0.01)


def _fake_depth_sweep(*_args, **_kwargs):
    """Stands in for the sweep: 20 ms of wall, half booked as a stage."""
    time.sleep(0.01)
    _fake_simulations()
    telemetry.count("fake.sweeps")


@pytest.fixture
def fake_depth_sweep(monkeypatch):
    """Swap everything the depth_sweep_warm_cache row touches for cheap
    stand-ins."""
    monkeypatch.setattr(repro.analysis.figures, "load_libraries",
                        lambda: (None, None))
    monkeypatch.setattr(repro.analysis.figures, "wire_models",
                        lambda: (None, None))
    monkeypatch.setattr(repro.core.tradeoffs, "make_traces",
                        lambda **_kwargs: {})
    monkeypatch.setattr(repro.core.tradeoffs, "depth_sweep",
                        _fake_depth_sweep)
    monkeypatch.setattr(repro.core.physical, "reset_structure_caches",
                        lambda: None)
    yield
    telemetry.enable(False)
    telemetry.reset()


def test_depth_sweep_profile_sums_to_recorded_seconds(tmp_path, fake_depth_sweep):
    """The profile is the median run's breakdown: its stages plus
    ``overhead`` add up to the row's median, not to the untimed cold
    set-up run or to all the runs together."""
    out = tmp_path / "bench.json"
    assert run_bench.main(["--only", "depth_sweep_warm_cache", "--profile",
                           "--out", str(out)]) == 0
    row = json.loads(out.read_text())["benchmarks"]["depth_sweep_warm_cache"]
    assert row["n"] == run_bench.REPEATS
    assert row["profile"]["ipc"] > 0
    assert sum(row["profile"].values()) == pytest.approx(row["median"],
                                                         abs=1e-3)


def test_profile_keeps_the_run_report_whole(tmp_path, fake_depth_sweep):
    """Profiling a row must not wipe the report's spans and counters, and
    no stage of the profile can exceed its timer's total in the report."""
    out, report = tmp_path / "bench.json", tmp_path / "report.json"
    assert run_bench.main(["--only", "depth_sweep_warm_cache", "--profile",
                           "--out", str(out), "--report",
                           str(report)]) == 0
    profile = json.loads(
        out.read_text())["benchmarks"]["depth_sweep_warm_cache"]["profile"]
    metrics = json.loads(report.read_text())["metrics"]
    # The untimed cold sweep and every timed warm one count.
    sweeps = 1 + run_bench.REPEATS
    assert metrics["counters"]["fake.sweeps"] == sweeps
    assert metrics["timers"]["solver.ipc"]["calls"] == sweeps
    for stage, seconds in profile.items():
        if stage != "overhead":
            booked = metrics["timers"].get(f"solver.{stage}",
                                           {}).get("seconds", 0.0)
            assert seconds <= booked + 1e-9, (stage, seconds, booked)


def test_rows_without_profile_leave_telemetry_off(tmp_path,
                                                  fake_depth_sweep):
    """Without ``--profile`` or a report, a row records only its
    statistics and the run books nothing to telemetry."""
    telemetry.reset()
    out = tmp_path / "bench.json"
    assert run_bench.main(["--only", "depth_sweep_warm_cache", "--out",
                           str(out)]) == 0
    payload = json.loads(out.read_text())
    row = payload["benchmarks"]["depth_sweep_warm_cache"]
    assert set(row) == {"median", "q1", "q3", "n", "values"}
    assert len(row["values"]) == row["n"] == run_bench.REPEATS
    assert not telemetry.ENABLED
    assert "fake.sweeps" not in telemetry.counters()
    assert set(payload["environment"]) == {
        "cpu_count", "python", "machine", "ipc_kernel", "spice_backend"}


def test_report_exports_a_trace(tmp_path, fake_depth_sweep, capsys):
    """``python -m repro trace`` turns the ``--report`` document into a
    Chrome trace with one span for the row."""
    from repro.__main__ import main as repro_main

    out, report = tmp_path / "bench.json", tmp_path / "report.json"
    assert run_bench.main(["--only", "depth_sweep_warm_cache", "--out",
                           str(out), "--report", str(report)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.json",
                                                          "report.json"]
    assert repro_main(["trace", str(report)]) == 0
    trace = json.loads((tmp_path / "report.trace.json").read_text())
    names = {event.get("name") for event in trace["traceEvents"]}
    assert "bench:depth_sweep_warm_cache" in names


def test_startup_row_times_fresh_interpreters(tmp_path, monkeypatch):
    """The row times ``REPEATS`` fresh ``python -m repro list``
    interpreters and records their median and quartiles."""
    durations = iter([0.03, 0.01, 0.02, 0.05, 0.04, 0.07, 0.06])
    commands = []

    def fake_run(cmd, **_kwargs):
        commands.append(cmd)
        time.sleep(next(durations))

    monkeypatch.setattr(run_bench.subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    assert run_bench.main(["--only", "startup", "--out", str(out)]) == 0
    row = json.loads(out.read_text())["benchmarks"]["startup"]
    assert len(commands) == run_bench.REPEATS == row["n"] == 7
    assert commands[0][1:] == ["-m", "repro", "list"]
    assert row["median"] == pytest.approx(0.04, abs=0.01)
    assert row["q1"] == pytest.approx(0.02, abs=0.01)
    assert row["q3"] == pytest.approx(0.06, abs=0.01)


def _recorded() -> dict:
    return json.loads((Path(run_bench.__file__).resolve().parents[2]
                       / "BENCH_perf.json").read_text())["benchmarks"]


def test_recorded_rows_are_the_rows_run_bench_emits():
    """``BENCH_perf.json`` holds exactly the current rows, each a median
    with its quartiles over ``REPEATS`` runs: a dropped row or one
    recorded by an older ``run_bench`` has to be regenerated."""
    recorded = _recorded()
    assert set(recorded) == set(run_bench.BENCHES)
    for name, row in recorded.items():
        assert row["q1"] <= row["median"] <= row["q3"], name
        assert row["n"] == run_bench.REPEATS, name


def test_recorded_rows_share_one_stage_schema():
    """Every profiled row of the committed ``BENCH_perf.json`` breaks its
    time down over ``telemetry.STAGES`` plus ``overhead``, the stages
    ``run_bench --profile`` emits; a row recorded under an older stage
    list has to be regenerated."""
    allowed = set(telemetry.STAGES) | {"overhead"}
    profiled = {name: row["profile"] for name, row in _recorded().items()
                if "profile" in row}
    assert profiled
    stray = {name: sorted(set(profile) - allowed)
             for name, profile in profiled.items()
             if set(profile) - allowed}
    assert not stray
