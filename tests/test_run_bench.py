"""Accounting of the ``run_bench --profile`` microbench rows, and the
``--check`` perf gate."""

from __future__ import annotations

import json
import os
import platform
import time
import types
from pathlib import Path

import pytest

import repro.analysis.figures
import repro.core.ipc_native
import repro.core.physical
import repro.core.tradeoffs
import repro.spice.backends
from benchmarks.perf import run_bench
from repro.runtime import telemetry


def _fake_depth_sweep(*_args, **_kwargs):
    """Stands in for the sweep: 20 ms of wall, half booked as a stage."""
    t0 = time.perf_counter()
    time.sleep(0.02)
    telemetry.count("fake.sweeps")
    if telemetry.ENABLED:
        telemetry.time_add("solver.ipc", (time.perf_counter() - t0) / 2)


@pytest.fixture
def fake_depth_sweep(monkeypatch):
    """Swap everything the depth_sweep row touches for cheap stand-ins."""
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
    monkeypatch.setattr(repro.core.ipc_native, "native_available",
                        lambda: False)
    monkeypatch.setattr(repro.spice.backends, "get_backend",
                        lambda: types.SimpleNamespace(
                            name="numpy", thread_budget=lambda: 1))
    monkeypatch.setattr(run_bench, "_warm_ipc_kernel", lambda: None)
    yield
    telemetry.enable(False)
    telemetry.reset()


def test_depth_sweep_profile_sums_to_recorded_seconds(tmp_path,
                                                      fake_depth_sweep):
    """Regression: the row profiled cold + warm but recorded cold, so
    its stages plus ``overhead`` exceeded the row's own seconds."""
    out = tmp_path / "bench.json"
    assert run_bench.main(["--only", "depth_sweep", "--profile",
                           "--out", str(out)]) == 0
    row = json.loads(out.read_text())["benchmarks"]["depth_sweep"]
    assert row["profile"]["ipc"] > 0
    assert sum(row["profile"].values()) == pytest.approx(row["seconds"],
                                                         abs=1e-3)


def test_profile_keeps_the_run_report_whole(tmp_path, fake_depth_sweep):
    """Profiling a row must not wipe the report's spans and counters."""
    out, report = tmp_path / "bench.json", tmp_path / "report.json"
    assert run_bench.main(["--only", "depth_sweep", "--profile",
                           "--out", str(out), "--report",
                           str(report)]) == 0
    row = json.loads(out.read_text())["benchmarks"]["depth_sweep"]
    metrics = json.loads(report.read_text())["metrics"]
    # Cold and warm sweeps both count; the profile covers the cold one.
    assert metrics["counters"]["fake.sweeps"] == 2
    assert row["profile"]["ipc"] <= metrics["timers"]["solver.ipc"]["seconds"]
    assert metrics["timers"]["solver.ipc"]["calls"] == 2


def test_startup_row_records_median_min_and_spread(tmp_path, monkeypatch):
    """The row times fresh ``python -m repro list`` interpreters."""
    durations = iter([0.03, 0.01, 0.02, 0.05, 0.04])
    commands = []

    def fake_run(cmd, **_kwargs):
        commands.append(cmd)
        time.sleep(next(durations))

    monkeypatch.setattr(run_bench.subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    assert run_bench.main(["--only", "startup", "--out", str(out)]) == 0
    row = json.loads(out.read_text())["benchmarks"]["startup"]
    assert len(commands) == run_bench.STARTUP_REPEATS == 5
    assert commands[0][1:] == ["-m", "repro", "list"]
    assert row["min_seconds"] <= row["seconds"]
    assert row["seconds"] == pytest.approx(0.03, abs=0.01)
    assert row["spread_seconds"] == pytest.approx(0.04, abs=0.01)
    assert row["seed_seconds"] == run_bench.SEED_BASELINES["startup"]


def test_recorded_rows_share_one_stage_schema():
    """Every profiled row of the committed ``BENCH_perf.json`` breaks its
    time down over ``telemetry.STAGES`` plus ``overhead``, the stages
    ``run_bench --profile`` emits; a row recorded under an older stage
    list has to be regenerated."""
    recorded = json.loads(
        (Path(run_bench.__file__).resolve().parents[2]
         / "BENCH_perf.json").read_text())["benchmarks"]
    allowed = set(telemetry.STAGES) | {"overhead"}
    profiled = {name: row["profile"] for name, row in recorded.items()
                if "profile" in row}
    assert profiled
    stray = {name: sorted(set(profile) - allowed)
             for name, profile in profiled.items()
             if set(profile) - allowed}
    assert not stray


class TestRegressGate:
    ENV = {"cpu_count": os.cpu_count(),
           "python": platform.python_version(),
           "machine": platform.machine()}

    def _baseline(self, seconds: float = 1.0) -> dict:
        return {
            "environment": dict(self.ENV),
            "benchmarks": {
                "depth_sweep": {"seconds": seconds, "seed_seconds": 0.9},
                "unseeded": {"seconds": 1.0, "seed_seconds": None},
            },
        }

    def test_within_tolerance_passes(self):
        status, lines = run_bench.regress_check(
            {"depth_sweep": 1.2}, self._baseline(), current_env=self.ENV,
            tolerance=0.25)
        assert status == 0
        assert any("passed" in line for line in lines)

    def test_slowdown_beyond_tolerance_fails(self):
        status, lines = run_bench.regress_check(
            {"depth_sweep": 1.3}, self._baseline(), current_env=self.ENV,
            tolerance=0.25)
        assert status == 1
        assert any("depth_sweep" in line for line in lines)

    def test_unseeded_rows_not_gated(self):
        status, _ = run_bench.regress_check(
            {"unseeded": 50.0}, self._baseline(), current_env=self.ENV)
        assert status == 0

    def test_env_mismatch_self_skips(self):
        status, lines = run_bench.regress_check(
            {"depth_sweep": 99.0}, self._baseline(),
            current_env=dict(self.ENV, cpu_count=12345))
        assert status == 0
        assert any("skipped" in line for line in lines)

    def _check(self, tmp_path, baseline: dict) -> int:
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        return run_bench.main(["--only", "depth_sweep", "--check", str(path),
                               "--out", str(tmp_path / "bench.json")])

    def test_check_fails_on_a_slowed_row(self, tmp_path, fake_depth_sweep,
                                         capsys):
        # The fake sweep sleeps 20 ms, far past a 1 ms recorded row.
        assert self._check(tmp_path, self._baseline(seconds=0.001)) == 1
        assert "regress FAILED" in capsys.readouterr().out

    def test_check_skips_on_an_environment_mismatch(self, tmp_path,
                                                    fake_depth_sweep,
                                                    capsys):
        baseline = self._baseline(seconds=0.001)
        baseline["environment"]["cpu_count"] = 12345
        assert self._check(tmp_path, baseline) == 0
        assert "--check: regress skipped: environment fingerprint " \
            "mismatch" in capsys.readouterr().out
