"""Accounting of the ``run_bench --profile`` microbench rows."""

from __future__ import annotations

import json
import time
import types

import pytest

import repro.analysis.figures
import repro.core.ipc_native
import repro.core.physical
import repro.core.tradeoffs
import repro.spice.backends
from benchmarks.perf import run_bench
from repro.runtime import profiling


def _fake_depth_sweep(*_args, **_kwargs):
    """Stands in for the sweep: 20 ms of wall, half booked as a stage."""
    t0 = time.perf_counter()
    time.sleep(0.02)
    if profiling.ENABLED:
        profiling.add("ipc", (time.perf_counter() - t0) / 2)


def test_depth_sweep_profile_sums_to_recorded_seconds(tmp_path, monkeypatch):
    """Regression: the row profiled cold + warm but recorded cold, so
    its stages plus ``overhead`` exceeded the row's own seconds."""
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
                        lambda: types.SimpleNamespace(name="numpy"))
    monkeypatch.setattr(run_bench, "_warm_ipc_kernel", lambda: None)

    out = tmp_path / "bench.json"
    try:
        assert run_bench.main(["--only", "depth_sweep", "--profile",
                               "--out", str(out)]) == 0
    finally:
        profiling.reset()
    row = json.loads(out.read_text())["benchmarks"]["depth_sweep"]
    assert row["profile"]["ipc"] > 0
    assert sum(row["profile"].values()) == pytest.approx(row["seconds"],
                                                         abs=1e-3)
