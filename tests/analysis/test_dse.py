"""Batched DSE driver: grid shape, determinism, and equality with a cold
per-point rebuild."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.dse import (
    DATA_WIDTHS,
    MAX_DEPTH,
    MIN_DEPTH,
    WIDTH_PAIRS,
    DsePoint,
    DseResult,
    default_combos,
    dse_sweep,
)
from repro.characterization import organic_library
from repro.core.physical import core_physical, reset_structure_caches
from repro.core.tradeoffs import make_traces
from repro.errors import ConfigError
from repro.runtime import telemetry
from repro.synthesis.wires import organic_wire_model


@pytest.fixture(scope="module")
def tiny_traces():
    return make_traces(workloads=["gzip"], n_instructions=300)


def _tiny_sweep(combos, traces, **kw):
    return dse_sweep(combos=combos, widths=(8,), width_pairs=((2, 4),),
                     max_depth=12, traces=traces, **kw)


@pytest.fixture()
def _fresh_structures():
    reset_structure_caches()
    yield
    reset_structure_caches()


def test_stock_grid_shape():
    """The frozen bench grid: 1008 points before any evaluation."""
    assert len(DATA_WIDTHS) == 7
    assert len(WIDTH_PAIRS) == 4
    assert MAX_DEPTH - MIN_DEPTH + 1 == 9
    combos = default_combos()
    assert [c[0] for c in combos] == [
        "organic", "organic_no_wire", "silicon", "silicon_no_wire"]
    assert len(DATA_WIDTHS) * len(WIDTH_PAIRS) * 9 * len(combos) == 1008


def test_tiny_sweep_points(tiny_traces, _fresh_structures):
    lib, wire = organic_library(), organic_wire_model()
    result = _tiny_sweep([("organic", lib, wire)], tiny_traces)
    assert result.combos == ("organic",)
    # Depth chain runs from the baseline depth up to max_depth inclusive.
    depths = [p.config.depth for p in result.points]
    assert depths == sorted(depths)
    assert depths[-1] == 12
    assert len(result) == len(depths) == len(set(depths))
    for p in result.points:
        assert isinstance(p, DsePoint)
        assert p.combo == "organic"
        assert p.config.data_width == 8
        assert p.physical.frequency > 0
        assert p.ipc["gzip"] > 0
        assert p.mean_performance() > 0


def test_combo_accessors(tiny_traces, _fresh_structures):
    lib, wire = organic_library(), organic_wire_model()
    combos = [("organic", lib, wire),
              ("organic_no_wire", lib, wire.scaled(0.0))]
    result = _tiny_sweep(combos, tiny_traces)
    assert set(result.combos) == {"organic", "organic_no_wire"}
    assert len(result.for_combo("organic")) + \
        len(result.for_combo("organic_no_wire")) == len(result)
    with pytest.raises(ConfigError):
        result.for_combo("germanium")
    best = result.best()
    assert best.mean_performance() == max(p.mean_performance()
                                          for p in result.points)
    best_org = result.best("organic")
    assert best_org.combo == "organic"
    # Zeroed wires never perform worse at the same design point.
    by_name = {(p.config.name, p.config.depth): p
               for p in result.for_combo("organic_no_wire")}
    for p in result.for_combo("organic"):
        assert by_name[(p.config.name, p.config.depth)].physical.frequency \
            >= p.physical.frequency


def test_grid_matches_cold_rebuild(tiny_traces, _fresh_structures,
                                   monkeypatch):
    """A grid over widths 8, 12 and 16, whose adders extend one another
    and are re-timed as deltas, equals field for field a rebuild of each
    point on cleared memos."""
    monkeypatch.setenv("REPRO_CACHE", "0")
    lib, wire = organic_library(), organic_wire_model()
    with telemetry.collecting():
        result = dse_sweep(combos=[("organic", lib, wire)],
                           widths=(8, 12, 16), width_pairs=((2, 4),),
                           max_depth=11, traces=tiny_traces, workers=1)
    counters = telemetry.counters()
    assert counters["sta.incremental_runs"] > 0
    assert counters["sta.retimed_gates"] < counters["sta.gates"]
    for point in result.points:
        reset_structure_caches()
        cold = core_physical(point.config, lib, wire)
        for f in dataclasses.fields(cold):
            assert getattr(point.physical, f.name) == getattr(cold, f.name), \
                (point.config.name, point.config.depth, f.name)


def test_determinism(tiny_traces, _fresh_structures):
    lib, wire = organic_library(), organic_wire_model()
    r1 = _tiny_sweep([("organic", lib, wire)], tiny_traces)
    reset_structure_caches()
    r2 = _tiny_sweep([("organic", lib, wire)], tiny_traces)
    assert [(p.config, p.physical.period, p.ipc, p.performance)
            for p in r1.points] == \
           [(p.config, p.physical.period, p.ipc, p.performance)
            for p in r2.points]


def test_dse_cli_quick(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_structure_caches()
    from repro.__main__ import main
    assert main(["dse", "--quick", "--no-report"]) == 0
    out = capsys.readouterr().out
    assert "dse" in out and "points" in out
    reset_structure_caches()


def test_empty_result_guards():
    result = DseResult(points=[], combos=("organic",))
    assert len(result) == 0
    assert result.for_combo("organic") == []
    with pytest.raises(ValueError):
        result.best()
