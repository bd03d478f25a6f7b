"""Block areas from composed cell counts, one count per block shape.

The complex ALU slice is priced from its parts
(:func:`complex_alu_slice_counts`) and never built for area; these tests
tie the composed counts to the built slice, keep the sweep path off the
builder, and check that both libraries share one count per shape.
"""

from __future__ import annotations

import pytest

import repro.core.physical as physical
import repro.synthesis.generators as generators
from repro.analysis.dse import dse_sweep
from repro.core.tradeoffs import make_traces
from repro.synthesis.generators import (complex_alu_slice,
                                        complex_alu_slice_counts)
from repro.synthesis.mapping import lower_cell_counts, mapped_cell_counts


@pytest.fixture()
def _cold(tmp_path, monkeypatch):
    """Empty result cache and in-process memos."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    physical.reset_structure_caches()
    yield
    physical.reset_structure_caches()


def test_composed_counts_equal_built_slice():
    for width in range(1, 33):
        built = complex_alu_slice(width)
        composed = complex_alu_slice_counts(width)
        assert composed == built.cell_counts(), width
        assert lower_cell_counts(composed) == mapped_cell_counts(built), \
            width


def _sweep_areas(combos, traces):
    result = dse_sweep(combos=combos, widths=(8, 12), width_pairs=((2, 4),),
                       max_depth=10, traces=traces, workers=1)
    return [(p.combo, p.config.name, p.config.depth, p.physical.area,
             p.physical.period) for p in result.points]


def test_cold_sweep_never_builds_complex_slice(organic_lib, silicon_lib,
                                               organic_wire, silicon_wire,
                                               tmp_path, monkeypatch):
    combos = [("organic", organic_lib, organic_wire),
              ("silicon", silicon_lib, silicon_wire)]
    traces = make_traces(workloads=["gzip"], n_instructions=300)

    def refuse(*args, **kwargs):
        raise AssertionError("complex_alu_slice built on the area path")

    try:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "plain"))
        physical.reset_structure_caches()
        want = _sweep_areas(combos, traces)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "patched"))
        physical.reset_structure_caches()
        monkeypatch.setattr(physical, "complex_alu_slice", refuse)
        monkeypatch.setattr(generators, "complex_alu_slice", refuse)
        got = _sweep_areas(combos, traces)
    finally:
        physical.reset_structure_caches()
    assert got == want
    assert {combo for combo, *_ in got} == {"organic", "silicon"}


def test_reset_clears_count_memo(_cold):
    physical._block_counts("alu", 8)
    physical._block_counts("complex", 4)
    assert set(physical._COUNT_CACHE) == {("alu", 8), ("complex", 4)}
    physical.reset_structure_caches()
    assert physical._COUNT_CACHE == {}


@pytest.mark.parametrize("block", ["adder", "alu", "complex"])
def test_both_libraries_share_one_count(block, organic_lib, silicon_lib,
                                        _cold, monkeypatch):
    calls = []
    name = ("complex_alu_slice_counts" if block == "complex"
            else "mapped_cell_counts")
    counted = getattr(physical, name)

    def counting(*args):
        calls.append(args)
        return counted(*args)

    monkeypatch.setattr(physical, name, counting)
    areas = [physical._block_area(block, 8, lib)
             for lib in (organic_lib, silicon_lib)]
    assert len(calls) == 1
    assert areas[0] != areas[1]
