"""Incremental STA and shared-structure synthesis (PR 8).

The contract under test is *bit-identical results*: the incremental
path must reproduce the full re-time path exactly — every arrival,
slew, load, per-gate delay, the critical path and the max delay —
across copy-on-extend construction, in-place edits and the
feature-gate fallback.  The scalar engine re-times an extension from
its parent's session; the vector engine and an in-place edit re-time
in full.  Tolerance-free comparisons throughout.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SynthesisError
from repro.runtime import telemetry
from repro.synthesis import sta
from repro.synthesis.generators import (
    carry_select_adder,
    extend_carry_select_adder,
    ripple_carry_adder,
    simple_alu,
)
from repro.synthesis.mapping import (
    map_cached,
    mapped_cell_counts,
    reset_map_cache,
    technology_map,
)
from repro.synthesis.netlist import LIBRARY_CELLS


@pytest.fixture(autouse=True)
def _incremental_isolation(monkeypatch):
    """Fresh sessions + the feature gate on, for every test here."""
    monkeypatch.setattr(sta, "INCREMENTAL", True)
    sta.reset_incremental()
    reset_map_cache()
    yield
    sta.reset_incremental()
    reset_map_cache()


def _assert_reports_identical(got, want):
    assert got.max_delay == want.max_delay
    assert got.critical_path == want.critical_path
    assert got.arrival == want.arrival
    assert got.slew == want.slew
    assert got.load == want.load
    assert got.gate_delay == want.gate_delay


def _full_retime(netlist, library, wire, monkeypatch):
    """Oracle: the non-incremental path on a fresh session store."""
    with monkeypatch.context() as m:
        m.setattr(sta, "INCREMENTAL", False)
        return sta.static_timing(netlist, library, wire)


# ---------------------------------------------------------------------------
# Scalar engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base_w,ext_w", [(8, 12), (8, 16), (16, 24)])
def test_scalar_extension_bitwise(base_w, ext_w, organic_lib, organic_wire,
                                  monkeypatch):
    base = carry_select_adder(base_w)
    mapped_base = map_cached(base)
    sta.static_timing(mapped_base, organic_lib, organic_wire)

    ext = extend_carry_select_adder(base, ext_w)
    got = sta.static_timing(map_cached(ext), organic_lib, organic_wire)

    fresh = technology_map(carry_select_adder(ext_w))
    want = _full_retime(fresh, organic_lib, organic_wire, monkeypatch)
    _assert_reports_identical(got, want)


def test_scalar_in_place_edit_bitwise(organic_lib, organic_wire,
                                      monkeypatch):
    """Editing a timed netlist in place re-times it in full."""
    nl = technology_map(ripple_carry_adder(8))
    sta.static_timing(nl, organic_lib, organic_wire)

    prev = nl.primary_outputs[0]
    for _ in range(4):
        prev = nl.add_gate("inv", (prev,))
    nl.set_outputs(list(nl.primary_outputs) + [prev])
    with telemetry.collecting():
        got = sta.static_timing(nl, organic_lib, organic_wire)
    counters = telemetry.counters()
    assert "sta.incremental_runs" not in counters
    assert counters["sta.retimed_gates"] == counters["sta.gates"]

    sta.reset_incremental()
    want = _full_retime(nl, organic_lib, organic_wire, monkeypatch)
    _assert_reports_identical(got, want)


def test_exact_repeat_returns_recorded_report(organic_lib, organic_wire):
    nl = technology_map(ripple_carry_adder(8))
    first = sta.static_timing(nl, organic_lib, organic_wire)
    assert sta.static_timing(nl, organic_lib, organic_wire) is first


# ---------------------------------------------------------------------------
# Vector engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base_w,ext_w,other_wire_first", [
    pytest.param(8, 16, False, id="8-16"),
    pytest.param(16, 32, False, id="16-32"),
    pytest.param(16, 24, True, id="16-24-other-wire-first"),
])
def test_vector_extension_bitwise(base_w, ext_w, other_wire_first,
                                  organic_lib, organic_wire, silicon_wire,
                                  monkeypatch):
    monkeypatch.setattr(sta, "VECTOR_MIN_GATES", 1)
    base = carry_select_adder(base_w)
    mapped_base = map_cached(base)
    sta.static_timing(mapped_base, organic_lib, organic_wire)

    ext = extend_carry_select_adder(base, ext_w)
    mapped_ext = map_cached(ext)
    if other_wire_first:
        # A pass under another wire first caches the extension's
        # encoding; the pass below must not read that wire's timing.
        sta.static_timing(mapped_ext, organic_lib, silicon_wire)
    got = sta.static_timing(mapped_ext, organic_lib, organic_wire)

    fresh = technology_map(carry_select_adder(ext_w))
    want = _full_retime(fresh, organic_lib, organic_wire, monkeypatch)
    _assert_reports_identical(got, want)


def test_vector_extension_retimes_in_full(organic_lib, organic_wire,
                                          monkeypatch):
    """A vector pass over a timed parent's extension takes no base: it
    re-times every gate, books no delta, and equals fresh synthesis."""
    monkeypatch.setattr(sta, "VECTOR_MIN_GATES", 1)
    base = carry_select_adder(16)
    sta.static_timing(map_cached(base), organic_lib, organic_wire)
    ext = extend_carry_select_adder(base, 20)
    with telemetry.collecting():
        got = sta.static_timing(map_cached(ext), organic_lib, organic_wire)
    counters = telemetry.counters()
    assert counters["sta.runs"] == counters["sta.vector_runs"] == 1
    assert "sta.incremental_runs" not in counters
    assert counters["sta.retimed_gates"] == counters["sta.gates"] > 0
    assert counters["sta.nldm_lookups"] > 0

    fresh = technology_map(carry_select_adder(20))
    want = _full_retime(fresh, organic_lib, organic_wire, monkeypatch)
    _assert_reports_identical(got, want)


def test_scalar_passes_book_every_counter(organic_lib, organic_wire):
    """Full and delta scalar passes book the vector engine's counters."""
    base = carry_select_adder(8)
    with telemetry.collecting():
        sta.static_timing(map_cached(base), organic_lib, organic_wire)
    full = telemetry.counters()
    ext = extend_carry_select_adder(base, 12)
    with telemetry.collecting():
        sta.static_timing(map_cached(ext), organic_lib, organic_wire)
    delta = telemetry.counters()
    for counters in (full, delta):
        assert counters["sta.runs"] == counters["sta.scalar_runs"] == 1
        assert counters["sta.nldm_lookups"] > 0
        assert "sta.levels" in counters
    assert full["sta.retimed_gates"] == full["sta.gates"]
    assert "sta.incremental_runs" not in full
    assert delta["sta.incremental_runs"] == 1
    assert 0 < delta["sta.retimed_gates"] < delta["sta.gates"]


def test_engine_mismatch_falls_back_to_full(organic_lib, organic_wire,
                                            monkeypatch):
    """A scalar-recorded session must not satisfy a vector run (and the
    other way round) — the exact-repeat shortcut is engine-aware."""
    nl = technology_map(ripple_carry_adder(8))
    scalar_report = sta.static_timing(nl, organic_lib, organic_wire)
    monkeypatch.setattr(sta, "VECTOR_MIN_GATES", 1)
    vector_report = sta.static_timing(nl, organic_lib, organic_wire)
    assert vector_report is not scalar_report
    assert vector_report.max_delay == pytest.approx(scalar_report.max_delay,
                                                    rel=1e-12)


# ---------------------------------------------------------------------------
# Session keying: no collisions across wires, loads, libraries
# ---------------------------------------------------------------------------

def test_sessions_keyed_by_wire_model(organic_lib, organic_wire,
                                      monkeypatch):
    """Re-timing the same netlist under a scaled wire model must not
    reuse the other wire's session."""
    nl = technology_map(carry_select_adder(8))
    half_wire = organic_wire.scaled(0.5)
    r_full_wire = sta.static_timing(nl, organic_lib, organic_wire)
    r_half_wire = sta.static_timing(nl, organic_lib, half_wire)
    assert r_full_wire.max_delay != r_half_wire.max_delay

    want_full = _full_retime(nl, organic_lib, organic_wire, monkeypatch)
    want_half = _full_retime(nl, organic_lib, half_wire, monkeypatch)
    _assert_reports_identical(r_full_wire, want_full)
    _assert_reports_identical(r_half_wire, want_half)


def test_sessions_keyed_by_library(organic_lib, silicon_lib, organic_wire,
                                   silicon_wire, monkeypatch):
    nl = technology_map(carry_select_adder(8))
    r_org = sta.static_timing(nl, organic_lib, organic_wire)
    r_sil = sta.static_timing(nl, silicon_lib, silicon_wire)
    assert r_org.max_delay != r_sil.max_delay
    _assert_reports_identical(
        r_sil, _full_retime(nl, silicon_lib, silicon_wire, monkeypatch))


def test_fingerprints_distinguish_widths():
    fps = {technology_map(carry_select_adder(w)).fingerprint()
           for w in (8, 12, 16, 20)}
    assert len(fps) == 4


def test_fingerprint_tracks_edits():
    nl = ripple_carry_adder(8)
    fp0 = nl.fingerprint()
    assert nl.fingerprint() == fp0          # stable across repeated reads
    nl.add_gate("inv", (nl.primary_outputs[0],))
    assert nl.fingerprint() != fp0
    fp1 = nl.fingerprint()
    nl.set_outputs(nl.primary_outputs[:-1])
    assert nl.fingerprint() != fp1          # PO list is part of the print


# ---------------------------------------------------------------------------
# Feature gate
# ---------------------------------------------------------------------------

def test_disabled_gate_records_no_sessions(organic_lib, organic_wire,
                                           monkeypatch):
    monkeypatch.setattr(sta, "INCREMENTAL", False)
    sta.reset_incremental()
    nl = technology_map(ripple_carry_adder(8))
    r1 = sta.static_timing(nl, organic_lib, organic_wire)
    r2 = sta.static_timing(nl, organic_lib, organic_wire)
    assert r1 is not r2                     # no exact-repeat shortcut
    _assert_reports_identical(r1, r2)
    assert len(sta._SESSIONS) == 0


def test_map_cached_disabled_gate_maps_fresh(monkeypatch):
    monkeypatch.setattr(sta, "INCREMENTAL", False)
    nl = ripple_carry_adder(8)
    m1 = map_cached(nl)
    m2 = map_cached(nl)
    assert m1 is not m2
    assert list(m1.gates) == list(m2.gates)


def test_session_store_is_bounded(organic_lib, organic_wire):
    nl = technology_map(ripple_carry_adder(4))
    for k in range(sta._SESSION_LIMIT + 8):
        sta.static_timing(nl, organic_lib, organic_wire,
                          output_load=1e-15 * (k + 1))
    assert len(sta._SESSIONS) <= sta._SESSION_LIMIT


# ---------------------------------------------------------------------------
# Property tests: random extensions
# ---------------------------------------------------------------------------

_CELL_ARITY = {"inv": 1, "nand2": 2, "nor2": 2, "nand3": 3, "nor3": 3}


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_random_extension_bitwise(organic_lib, organic_wire, monkeypatch,
                                  data):
    """Random library-cell extensions of a timed base re-time bitwise."""
    sta.reset_incremental()
    base = technology_map(ripple_carry_adder(4))
    sta.static_timing(base, organic_lib, organic_wire)

    ext = base.extend()
    nets = list(base.primary_inputs) + [g.output
                                        for g in base.gates.values()]
    n_new = data.draw(st.integers(min_value=1, max_value=12))
    for _ in range(n_new):
        cell = data.draw(st.sampled_from(sorted(_CELL_ARITY)))
        arity = _CELL_ARITY[cell]
        ins = [data.draw(st.sampled_from(nets)) for _ in range(arity)]
        nets.append(ext.add_gate(cell, ins))
    extra_pos = data.draw(
        st.lists(st.sampled_from(nets), min_size=1, max_size=4,
                 unique=True))
    ext.set_outputs(list(base.primary_outputs) + [
        n for n in extra_pos if n not in base.primary_outputs])

    got = sta.static_timing(ext, organic_lib, organic_wire)
    want = _full_retime(ext, organic_lib, organic_wire, monkeypatch)
    _assert_reports_identical(got, want)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(widths=st.lists(st.sampled_from([8, 12, 16, 20, 24]),
                       min_size=2, max_size=4, unique=True))
def test_random_width_chain_bitwise(organic_lib, organic_wire, monkeypatch,
                                    widths):
    """A growing CSA chain matches fresh synthesis at every step."""
    sta.reset_incremental()
    reset_map_cache()
    widths = sorted(widths)
    nl = carry_select_adder(widths[0])
    for w in widths:
        if w > widths[0]:
            nl = extend_carry_select_adder(nl, w)
        got = sta.static_timing(map_cached(nl), organic_lib, organic_wire)
        fresh = technology_map(carry_select_adder(w))
        want = _full_retime(fresh, organic_lib, organic_wire, monkeypatch)
        _assert_reports_identical(got, want)


# ---------------------------------------------------------------------------
# Shared-structure construction
# ---------------------------------------------------------------------------

def test_extend_csa_requires_block_boundary():
    base = carry_select_adder(6, block=4)       # 6 % 4 != 0
    with pytest.raises(SynthesisError):
        extend_carry_select_adder(base, 10)
    with pytest.raises(SynthesisError):
        extend_carry_select_adder(carry_select_adder(8), 8)
    with pytest.raises(SynthesisError):
        extend_carry_select_adder(ripple_carry_adder(8), 12)


def test_extended_mapping_matches_fresh():
    base = carry_select_adder(8)
    map_cached(base)
    ext = extend_carry_select_adder(base, 16)
    got = map_cached(ext)
    want = technology_map(carry_select_adder(16))
    assert list(got.gates) == list(want.gates)
    for g1, g2 in zip(got.gates.values(), want.gates.values()):
        assert (g1.name, g1.cell, g1.inputs, g1.output) == \
               (g2.name, g2.cell, g2.inputs, g2.output)
    assert got.primary_outputs == want.primary_outputs


@pytest.mark.parametrize("builder", [
    lambda: ripple_carry_adder(6),
    lambda: carry_select_adder(8),
    lambda: simple_alu(8),
    lambda: technology_map(ripple_carry_adder(6)),
])
def test_mapped_cell_counts_exact(builder):
    source = builder()
    mapped = technology_map(source)
    assert mapped_cell_counts(source) == dict(
        Counter(g.cell for g in mapped.gates.values()))
    assert set(mapped_cell_counts(source)) <= LIBRARY_CELLS


def test_counts_area_matches_summed_area(organic_lib):
    import math

    from repro.core.physical import _block_area, reset_structure_caches
    reset_structure_caches()
    try:
        for block, width in (("adder", 8), ("alu", 8), ("complex", 8)):
            got = _block_area(block, width, organic_lib)
            if block == "adder":
                mapped = technology_map(carry_select_adder(width))
            elif block == "alu":
                mapped = technology_map(simple_alu(width))
            else:
                from repro.synthesis.generators import complex_alu_slice
                mapped = technology_map(complex_alu_slice(width))
            want = sum(organic_lib.cell(g.cell).area
                       for g in mapped.gates.values())
            assert math.isclose(got, want, rel_tol=1e-9)
    finally:
        reset_structure_caches()


# ---------------------------------------------------------------------------
# Profiling stages
# ---------------------------------------------------------------------------

def test_synthesis_stages_profiled(organic_lib, organic_wire, monkeypatch):
    from repro.core.config import CoreConfig
    from repro.core.physical import core_physical, reset_structure_caches

    monkeypatch.setenv("REPRO_CACHE", "0")   # force real synthesis work
    reset_structure_caches()
    try:
        import time
        with telemetry.collecting():
            t0 = time.perf_counter()
            core_physical(CoreConfig(), organic_lib, organic_wire)
            elapsed = time.perf_counter() - t0
        timers = telemetry.timers()
        assert timers["solver.netlist"]["calls"] >= 1
        assert timers["solver.mapping"]["calls"] >= 1
        assert timers["solver.sta"]["calls"] >= 1
        # The accounting guard must accept the new stages (no nesting).
        breakdown = telemetry.breakdown(elapsed)
        assert breakdown["overhead"] >= 0.0
    finally:
        reset_structure_caches()
        telemetry.reset()
