"""Library-cache fingerprinting: anything that changes the physics must
change the key, and identical definitions must hit the cache."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cells.library_def import organic_library_definition
from repro.characterization import harness
from repro.characterization.harness import (CharacterizationGrid,
                                            _definition_fingerprint,
                                            characterize_library,
                                            default_grid)
from repro.characterization.library import (CellTiming, Library,
                                            NldmTable, SequentialTiming,
                                            TimingArc)
from repro.core.config import CoreConfig
from repro.core.physical import (_block_timing, region_logic_delays,
                                 reset_structure_caches)
from repro.devices.pentacene import PENTACENE
from repro.spice.backends import NativeBackend, NumpyBackend, reset_backend
from repro.synthesis.wires import organic_wire_model


def _key(defn, grid=None):
    return _definition_fingerprint(defn, grid or default_grid(defn))


def test_identical_definitions_same_key():
    assert _key(organic_library_definition()) == \
        _key(organic_library_definition())


def test_grid_changes_key():
    defn = organic_library_definition()
    grid = default_grid(defn)
    slews_bumped = CharacterizationGrid(
        slews=tuple(s * 1.01 for s in grid.slews), loads=grid.loads)
    loads_bumped = CharacterizationGrid(
        slews=grid.slews, loads=tuple(c * 1.01 for c in grid.loads))
    base = _definition_fingerprint(defn, grid)
    assert _definition_fingerprint(defn, slews_bumped) != base
    assert _definition_fingerprint(defn, loads_bumped) != base


def test_rails_change_key():
    base = organic_library_definition()
    shifted = organic_library_definition(vdd=base.vdd * 1.1)
    assert _key(shifted) != _key(base)
    # vss enters through every device's rail connections.
    assert _key(organic_library_definition(vss=-16.0)) != _key(base)


def test_device_params_change_key():
    base = organic_library_definition()
    slow = organic_library_definition(
        model=dataclasses.replace(PENTACENE, vt0=PENTACENE.vt0 + 0.1))
    assert _key(slow) != _key(base)


def test_sizes_change_key():
    base = organic_library_definition()
    wide = organic_library_definition(sizes={"w_drive": 120e-6})
    longer = organic_library_definition(l=25e-6)
    assert _key(wide) != _key(base)
    assert _key(longer) != _key(base)


# -- cache hit/miss behaviour ----------------------------------------------

def _stub_cell(design, grid, area, currents=None, delay=1e-6):
    shape = (len(grid.slews), len(grid.loads))
    table = NldmTable(np.asarray(grid.slews), np.asarray(grid.loads),
                      np.full(shape, delay))
    arcs = tuple(
        TimingArc(input_pin=pin, output_transition=tr,
                  delay=table, transition=table)
        for pin in design.inputs for tr in ("rise", "fall"))
    return CellTiming(name=design.name, function=design.name,
                      inputs=tuple(design.inputs),
                      input_caps={p: 1e-12 for p in design.inputs},
                      area=area, arcs=arcs, leakage=1e-9)


def _stub_dff(dff, grid, area, t_unit):
    table = NldmTable(np.asarray(grid.slews), np.asarray(grid.loads),
                      np.full((len(grid.slews), len(grid.loads)), 2e-6))
    return SequentialTiming(name=dff.name, input_caps={"d": 1e-12,
                                                       "clk": 1e-12},
                            area=area, clk_to_q=table,
                            setup_time=1e-6, hold_time=0.0, leakage=1e-9)


def test_cache_hit_and_invalidation(tmp_path, monkeypatch):
    calls = {"cell": 0}

    def counting_cell(design, grid, area, currents=None):
        calls["cell"] += 1
        return _stub_cell(design, grid, area)

    monkeypatch.setattr(harness, "characterize_cell", counting_cell)
    monkeypatch.setattr(harness, "characterize_dff", _stub_dff)

    defn = organic_library_definition()
    lib1 = characterize_library(defn, cache_dir=tmp_path)
    assert calls["cell"] == len(defn.COMBINATIONAL)

    # Same definition: served from disk, no new characterisation work.
    lib2 = characterize_library(organic_library_definition(),
                                cache_dir=tmp_path)
    assert calls["cell"] == len(defn.COMBINATIONAL)
    assert lib2.metadata["fingerprint"] == lib1.metadata["fingerprint"]

    # Changed device physics: cache miss, everything re-characterised.
    changed = organic_library_definition(
        model=dataclasses.replace(PENTACENE, vt0=PENTACENE.vt0 + 0.05))
    lib3 = characterize_library(changed, cache_dir=tmp_path)
    assert calls["cell"] == 2 * len(defn.COMBINATIONAL)
    assert lib3.metadata["fingerprint"] != lib1.metadata["fingerprint"]

    # use_cache=False bypasses both read and write.
    n_files = len(list(tmp_path.iterdir()))
    characterize_library(defn, cache_dir=tmp_path, use_cache=False)
    assert calls["cell"] == 3 * len(defn.COMBINATIONAL)
    assert len(list(tmp_path.iterdir())) == n_files


# -- one library object per process ------------------------------------------

def _stubbed(monkeypatch):
    calls = {"cell": 0}

    def counting_cell(design, grid, area, currents=None):
        calls["cell"] += 1
        return _stub_cell(design, grid, area)

    monkeypatch.setattr(harness, "characterize_cell", counting_cell)
    monkeypatch.setattr(harness, "characterize_dff", _stub_dff)
    return calls


def test_library_memo_shares_one_object_per_cache_root(tmp_path,
                                                       monkeypatch):
    calls = _stubbed(monkeypatch)
    defn = organic_library_definition()
    first = characterize_library(defn, cache_dir=tmp_path / "a")
    assert characterize_library(organic_library_definition(),
                                cache_dir=tmp_path / "a") is first
    n_cells = calls["cell"]

    # Bypassing the cache builds a fresh object.
    fresh = characterize_library(defn, cache_dir=tmp_path / "a",
                                 use_cache=False)
    assert fresh is not first
    assert calls["cell"] == 2 * n_cells

    # Another root loads its own object (here from its own disk entry).
    (tmp_path / "b").mkdir()
    for path in (tmp_path / "a").rglob("*.json"):
        target = tmp_path / "b" / path.relative_to(tmp_path / "a")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(path.read_text())
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
    other = characterize_library(defn)
    assert other is not first
    assert other.to_dict() == first.to_dict()
    assert characterize_library(defn) is other
    assert calls["cell"] == 2 * n_cells


def test_warm_library_call_solves_nothing(tmp_path, monkeypatch):
    """A library this process already holds is served before the default
    grid's inverter solve: a second ``organic_library()`` constructs no
    ensemble at all."""
    from repro.characterization import organic_library
    from repro.spice import ensemble

    _stubbed(monkeypatch)
    monkeypatch.setattr(harness, "_LIBRARIES", {})
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    built = []
    real_init = ensemble.EnsembleSystem.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ensemble.EnsembleSystem, "__init__", counting_init)
    first = organic_library()
    assert built                     # the cold call solves the inverter
    built.clear()
    assert organic_library() is first
    assert built == []


def test_library_build_ticks_one_progress_unit_per_cell(tmp_path,
                                                        monkeypatch):
    from repro.runtime import progress

    _stubbed(monkeypatch)
    events = []
    monkeypatch.setattr(progress, "begin",
                        lambda name, total=None: events.append(total) or name)
    monkeypatch.setattr(progress, "update", lambda ph, n=1: events.append(ph))
    monkeypatch.setattr(progress, "end", lambda ph: None)
    defn = organic_library_definition()
    characterize_library(defn, cache_dir=tmp_path, use_cache=False)
    n_cells = len(defn.COMBINATIONAL) + 1            # and the flop
    assert events == [n_cells] + [f"characterize[{defn.name}]"] * n_cells


def test_library_cache_keeps_solver_backends_apart(tmp_path, monkeypatch):
    """The numpy and native builds differ in the last bits, so a library
    built on one backend is never served to the other, neither from the
    in-process memo nor from disk.  The grid is fixed: the default one
    is DC-estimated on the active backend, which could split the keys
    by accident."""
    calls = _stubbed(monkeypatch)
    monkeypatch.setattr(harness, "_LIBRARIES", {})
    defn = organic_library_definition()
    grid = default_grid(defn)

    def build(backend):
        reset_backend(backend)
        return characterize_library(defn, grid, cache_dir=tmp_path)

    try:
        on_numpy = build(NumpyBackend())
        n_cells = calls["cell"]
        assert build(NativeBackend()) is not on_numpy
        assert calls["cell"] == 2 * n_cells

        assert build(NumpyBackend()) is on_numpy
        monkeypatch.setattr(harness, "_LIBRARIES", {})
        build(NumpyBackend())
        build(NativeBackend())
        assert calls["cell"] == 2 * n_cells
    finally:
        reset_backend()


def test_library_memo_off_when_cache_disabled(tmp_path, monkeypatch):
    calls = _stubbed(monkeypatch)
    monkeypatch.setenv("REPRO_CACHE", "0")
    defn = organic_library_definition()
    first = characterize_library(defn, cache_dir=tmp_path)
    assert characterize_library(defn, cache_dir=tmp_path) is not first
    assert calls["cell"] == 2 * len(defn.COMBINATIONAL)


# -- the library's result-cache key ------------------------------------------

def _unfingerprinted(scale: float = 1.0):
    defn = organic_library_definition()
    grid = default_grid(defn)
    data = Library(name="mini", process="organic", vdd=defn.vdd,
                   cells={name: _stub_cell(defn.cell(name), grid, area=1.0)
                          for name in defn.COMBINATIONAL},
                   dff=_stub_dff(defn.dff, grid, area=1.0, t_unit=1.0)
                   ).to_dict()
    for cell in data["cells"].values():
        for arc in cell["arcs"]:
            arc["delay"]["values"] = (np.asarray(arc["delay"]["values"])
                                      * scale).tolist()
    return Library.from_dict(data)


def test_cache_key_follows_the_tables_not_the_fingerprint():
    """One fingerprint, different tables: never the same key."""
    fast, slow = _unfingerprinted(), _unfingerprinted(scale=1.5)
    tag = {"metadata": {"fingerprint": "abc123"}}
    tagged_fast = Library.from_dict({**fast.to_dict(), **tag})
    tagged_slow = Library.from_dict({**slow.to_dict(), **tag})
    assert tagged_fast.cache_key() != tagged_slow.cache_key()
    assert tagged_fast.cache_key() == \
        Library.from_dict(tagged_fast.to_dict()).cache_key()


def test_cache_key_without_fingerprint_follows_the_tables():
    """Same name, different tables: never the same key."""
    a, same, slower = _unfingerprinted(), _unfingerprinted(), \
        _unfingerprinted(scale=1.5)
    assert a.name == slower.name == "mini"
    assert a.cache_key() == same.cache_key() != slower.cache_key()
    assert a.cache_key() == a.cache_key()    # stable once computed


def test_block_timing_keeps_same_name_libraries_apart(tmp_path, monkeypatch):
    """Two fingerprint-less libraries named alike share no cache entry,
    neither in-process nor on disk (a later process on the same root)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    fast, slow = _unfingerprinted(), _unfingerprinted(scale=1.5)
    wire = organic_wire_model()

    def uncached(lib):
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_CACHE", "0")
            reset_structure_caches()
            return _block_timing("adder", 8, lib, wire)

    want_fast, want_slow = uncached(fast), uncached(slow)
    assert want_slow > want_fast

    reset_structure_caches()
    assert _block_timing("adder", 8, fast, wire) == want_fast
    assert _block_timing("adder", 8, slow, wire) == want_slow
    reset_structure_caches()    # only the disk entries remain
    assert _block_timing("adder", 8, slow, wire) == want_slow
    reset_structure_caches()
    assert _block_timing("adder", 8, fast, wire) == want_fast


def test_block_timing_keeps_solver_backends_apart(tmp_path, monkeypatch):
    """One definition built on the numpy and the native backend has one
    fingerprint, but tables that differ in the last bits; block timing
    and region delays must never serve one build's results to the other,
    neither in-process nor from disk."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.setattr(harness, "_LIBRARIES", {})

    def cell(design, grid, area, currents=None):
        native = harness.get_backend().name == "native"
        return _stub_cell(design, grid, area,
                          delay=1e-6 * (1 + 1e-9) if native else 1e-6)

    monkeypatch.setattr(harness, "characterize_cell", cell)
    monkeypatch.setattr(harness, "characterize_dff", _stub_dff)
    defn = organic_library_definition()
    grid = default_grid(defn)
    try:
        reset_backend(NumpyBackend())
        on_numpy = characterize_library(defn, grid)
        reset_backend(NativeBackend())
        on_native = characterize_library(defn, grid)
    finally:
        reset_backend()
    assert on_numpy.metadata == on_native.metadata
    wire = organic_wire_model()
    config = CoreConfig()

    def results(lib):
        return (_block_timing("adder", 8, lib, wire),
                region_logic_delays(config, lib, wire))

    with monkeypatch.context() as patch:
        patch.setenv("REPRO_CACHE", "0")
        reset_structure_caches()
        want_numpy = results(on_numpy)
        reset_structure_caches()
        want_native = results(on_native)
    assert want_native[0] > want_numpy[0]

    reset_structure_caches()
    assert results(on_numpy) == want_numpy
    assert results(on_native) == want_native
    reset_structure_caches()    # only the disk entries remain
    assert results(on_native) == want_native
    assert results(on_numpy) == want_numpy
