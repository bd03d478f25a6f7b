"""Physical core model and tradeoff-sweep tests (the Fig 11/13/14 claims)."""

import pytest

import dataclasses

from repro.analysis.dse import dse_sweep
from repro.core import physical
from repro.core.complexity import StructureModel
from repro.core.config import CoreConfig
from repro.core.physical import (core_area, core_physical, region_logic_delays,
                                 reset_structure_caches)
from repro.core import ipc_native, tradeoffs
from repro.core.tradeoffs import (deepen_pipeline, depth_sweep, make_traces,
                                  sweep_workers)
from repro.core.superscalar import _timing_signature, simulate
from repro.errors import ConfigError
from repro.runtime import executor, telemetry
from repro.runtime.cache import default_cache


class TestStructureModel:
    def test_array_delay_grows_with_entries(self, silicon_lib, silicon_wire):
        sm = StructureModel(silicon_lib, silicon_wire)
        assert sm.array_delay(128, 32, 4) > sm.array_delay(16, 32, 4)

    def test_array_delay_grows_with_ports(self, silicon_lib, silicon_wire):
        sm = StructureModel(silicon_lib, silicon_wire)
        assert sm.array_delay(64, 32, 10) > sm.array_delay(64, 32, 2)

    def test_bypass_wire_hits_silicon_harder(self, organic_lib, organic_wire,
                                             silicon_lib, silicon_wire):
        """The Figure 13 mechanism: bypass cost per pipe, in FO4 terms."""
        sm_org = StructureModel(organic_lib, organic_wire)
        sm_sil = StructureModel(silicon_lib, silicon_wire)
        def growth(sm):
            fo4 = sm.fo4
            return (sm.bypass_delay(7, 16) - sm.bypass_delay(3, 16)) / fo4
        assert growth(sm_sil) > 4 * max(growth(sm_org), 0.01)

    def test_rename_quadratic_in_width(self, organic_lib, organic_wire):
        sm = StructureModel(organic_lib, organic_wire)
        d2 = sm.rename_delay(2, 96) - sm.rename_delay(1, 96)
        d6 = sm.rename_delay(6, 96) - sm.rename_delay(5, 96)
        assert d6 > 2 * d2

    def test_area_scales_with_ports(self, organic_lib, organic_wire):
        sm = StructureModel(organic_lib, organic_wire)
        assert sm.array_area(32, 16, 8) > sm.array_area(32, 16, 2)


class TestCorePhysical:
    def test_baseline_frequencies_in_paper_range(self, organic_lib,
                                                 organic_wire, silicon_lib,
                                                 silicon_wire):
        """Paper Section 5.3: ~200 Hz organic, ~800 MHz silicon."""
        f_org = core_physical(CoreConfig(), organic_lib, organic_wire).frequency
        f_sil = core_physical(CoreConfig(), silicon_lib, silicon_wire).frequency
        assert 50 < f_org < 800
        assert 3e8 < f_sil < 4e9

    def test_region_map_complete(self, organic_lib, organic_wire):
        logic = region_logic_delays(CoreConfig(), organic_lib, organic_wire)
        assert set(logic) == set(CoreConfig().regions)
        assert all(v > 0 for v in logic.values())

    def test_deeper_pipeline_higher_frequency(self, organic_lib,
                                              organic_wire):
        base = CoreConfig()
        deep = base
        for _ in range(4):
            deep = deepen_pipeline(deep, organic_lib, organic_wire)
        assert (core_physical(deep, organic_lib, organic_wire).frequency
                > core_physical(base, organic_lib, organic_wire).frequency)

    def test_deepen_splits_critical_region(self, organic_lib, organic_wire):
        base = CoreConfig()
        nxt = deepen_pipeline(base, organic_lib, organic_wire)
        assert nxt.depth == base.depth + 1
        changed = [r for r in base.regions
                   if nxt.regions[r] != base.regions[r]]
        assert len(changed) == 1

    def test_area_grows_with_width(self, silicon_lib, silicon_wire):
        a_small = core_area(CoreConfig(), silicon_lib, silicon_wire)
        a_big = core_area(CoreConfig().widened(4, 6), silicon_lib,
                          silicon_wire)
        assert a_big > 1.3 * a_small

    def test_unknown_block_rejected(self, organic_lib, organic_wire):
        from repro.core.physical import _block_timing
        with pytest.raises(ConfigError):
            _block_timing("fpu", 16, organic_lib, organic_wire)

    def test_critical_region_identified(self, organic_lib, organic_wire):
        phys = core_physical(CoreConfig(), organic_lib, organic_wire)
        assert phys.critical_region in CoreConfig().regions
        assert phys.period == pytest.approx(
            max(phys.region_stage_delay.values()))


def _hex(logic):
    return {region: delay.hex() for region, delay in logic.items()}


class TestRegionLogicMemo:
    """``region_logic_delays`` is memoised per core structure."""

    @pytest.fixture(autouse=True)
    def _fresh(self):
        reset_structure_caches()
        yield
        reset_structure_caches()

    @pytest.fixture()
    def combos(self, organic_lib, organic_wire, silicon_lib, silicon_wire):
        return [(organic_lib, organic_wire),
                (organic_lib, organic_wire.scaled(0.0)),
                (silicon_lib, silicon_wire),
                (silicon_lib, silicon_wire.scaled(0.0))]

    def test_memo_equals_fresh_evaluation(self, combos):
        """A sample of stock-grid points: memo hits are bitwise equal to
        pricing the structure from cold."""
        sample = []
        for lib, wire in combos:
            for w, (fw, bw) in ((8, (1, 3)), (20, (2, 4)), (32, (4, 6))):
                config = CoreConfig(front_width=fw, back_width=bw,
                                    data_width=w)
                sample.append((config, lib, wire))
                sample.append((deepen_pipeline(config, lib, wire), lib, wire))
        memo = [_hex(region_logic_delays(*point)) for point in sample]
        assert memo == [_hex(region_logic_delays(*point)) for point in sample]
        for point, expected in zip(sample, memo):
            reset_structure_caches()
            assert _hex(region_logic_delays(*point)) == expected

    def test_depth_only_change_hits(self, organic_lib, organic_wire,
                                    monkeypatch):
        base = CoreConfig()
        first = region_logic_delays(base, organic_lib, organic_wire)
        deeper = base
        for _ in range(3):
            deeper = deepen_pipeline(deeper, organic_lib, organic_wire)
        assert deeper.regions != base.regions

        def no_pricing(*args, **kwargs):
            raise AssertionError("memo miss on a depth-only change")
        monkeypatch.setattr(physical, "StructureModel", no_pricing)
        again = region_logic_delays(deeper, organic_lib, organic_wire)
        assert _hex(again) == _hex(first)

    @pytest.mark.parametrize("field,value", [
        ("data_width", 24), ("front_width", 2), ("back_width", 4),
        ("iq_size", 48), ("phys_regs", 128), ("rob_size", 128)])
    def test_keyed_field_change_misses(self, organic_lib, organic_wire,
                                       field, value):
        base = CoreConfig()
        region_logic_delays(base, organic_lib, organic_wire)
        before = len(physical._LOGIC_CACHE)
        region_logic_delays(dataclasses.replace(base, **{field: value}),
                            organic_lib, organic_wire)
        assert len(physical._LOGIC_CACHE) == before + 1

    def test_wire_and_library_change_misses(self, organic_lib, organic_wire,
                                            silicon_lib):
        base = CoreConfig()
        with_wire = region_logic_delays(base, organic_lib, organic_wire)
        no_wire = region_logic_delays(base, organic_lib,
                                      organic_wire.scaled(0.0))
        other_lib = region_logic_delays(base, silicon_lib, organic_wire)
        assert len(physical._LOGIC_CACHE) == 3
        assert _hex(no_wire) != _hex(with_wire)
        assert _hex(other_lib) != _hex(with_wire)

    def test_returned_dicts_are_private(self, organic_lib, organic_wire):
        base = CoreConfig()
        first = region_logic_delays(base, organic_lib, organic_wire)
        expected = dict(first)
        first["fetch"] = -1.0
        first.pop("retire")
        assert region_logic_delays(base, organic_lib, organic_wire) == expected
        phys = core_physical(base, organic_lib, organic_wire)
        phys.region_logic["decode"] = -1.0
        assert (core_physical(base, organic_lib, organic_wire).region_logic
                == expected)

    def test_dse_sweep_prices_each_structure_once(self, organic_lib,
                                                  organic_wire, monkeypatch):
        """Every depth point of a (data width, width pair) chain shares
        one structure pricing."""
        calls = []
        real = StructureModel.wakeup_select_delay

        def counting(self, *args):
            calls.append(args)
            return real(self, *args)
        monkeypatch.setattr(StructureModel, "wakeup_select_delay", counting)
        widths, pairs = (8, 12), ((1, 3), (2, 4))
        result = dse_sweep(combos=[("organic", organic_lib, organic_wire)],
                           widths=widths, width_pairs=pairs, max_depth=12,
                           traces=make_traces(workloads=["gzip"],
                                              n_instructions=300),
                           workers=1)
        assert len(result) == len(widths) * len(pairs) * 4
        assert len(calls) == len(widths) * len(pairs)


class TestSweepWorkerPolicy:
    """Sweeps open a pool only where the IPC kernel runs the reference
    loop, one worker per usable CPU, and the pool changes no bit."""

    @pytest.fixture()
    def pools(self, monkeypatch):
        """Pool sizes opened, on a process that may run on two CPUs."""
        opened = []
        real = executor.ProcessPoolExecutor

        def recording(*args, max_workers=None, **kwargs):
            opened.append(max_workers)
            return real(*args, max_workers=max_workers, **kwargs)

        monkeypatch.setattr(executor, "ProcessPoolExecutor", recording)
        monkeypatch.setattr(executor.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("REPRO_CACHE", "0")
        return opened

    @staticmethod
    def _points(lib, wire, **kwargs):
        traces = make_traces(workloads=["gzip"], n_instructions=300)
        return [(p.config, p.physical, p.ipc, p.performance)
                for p in depth_sweep(lib, wire, max_depth=11,
                                     traces=traces, **kwargs)]

    def test_loaded_kernel_opens_no_pool(self, pools, organic_lib,
                                         organic_wire, monkeypatch):
        monkeypatch.setattr(ipc_native, "native_available", lambda: True)
        assert sweep_workers() == 1
        self._points(organic_lib, organic_wire)
        dse_sweep(combos=[("organic", organic_lib, organic_wire)],
                  widths=(8,), width_pairs=((2, 4),), max_depth=10,
                  traces=make_traces(workloads=["gzip"], n_instructions=300))
        assert pools == []

    def test_reference_loop_fans_out_bit_identical(self, pools, organic_lib,
                                                   organic_wire,
                                                   monkeypatch):
        monkeypatch.setattr(ipc_native, "native_available", lambda: False)
        assert sweep_workers() == executor.thread_budget() == 2
        assert sweep_workers(1) == 1
        fanned = self._points(organic_lib, organic_wire)
        assert pools == [2]
        assert fanned == self._points(organic_lib, organic_wire, workers=1)
        assert pools == [2]

    def test_warm_cache_opens_no_pool(self, pools, organic_lib,
                                      organic_wire, tmp_path, monkeypatch):
        """The reference loop's sweep looks every distinct simulation up
        once, in this process, so a repeat on a warm cache hits them all
        and opens no pool."""
        monkeypatch.setattr(ipc_native, "native_available", lambda: False)
        monkeypatch.delenv("REPRO_CACHE")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold = self._points(organic_lib, organic_wire)
        assert pools == [2]
        with telemetry.collecting():
            assert self._points(organic_lib, organic_wire) == cold
        counters = telemetry.counters()
        assert pools == [2]
        # One trace, so one simulation per distinct timing signature.
        assert counters["cache.hit.simulation"] == len(
            {tuple(_timing_signature(config).items()) for config, *_ in cold})
        assert "cache.miss.simulation" not in counters

    def test_partly_warm_cache_pools_only_the_misses(
            self, pools, organic_lib, organic_wire, tmp_path, monkeypatch):
        """A sweep that extends a cached one hands the pool only the
        simulations the cache misses, each once, and still equals the
        uncached serial sweep."""
        monkeypatch.setattr(ipc_native, "native_available", lambda: False)
        serial = self._points(organic_lib, organic_wire, workers=1)
        monkeypatch.delenv("REPRO_CACHE")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        traces = make_traces(workloads=["gzip"], n_instructions=300)
        warm = {tuple(_timing_signature(p.config).items())
                for p in depth_sweep(organic_lib, organic_wire, max_depth=9,
                                     traces=traces)}
        handed = []
        real = tradeoffs.parallel_map

        def recording(fn, items, **kwargs):
            handed.extend(items)
            return real(fn, items, **kwargs)

        monkeypatch.setattr(tradeoffs, "parallel_map", recording)
        with telemetry.collecting():
            assert self._points(organic_lib, organic_wire) == serial
        counters = telemetry.counters()
        wanted = {tuple(_timing_signature(config).items())
                  for config, *_ in serial}
        missed = [tuple(_timing_signature(config).items())
                  for config, _name in handed]
        assert warm < wanted
        assert sorted(missed) == sorted(wanted - warm)
        assert counters["cache.miss.simulation"] == len(missed)
        assert counters["cache.hit.simulation"] == len(warm)


class TestWarmResultCache:
    def test_repeat_depth_sweep_is_served_from_disk(
            self, organic_lib, organic_wire, tmp_path, monkeypatch):
        """A depth sweep stores its simulations, block timings and block
        areas, each readable back; the same sweep again simulates
        nothing and misses no simulation."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        # Price every block afresh, so the sweep stores it.
        reset_structure_caches()
        traces = make_traces(workloads=["gzip", "mcf"], n_instructions=300)

        def points():
            return [(p.config, p.physical, p.ipc, p.performance)
                    for p in depth_sweep(organic_lib, organic_wire,
                                         max_depth=10, traces=traces)]

        first = points()
        cache = default_cache()
        for category in ("simulation", "block_timing", "block_area"):
            stored = list((cache.root / category).glob("*.json"))
            assert stored, category
            assert all(cache.get(category, path.stem) is not None
                       for path in stored)
        with telemetry.collecting():
            assert points() == first
        counters = telemetry.counters()
        assert counters.get("ipc.simulations", 0) == 0
        assert counters.get("cache.miss.simulation", 0) == 0
        assert counters["cache.hit.simulation"] > 0

class TestSweepSimulatesOnce:
    """A sweep simulates each distinct (timing signature, trace) once
    and shares its IPC: uncached, through the result cache, and pooled.
    Every point still equals a per-point ``core_physical`` and
    ``simulate``."""

    LEGS = {"no-cache": (False, 1), "cache": (True, 1),
            "cache-workers-2": (True, 2)}

    @pytest.mark.parametrize("leg", sorted(LEGS))
    def test_dse_sweep(self, leg, organic_lib, organic_wire, tmp_path,
                       monkeypatch):
        cached, workers = self.LEGS[leg]
        if cached:
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        else:
            monkeypatch.setenv("REPRO_CACHE", "0")
        traces = make_traces(workloads=["gzip", "mcf"], n_instructions=300)
        combos = [("organic", organic_lib, organic_wire),
                  ("organic_no_wire", organic_lib, organic_wire.scaled(0.0))]
        with telemetry.collecting():
            result = dse_sweep(combos=combos, widths=(8, 12),
                               width_pairs=((2, 4),), max_depth=11,
                               traces=traces, workers=workers)
        counters = telemetry.counters()

        distinct = {(tuple(_timing_signature(p.config).items()),
                     trace.fingerprint())
                    for p in result.points for trace in traces.values()}
        assert len(distinct) < len(result) * len(traces)
        assert counters["ipc.simulations"] == len(distinct)
        lookups = (counters.get("cache.hit.simulation", 0)
                   + counters.get("cache.miss.simulation", 0))
        assert lookups == (len(distinct) if cached else 0)

        wires = {label: wire for label, _, wire in combos}
        for point in result.points:
            want = core_physical(point.config, organic_lib,
                                 wires[point.combo])
            for f in dataclasses.fields(want):
                assert (getattr(point.physical, f.name)
                        == getattr(want, f.name)), (point.config.name, f.name)
            ipc = {name: simulate(point.config, trace).ipc
                   for name, trace in traces.items()}
            assert point.ipc == ipc
            assert point.performance == {
                name: v * want.frequency for name, v in ipc.items()}


class TestTraces:
    def test_make_traces_default_seven(self):
        traces = make_traces(n_instructions=256)
        assert len(traces) == 7

    def test_unknown_workload(self):
        with pytest.raises(ConfigError):
            make_traces(workloads=["quake"], n_instructions=256)
