"""STA and pipelining tests on real mapped netlists with both libraries."""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.synthesis.pipeline as pipeline
from repro.errors import PipelineError, SynthesisError
from repro.runtime import telemetry
from repro.runtime.cache import default_cache
from repro.synthesis.generators import carry_select_adder, wallace_multiplier
from repro.synthesis.mapping import technology_map
from repro.synthesis.netlist import Netlist
from repro.synthesis.pipeline import (
    count_registers,
    min_period_for_stages,
    per_gate_delays,
    pipeline_sweep,
    sequencing_overhead,
    stages_needed,
)
from repro.synthesis.sta import net_loads, static_timing
from repro.synthesis.wires import WireModel, block_span, organic_wire_model, silicon_wire_model


@pytest.fixture(autouse=True)
def _empty_result_cache(tmp_path, monkeypatch):
    """Every test starts on its own empty result cache, so each sweep
    checked against the oracle bisects instead of re-levelling stored
    budgets."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)


@pytest.fixture(scope="module")
def adder():
    return technology_map(carry_select_adder(8))


@pytest.fixture(scope="module")
def multiplier():
    return technology_map(wallace_multiplier(8))


class TestStaticTiming:
    def test_requires_mapped_netlist(self, organic_lib, organic_wire):
        nl = Netlist("t")
        a = nl.add_input("a")
        out = nl.add_gate("xor2", (a, a))
        nl.add_output(out)
        with pytest.raises(SynthesisError):
            static_timing(nl, organic_lib, organic_wire)

    def test_critical_path_nonempty(self, adder, organic_lib, organic_wire):
        rep = static_timing(adder, organic_lib, organic_wire)
        assert rep.max_delay > 0
        assert rep.critical_length >= adder.logic_depth() // 2

    def test_critical_path_is_connected(self, adder, organic_lib,
                                        organic_wire):
        rep = static_timing(adder, organic_lib, organic_wire)
        gates = adder.gates
        for first, second in zip(rep.critical_path, rep.critical_path[1:]):
            assert gates[first].output in gates[second].inputs

    def test_arrival_monotone_along_path(self, adder, organic_lib,
                                         organic_wire):
        rep = static_timing(adder, organic_lib, organic_wire)
        arrivals = [rep.arrival[adder.gates[g].output]
                    for g in rep.critical_path]
        assert arrivals == sorted(arrivals)

    def test_wire_ablation_speeds_up_silicon(self, multiplier, silicon_lib,
                                             silicon_wire):
        with_wire = static_timing(multiplier, silicon_lib, silicon_wire)
        without = static_timing(multiplier, silicon_lib,
                                silicon_wire.scaled(0.0))
        assert without.max_delay < with_wire.max_delay

    def test_wire_barely_matters_for_organic(self, multiplier, organic_lib,
                                             organic_wire):
        """The paper's premise: organic wires are relatively free."""
        with_wire = static_timing(multiplier, organic_lib, organic_wire)
        without = static_timing(multiplier, organic_lib,
                                organic_wire.scaled(0.0))
        assert without.max_delay > 0.99 * with_wire.max_delay

    def test_net_loads_positive(self, adder, organic_lib, organic_wire):
        loads = net_loads(adder, organic_lib, organic_wire)
        assert all(v > 0 for v in loads.values())


class TestLeveling:
    def test_budget_below_gate_granularity_infeasible(self, adder,
                                                      organic_lib,
                                                      organic_wire):
        delays = per_gate_delays(adder, organic_lib, organic_wire)
        assert stages_needed(adder, delays, max(delays.values()) * 0.5) is None

    def test_large_budget_single_stage(self, adder, organic_lib,
                                       organic_wire):
        delays = per_gate_delays(adder, organic_lib, organic_wire)
        n, assignment = stages_needed(adder, delays, sum(delays.values()))
        assert n == 1
        assert set(assignment.values()) == {0}

    def test_stage_count_monotone_in_budget(self, adder, organic_lib,
                                            organic_wire):
        delays = per_gate_delays(adder, organic_lib, organic_wire)
        total = sum(delays.values())
        counts = []
        for frac in (0.02, 0.05, 0.2, 1.0):
            res = stages_needed(adder, delays, total * frac)
            if res:
                counts.append(res[0])
        assert counts == sorted(counts, reverse=True)

    def test_register_count_includes_outputs(self, adder, organic_lib,
                                             organic_wire):
        delays = per_gate_delays(adder, organic_lib, organic_wire)
        n, assignment = stages_needed(adder, delays, sum(delays.values()))
        regs = count_registers(adder, assignment, n)
        assert regs >= len(adder.primary_outputs)


class TestMinPeriod:
    def test_frequency_increases_with_stages(self, multiplier, organic_lib,
                                             organic_wire):
        sweep = pipeline_sweep(multiplier, organic_lib, organic_wire,
                               [1, 2, 4])
        freqs = [p.frequency for p in sweep]
        assert freqs[0] < freqs[1] < freqs[2]

    def test_area_increases_with_stages(self, multiplier, organic_lib,
                                        organic_wire):
        sweep = pipeline_sweep(multiplier, organic_lib, organic_wire,
                               [1, 4])
        assert sweep[1].area > sweep[0].area
        assert sweep[1].n_registers > sweep[0].n_registers

    def test_period_is_budget_plus_overhead(self, adder, organic_lib,
                                            organic_wire):
        res = min_period_for_stages(adder, organic_lib, organic_wire, 2)
        assert res.period == pytest.approx(res.logic_budget + res.overhead)

    def test_invalid_stage_count(self, adder, organic_lib, organic_wire):
        with pytest.raises(PipelineError):
            min_period_for_stages(adder, organic_lib, organic_wire, 0)

    def test_granularity_cap(self, adder, organic_lib, organic_wire):
        """Requesting absurd depth returns the deepest feasible cut."""
        res = min_period_for_stages(adder, organic_lib, organic_wire, 500)
        assert res.n_stages < 500

    def test_overhead_grows_with_stages_for_silicon(self, multiplier,
                                                    silicon_lib,
                                                    silicon_wire):
        o2 = sequencing_overhead(multiplier, silicon_lib, silicon_wire, 2)
        o20 = sequencing_overhead(multiplier, silicon_lib, silicon_wire, 20)
        assert o20 > o2 * 1.2


class TestRequestValidation:
    @pytest.fixture()
    def gateless(self):
        nl = Netlist("empty")
        nl.add_output(nl.add_input("a"))
        return nl

    def test_gateless_min_period(self, gateless, organic_lib, organic_wire):
        with pytest.raises(PipelineError, match="no gates"):
            min_period_for_stages(gateless, organic_lib, organic_wire, 1)

    def test_gateless_sweep(self, gateless, organic_lib, organic_wire):
        with pytest.raises(PipelineError, match="no gates"):
            pipeline_sweep(gateless, organic_lib, organic_wire, [1, 2])

    def test_bad_stage_count_fails_before_any_work(self, adder, organic_lib,
                                                   organic_wire, monkeypatch):
        def no_timing(*_args, **_kwargs):
            raise AssertionError("timed the netlist before validating")
        monkeypatch.setattr(pipeline, "per_gate_delays", no_timing)
        with pytest.raises(PipelineError, match="got 0"):
            pipeline_sweep(adder, organic_lib, organic_wire, [2, 4, 0])


# ---------------------------------------------------------------------------
# Lockstep sweep vs the scalar oracle, bit for bit
# ---------------------------------------------------------------------------

_CELL_ARITY = {"inv": 1, "nand2": 2, "nor2": 2, "nand3": 3, "nor3": 3}

#: Delay values with ties and zeros, so equal-stage and equal-time input
#: pairs and zero-width gates all occur.
_DELAYS = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 2.5]),
                    st.floats(min_value=0.0, max_value=8.0,
                              allow_nan=False, allow_subnormal=False))


@st.composite
def _random_dag(draw):
    """A small mapped DAG: shared and repeated input nets, and outputs on
    a random subset of nets, so some gates lie off every input-to-output
    path."""
    nl = Netlist("rand")
    nets = nl.add_inputs("i", draw(st.integers(min_value=1, max_value=4)))
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        cell = draw(st.sampled_from(sorted(_CELL_ARITY)))
        ins = [draw(st.sampled_from(nets)) for _ in range(_CELL_ARITY[cell])]
        nets.append(nl.add_gate(cell, ins))
    for net in draw(st.lists(st.sampled_from(nets), min_size=1, max_size=4,
                             unique=True)):
        nl.add_output(net)
    return nl


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_batched_leveler_matches_scalar(data):
    """Stage count, infeasibility, assignment and registers per budget."""
    nl = data.draw(_random_dag())
    delays = {name: data.draw(_DELAYS) for name in nl.gates}
    total = sum(delays.values())
    budgets = data.draw(st.lists(
        st.one_of(st.sampled_from(sorted(set(delays.values())) + [total]),
                  st.floats(min_value=0.0, max_value=total + 1.0,
                            allow_nan=False)),
        min_size=1, max_size=6))
    struct, delays_lv = pipeline._lockstep_inputs(nl, delays)
    n_stages, stage_net = pipeline._level_stages(struct, delays_lv,
                                                 np.array(budgets))
    stage = stage_net[struct["g_out"]]
    regs = pipeline._count_registers_lv(struct, stage_net, n_stages).tolist()
    for k, budget in enumerate(budgets):
        want = stages_needed(nl, delays, budget)
        if want is None:
            assert n_stages[k] == 0
            continue
        assert n_stages[k] == want[0]
        assert dict(zip(struct["gate_names"], stage[:, k].tolist())) \
            == want[1]
        assert regs[k] == count_registers(nl, want[1], want[0])


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(nl=_random_dag(),
       counts=st.lists(st.integers(min_value=1, max_value=12), min_size=1,
                       max_size=6))
def test_random_sweep_matches_oracle(nl, counts, organic_lib, organic_wire):
    default_cache().clear()    # examples share one test's cache root
    try:
        oracle = [min_period_for_stages(nl, organic_lib, organic_wire, n)
                  for n in counts]
    except PipelineError as exc:
        with pytest.raises(PipelineError, match=re.escape(str(exc))):
            pipeline_sweep(nl, organic_lib, organic_wire, counts)
        return
    assert pipeline_sweep(nl, organic_lib, organic_wire, counts) == oracle


@pytest.mark.parametrize("counts", [[1, 2, 4], [6, 2, 6, 1, 3, 2], [500, 1]])
def test_sweep_matches_oracle(counts, multiplier, organic_lib, organic_wire,
                              silicon_lib, silicon_wire):
    """Unsorted and duplicated counts, and the granularity cap."""
    for lib, wire in ((organic_lib, organic_wire),
                      (silicon_lib, silicon_wire.scaled(0.0))):
        got = pipeline_sweep(multiplier, lib, wire, counts)
        want = [min_period_for_stages(multiplier, lib, wire, n)
                for n in counts]
        assert got == want
        for a, b in zip(got, want):
            assert a.stage_of_gate == b.stage_of_gate
            assert list(a.stage_of_gate) == list(b.stage_of_gate)
        # Callers own what they get back, duplicated counts included.
        assert len({id(r.stage_of_gate) for r in got}) == len(got)


# ---------------------------------------------------------------------------
# Per-count budgets in the persistent result cache
# ---------------------------------------------------------------------------

@pytest.fixture()
def private_cache(tmp_path):
    """The test's empty result cache, with telemetry counting."""
    telemetry.enable(True)
    return tmp_path / "cache" / "pipeline"


def _counted_sweep(*args, **kwargs):
    """A sweep and its (pipeline cache hits, misses, level passes)."""
    telemetry.reset()
    results = pipeline_sweep(*args, **kwargs)
    counters = telemetry.counters()
    return results, tuple(counters.get(name, 0) for name in (
        "cache.hit.pipeline", "cache.miss.pipeline",
        "pipeline.level_passes"))


def _uncached_sweep(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_CACHE", "0")
        return pipeline_sweep(*args, **kwargs)


_COUNTS = [1, 2, 4, 6]


def _extended(netlist):
    ext = netlist.extend(f"{netlist.name}_ext")
    ext.add_output(ext.add_gate("inv", (netlist.primary_outputs[0],)))
    return ext


@pytest.mark.parametrize("variant", ["wire_scale_0", "library",
                                     "extended"])
def test_sweep_cache_misses_on_any_input_change(
        variant, multiplier, organic_lib, organic_wire, silicon_lib,
        private_cache, monkeypatch):
    base = dict(netlist=multiplier, library=organic_lib, wire=organic_wire,
                skew_fo4=0.5)
    pipeline_sweep(stage_counts=_COUNTS, **base)
    changed = dict(base, **{
        "wire_scale_0": {"wire": organic_wire.scaled(0.0)},
        "library": {"library": silicon_lib},
        "extended": {"netlist": _extended(multiplier)},
    }[variant])
    got, (hits, misses, _) = _counted_sweep(stage_counts=_COUNTS, **changed)
    assert (hits, misses) == (0, len(_COUNTS))
    assert got == _uncached_sweep(monkeypatch, stage_counts=_COUNTS,
                                  **changed)
    # The changed sweep is now cached too; the base entries still serve.
    for kwargs in (changed, base):
        again, (hits, misses, passes) = _counted_sweep(stage_counts=_COUNTS,
                                                       **kwargs)
        assert (hits, misses, passes) == (len(_COUNTS), 0, 1)
    assert again == _uncached_sweep(monkeypatch, stage_counts=_COUNTS,
                                    **base)


def test_sweep_cache_serves_another_skew(multiplier, organic_lib,
                                         organic_wire, private_cache,
                                         monkeypatch):
    """Skew sets the overhead, not the budget: a re-sweep at another
    skew re-levels the stored budgets and equals an uncached sweep."""
    pipeline_sweep(multiplier, organic_lib, organic_wire, _COUNTS)
    got, counted = _counted_sweep(multiplier, organic_lib, organic_wire,
                                  _COUNTS, skew_fo4=1.0)
    assert counted == (len(_COUNTS), 0, 1)
    assert got == _uncached_sweep(monkeypatch, multiplier, organic_lib,
                                  organic_wire, _COUNTS, skew_fo4=1.0)


def test_subset_sweep_partially_hits(multiplier, organic_lib, organic_wire,
                                     private_cache, monkeypatch):
    """A fig15-style re-sweep reuses fig12's budgets, bit for bit."""
    first = pipeline_sweep(multiplier, organic_lib, organic_wire,
                           [1, 2, 4, 6, 8])
    subset = [8, 1, 3, 4]
    got, (hits, misses, _) = _counted_sweep(multiplier, organic_lib,
                                            organic_wire, subset)
    assert (hits, misses) == (3, 1)
    by_count = dict(zip([1, 2, 4, 6, 8], first))
    for n, result in zip(subset, got):
        if n in by_count:
            assert result == by_count[n]
    assert got == _uncached_sweep(monkeypatch, multiplier, organic_lib,
                                  organic_wire, subset)


@pytest.mark.parametrize("corruption", ["{not json", '{"budget": "x"}',
                                        "[]"])
def test_corrupt_entry_is_recomputed(corruption, multiplier, organic_lib,
                                     organic_wire, private_cache,
                                     monkeypatch):
    want = pipeline_sweep(multiplier, organic_lib, organic_wire, _COUNTS)
    entries = sorted(private_cache.glob("*.json"))
    assert len(entries) == len(_COUNTS)
    entries[0].write_text(corruption)
    got, (hits, misses, _) = _counted_sweep(multiplier, organic_lib,
                                            organic_wire, _COUNTS)
    assert got == want
    # Undecodable: a miss.  Decodable but malformed: a rejected hit.
    undecodable = corruption == "{not json"
    assert hits + misses == len(_COUNTS) and misses == undecodable
    assert telemetry.counters().get("cache.reject.pipeline", 0) == (
        not undecodable)
    # Either way the entry holds a good budget again.
    assert isinstance(json.loads(entries[0].read_text())["budget"], float)
    _, (hits, misses, _) = _counted_sweep(multiplier, organic_lib,
                                          organic_wire, _COUNTS)
    assert (hits, misses) == (len(_COUNTS), 0)


def test_warm_fig12_relevels_cached_budgets(organic_lib, silicon_lib,
                                            monkeypatch):
    """Figure 12 repeated on one result cache: the repeat is served
    every budget, rejects none, makes one final level pass per process
    sweep and equals the first."""
    from repro.analysis import figures

    monkeypatch.setattr(figures, "load_libraries",
                        lambda: (organic_lib, silicon_lib))
    counts = [1, 2, 4]
    first = figures.fig12_alu_depth(stage_counts=counts)
    assert len(list((default_cache().root / "pipeline").glob("*.json"))) \
        == 2 * len(counts)
    with telemetry.collecting():
        again = figures.fig12_alu_depth(stage_counts=counts)
    counters = telemetry.counters()
    assert again == first
    assert counters["cache.hit.pipeline"] == 2 * len(counts)
    assert counters.get("cache.miss.pipeline", 0) == 0
    assert counters.get("cache.reject.pipeline", 0) == 0
    assert counters["pipeline.level_passes"] == 2

def test_lookahead_settles_three_rounds_per_pass(multiplier, organic_lib,
                                                 organic_wire, private_cache,
                                                 monkeypatch):
    """One level pass per LOOKAHEAD bisection rounds, plus the final one."""
    probes = []
    scalar = pipeline.stages_needed
    monkeypatch.setattr(pipeline, "stages_needed",
                        lambda *args: probes.append(1) or scalar(*args))
    rounds = 0
    for n in (1, 4):
        probes.clear()
        min_period_for_stages(multiplier, organic_lib, organic_wire, n)
        rounds = max(rounds, len(probes) - 1)    # less the budget-hi probe
    assert rounds > pipeline.LOOKAHEAD
    _, (_, misses, passes) = _counted_sweep(multiplier, organic_lib,
                                            organic_wire, [1, 4])
    assert misses == 2
    assert passes == -(-rounds // pipeline.LOOKAHEAD) + 1


class TestWireModel:
    def test_scaled_zero(self):
        wm = silicon_wire_model().scaled(0.0)
        assert wm.net_capacitance(3) == 0.0
        assert wm.elmore_delay(3, 1e-15) == 0.0

    def test_net_length_grows_with_fanout(self):
        wm = organic_wire_model()
        assert wm.net_length(8) > wm.net_length(1)

    def test_block_span(self):
        assert block_span(4e-6) == pytest.approx(2e-3)
        with pytest.raises(SynthesisError):
            block_span(-1.0)

    def test_invalid_parameters(self):
        with pytest.raises(SynthesisError):
            WireModel("bad", c_per_m=-1.0, r_per_m=1.0, pitch=1e-6)
