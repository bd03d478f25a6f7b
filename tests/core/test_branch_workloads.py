"""Branch predictor and workload-generator tests."""

import pytest

from repro.core.branch import GsharePredictor
from repro.core.isa import InstrClass
from repro.core.workloads import WORKLOADS, generate_trace
from repro.errors import ConfigError


class TestPredictors:
    def test_learns_constant_branch(self):
        p = GsharePredictor(10)
        correct = [p.predict_and_update(123, True) for _ in range(100)]
        assert all(correct[10:])

    def test_learns_loop_pattern(self):
        """A short loop pattern is near-perfect under global history."""
        p = GsharePredictor(12)
        pattern = [True, True, True, False]
        correct = []
        for i in range(400):
            correct.append(p.predict_and_update(55, pattern[i % 4]))
        assert sum(correct[100:]) > 0.95 * 300

    def test_random_branch_near_chance(self):
        import random
        rng = random.Random(0)
        p = GsharePredictor(12)
        correct = [p.predict_and_update(7, rng.random() < 0.5)
                   for _ in range(2000)]
        assert 0.35 < sum(correct[500:]) / 1500 < 0.65

    def test_bad_index_bits(self):
        with pytest.raises(ConfigError):
            GsharePredictor(2)


class TestWorkloads:
    def test_all_seven_benchmarks_present(self):
        assert set(WORKLOADS) == {"dhrystone", "bzip", "gap", "gzip",
                                  "mcf", "parser", "vortex"}

    def test_mixes_sum_to_one(self):
        for spec in WORKLOADS.values():
            assert sum(spec.mix.values()) == pytest.approx(1.0)

    def test_trace_deterministic(self):
        a = generate_trace(WORKLOADS["gzip"], 2000, seed=5)
        b = generate_trace(WORKLOADS["gzip"], 2000, seed=5)
        assert [i.klass for i in a] == [i.klass for i in b]
        assert [i.taken for i in a] == [i.taken for i in b]

    def test_trace_length(self):
        t = generate_trace(WORKLOADS["mcf"], 1234)
        assert len(t) == 1234

    def test_class_mix_matches_spec(self):
        spec = WORKLOADS["dhrystone"]
        trace = generate_trace(spec, 40_000)
        mix = trace.class_mix()
        assert mix[InstrClass.ALU] == pytest.approx(spec.mix["alu"], abs=0.02)
        assert mix[InstrClass.BRANCH] == pytest.approx(spec.mix["branch"],
                                                       abs=0.02)

    def test_mcf_missier_than_dhrystone(self):
        mcf = generate_trace(WORKLOADS["mcf"], 30_000)
        dhry = generate_trace(WORKLOADS["dhrystone"], 30_000)
        misses = lambda t: sum(1 for i in t if i.is_miss)  # noqa: E731
        assert misses(mcf) > 20 * max(misses(dhry), 1)

    def test_stores_and_branches_have_no_dst(self):
        trace = generate_trace(WORKLOADS["vortex"], 10_000)
        for instr in trace:
            if instr.klass in (InstrClass.STORE, InstrClass.BRANCH):
                assert instr.dst == -1

    def test_bad_length(self):
        with pytest.raises(ConfigError):
            generate_trace(WORKLOADS["gap"], 0)
