"""Cycle-exact equivalence: the fast IPC kernel vs the reference oracle.

The fast path is the compiled C kernel (:mod:`repro.core.ipc_native`);
without a compiler ``kernel="fast"`` runs the reference loop itself.
Either way the result must be *identical* — ``cycles``, ``mispredicts``,
``l1_misses`` and the ``ipc.fetch_redirects`` counter — to the original
instruction-object oracle
(:func:`repro.core.superscalar._simulate_reference`) on every config and
workload: the sweeps' figures are only trustworthy if the speedup
changes nothing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ipc_native
from repro.core.config import CoreConfig, baseline_regions
from repro.core.superscalar import _simulate_reference, simulate
from repro.core.tradeoffs import make_traces

TRACE_LENGTH = 2_500

_BACKENDS = ["python", "native"]


@pytest.fixture(scope="module")
def traces():
    return make_traces(n_instructions=TRACE_LENGTH)


@pytest.fixture(params=_BACKENDS)
def fast_backend(request):
    """Run ``kernel="fast"`` without a compiler or on the compiled kernel.

    ``ipc_native.reset(None)`` pins the load state to "unavailable" so
    ``simulate`` takes the no-compiler path, the pure-Python reference
    loop; plain ``reset()`` restores autodetection.  The native case is
    skipped where no C compiler exists — the Python case always runs.
    """
    ipc_native.reset()
    if request.param == "native":
        if not ipc_native.native_available():
            pytest.skip("no C compiler / compiled kernel unavailable")
    else:
        ipc_native.reset(None)
    yield request.param
    ipc_native.reset()


def _regions(**splits) -> dict[str, int]:
    regions = baseline_regions()
    regions.update(splits)
    return regions


# Depth axis: every region family gets split somewhere; width axis spans
# the Figure 13/14 grid corners including multi-ALU back ends; the last
# rows shrink the occupancy windows so the ring buffers actually wrap.
GRID_CONFIGS = [
    CoreConfig(),
    CoreConfig(name="front_heavy",
               regions=_regions(fetch=2, decode=2, rename=2, dispatch=2)),
    CoreConfig(name="sched_heavy", regions=_regions(issue=3, regread=2)),
    CoreConfig(name="exec_heavy", regions=_regions(execute=3)),
    CoreConfig(name="back_heavy", regions=_regions(writeback=2, retire=3)),
    CoreConfig(name="d18", regions={r: 2 for r in baseline_regions()}),
    CoreConfig().widened(2, 3),
    CoreConfig().widened(3, 5),
    CoreConfig().widened(6, 7),
    CoreConfig(name="tiny_windows", iq_size=4, rob_size=8, lsq_size=4),
    CoreConfig(name="small_pred", predictor_bits=4,
               l1_hit_latency=1, l1_miss_latency=40),
]


def _assert_equivalent(config, trace):
    fast = simulate(config, trace, kernel="fast")
    ref = _simulate_reference(config, trace)
    assert (fast.cycles, fast.mispredicts, fast.l1_misses) == \
        (ref.cycles, ref.mispredicts, ref.l1_misses), config.name
    assert fast.instructions == ref.instructions
    assert fast.branch_count == ref.branch_count
    assert fast.ipc == pytest.approx(ref.ipc)


@pytest.mark.parametrize("config", GRID_CONFIGS, ids=lambda c: c.name)
def test_grid_equivalence(config, traces, fast_backend):
    for trace in traces.values():
        _assert_equivalent(config, trace)


@settings(max_examples=25, deadline=None)
@given(
    front_width=st.integers(1, 6),
    back_width=st.integers(3, 8),
    fetch=st.integers(1, 3), decode=st.integers(1, 2),
    rename=st.integers(1, 2), dispatch=st.integers(1, 2),
    issue=st.integers(1, 3), regread=st.integers(1, 3),
    execute=st.integers(1, 4), writeback=st.integers(1, 2),
    retire=st.integers(1, 2),
    iq_size=st.integers(4, 48), rob_size=st.integers(4, 128),
    lsq_size=st.integers(4, 32),
    predictor_bits=st.integers(4, 14),
    l1_hit_latency=st.integers(1, 4), l1_miss_latency=st.integers(4, 40),
)
def test_randomized_configs(front_width, back_width, fetch, decode, rename,
                            dispatch, issue, regread, execute, writeback,
                            retire, iq_size, rob_size, lsq_size,
                            predictor_bits, l1_hit_latency, l1_miss_latency):
    """Hypothesis sweep of the config space, one mixed workload.

    Checks whichever fast kernel is active by default against the
    reference loop the compiled kernel transliterates.
    """
    config = CoreConfig(
        name="hyp", front_width=front_width, back_width=back_width,
        regions={"fetch": fetch, "decode": decode, "rename": rename,
                 "dispatch": dispatch, "issue": issue, "regread": regread,
                 "execute": execute, "writeback": writeback,
                 "retire": retire},
        iq_size=iq_size, rob_size=rob_size, lsq_size=lsq_size,
        predictor_bits=predictor_bits,
        l1_hit_latency=l1_hit_latency, l1_miss_latency=l1_miss_latency)
    trace = _HYP_TRACE
    ref = _simulate_reference(config, trace)

    ipc_native.reset()
    fast = simulate(config, trace, kernel="fast")
    assert (fast.cycles, fast.mispredicts, fast.l1_misses) == \
        (ref.cycles, ref.mispredicts, ref.l1_misses)


_HYP_TRACE = make_traces(workloads=["gzip"],
                         n_instructions=1_500)["gzip"]


def test_fetch_redirect_counter_parity(traces):
    """``ipc.fetch_redirects``: the C kernel and the reference loop agree.

    The counter records *applied* redirects — mispredicted branches
    whose resolve cycle actually pushed the fetch cursor forward — so
    beyond cycle equality the kernels must agree on a piece of internal
    schedule state.  Checked on the general config and a width-1 front
    end, per workload, as exact integers.
    """
    from repro.runtime import telemetry

    def run(config, trace, kernel):
        telemetry.reset()
        telemetry.enable(True)
        try:
            result = simulate(config, trace, kernel=kernel)
            metrics = telemetry.metrics_snapshot()
        finally:
            telemetry.enable(False)
            telemetry.reset()
        counters = metrics.get("counters", metrics)
        return result.cycles, counters.get("ipc.fetch_redirects", 0)

    for config in (CoreConfig(), CoreConfig(name="w1", front_width=1)):
        reference = {}
        for name, trace in traces.items():
            cycles, redirects = run(config, trace, "reference")
            assert 0 <= redirects <= trace.branch_count()
            reference[name] = (cycles, redirects)
        # Not every workload redirects, but the suite must exercise
        # the counter or the parity check below is vacuous.
        assert any(redirects for _, redirects in reference.values())
        if not ipc_native.native_available():
            continue
        for name, trace in traces.items():
            assert run(config, trace, "fast") == reference[name], \
                (config.name, name)
    if not ipc_native.native_available():
        pytest.skip("reference loop counts redirects; no compiled kernel "
                    "to compare against")


def test_kernel_arg_selects_reference(traces):
    """``kernel='reference'`` picks the oracle."""
    trace = next(iter(traces.values()))
    config = CoreConfig()
    via_arg = simulate(config, trace, kernel="reference")
    direct = _simulate_reference(config, trace)
    assert via_arg == direct


def test_unknown_kernel_rejected(traces):
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        simulate(CoreConfig(), next(iter(traces.values())), kernel="turbo")
