"""Differential checks: every fast path diffed against its oracle.

The repo carries six "same answer, faster" engines (batched ensemble
transients, the compiled IPC kernel, levelised-array STA,
lockstep pipeline cutting, composed block cell counts and the
persistent result cache).  Each check
here runs a seeded sample through both the fast path and its reference
implementation and fails on any disagreement beyond the documented
tolerance — the tolerances are the same ones the unit suites enforce,
so a validation failure means a real regression, not noise.
"""

from __future__ import annotations

from repro.validate.checks import (
    CheckContext,
    check,
    expect,
    expect_close,
    swap_attr,
    swap_env,
)

#: Tolerance shared with the ensemble-equivalence unit suite.
ENSEMBLE_REL = 1e-9


# ---------------------------------------------------------------------------
# A small characterised library, built once per process.
#
# Differential STA and the NLDM invariants need real characterised
# tables, but a full library build (4x4 grid, setup-time bisection) is a
# minutes-scale job.  This mini build characterises the five
# combinational cells on a 2x3 grid — every code path of the harness,
# a fraction of the transients — and stubs the sequential timing, which
# no validation check depends on: the pipeline check prices it alike on
# both of the paths it compares.
# ---------------------------------------------------------------------------

_MINI_CACHE: dict = {}


def mini_organic_library():
    """A real (but small-grid) characterised organic library, memoised."""
    if "library" in _MINI_CACHE:
        return _MINI_CACHE["library"]
    from repro.cells.library_def import organic_library_definition
    from repro.characterization.harness import (
        CharacterizationGrid,
        characterize_cell,
        default_grid,
    )
    from repro.characterization.library import Library, SequentialTiming
    from repro.characterization.nldm import NldmTable

    defn = organic_library_definition()
    base = default_grid(defn)
    grid = CharacterizationGrid(
        slews=(base.slews[0], base.slews[2]),
        loads=(base.loads[0], base.loads[1], base.loads[2]))
    cells = {name: characterize_cell(defn.cell(name), grid,
                                     area=defn.cell_area(name))
             for name in defn.COMBINATIONAL}

    # Placeholder sequential timing: no validation check reads it, but
    # Library requires the field.  Values are scaled from the inverter
    # tables so they are at least dimensionally sensible.
    inv_delay = cells["inv"].arcs[0].delay
    dff = SequentialTiming(
        name="dff", input_caps={"d": defn.input_capacitance("inv", "a"),
                                "clk": defn.input_capacitance("inv", "a")},
        area=defn.cell_area("dff"),
        clk_to_q=NldmTable(inv_delay.slews.copy(), inv_delay.loads.copy(),
                           2.0 * inv_delay.values),
        setup_time=float(inv_delay.values.max()),
        hold_time=0.0, leakage=0.0)

    _MINI_CACHE["library"] = Library(
        name=f"{defn.name}-mini", process=defn.process, vdd=defn.vdd,
        cells=cells, dff=dff,
        metadata={"note": "validation mini-library; sequential timing "
                          "is a stub that no check depends on"})
    return _MINI_CACHE["library"]


@check("ensemble-vs-scalar-arc", "differential")
def ensemble_vs_scalar_arc(ctx: CheckContext) -> str:
    """Batched ensemble arc measurement == scalar transient measurement."""
    from repro.cells.library_def import organic_library_definition
    from repro.characterization.harness import (
        default_grid,
        measure_arc,
        measure_pin_batch,
    )

    defn = organic_library_definition()
    inv = defn.cell("inv")
    grid = default_grid(defn)
    rng = ctx.rng()
    n_points = 3 if ctx.fast else 8
    points = []
    for _ in range(n_points):
        s = rng.uniform(grid.slews[0], grid.slews[-1])
        c = rng.uniform(grid.loads[0], grid.loads[-1])
        points.append((s, c))

    compared = 0
    for input_rise in (True, False):
        scalar = [measure_arc(inv, "a", input_rise, s, c)
                  for s, c in points]
        batched = measure_pin_batch(inv, "a", [(input_rise, s, c)
                                               for s, c in points])
        for (s, c), (d_ref, t_ref), (d_b, t_b) in zip(points, scalar,
                                                      batched):
            where = f"inv.a {'rise' if input_rise else 'fall'} " \
                    f"slew={s:g} load={c:g}"
            expect_close(d_b, d_ref, rel=ENSEMBLE_REL,
                         label=f"delay @ {where}")
            expect_close(t_b, t_ref, rel=ENSEMBLE_REL,
                         label=f"transition @ {where}")
            compared += 1
    return f"{compared} arc points agree to rel {ENSEMBLE_REL:g}"


@check("backend-agreement", "differential")
def backend_agreement(ctx: CheckContext) -> str:
    """numpy == native (both dispatch depths, any thread count) on real arcs.

    The native backend is measured three times: the whole-timestep C
    sweep (``NativeBackend.whole_timestep``, the default) on its automatic
    thread budget and on one thread, and the per-iteration Newton kernel
    under the Python sweep loop.  All must agree with numpy to solver
    tolerance on the seeded mini-grid — and with *each other* bitwise,
    which the step-schedule contract promises.
    """
    from repro.cells.library_def import organic_library_definition
    from repro.characterization.harness import default_grid, measure_pin_batch
    from repro.spice.backends import (
        NativeBackend,
        NumpyBackend,
        reset_backend,
    )

    defn = organic_library_definition()
    inv = defn.cell("inv")
    grid = default_grid(defn)
    rng = ctx.rng()
    n_points = 2 if ctx.fast else 5
    points = []
    for _ in range(n_points):
        s = rng.uniform(grid.slews[0], grid.slews[-1])
        c = rng.uniform(grid.loads[0], grid.loads[-1])
        points.append((s, c))

    legs = (("numpy", NumpyBackend, True, None),
            ("native", NativeBackend, True, None),
            ("native-1thread", NativeBackend, True, 1),
            ("native-periter", NativeBackend, False, None))
    results: dict[str, list[tuple[float, float]]] = {}
    try:
        for leg, backend_cls, whole_timestep, threads in legs:
            backend = backend_cls()
            if not backend.available():
                continue                 # e.g. native without a C compiler
            with swap_attr(NativeBackend, "whole_timestep",
                           whole_timestep), \
                    swap_attr(NativeBackend, "threads", threads):
                reset_backend(backend)
                results[leg] = measure_pin_batch(
                    inv, "a", [(True, s, c) for s, c in points])
    finally:
        reset_backend()

    expect("numpy" in results, "reference numpy backend failed to resolve")
    reference = results["numpy"]
    compared = 0
    for name, measured in results.items():
        if name == "numpy":
            continue
        # The compiled kernel reorders floating-point work, so it gets
        # solver tolerance.
        for (s, c), (d_ref, t_ref), (d_b, t_b) in zip(points, reference,
                                                      measured):
            where = f"{name} inv.a rise slew={s:g} load={c:g}"
            expect_close(d_b, d_ref, rel=1e-6, label=f"delay @ {where}")
            expect_close(t_b, t_ref, rel=1e-6, label=f"transition @ {where}")
            compared += 1
    if "native" in results:
        expect(results["native"] == results["native-periter"],
               "whole-timestep native and per-iteration native disagree "
               "bitwise — the step-schedule contract is broken")
        expect(results["native"] == results["native-1thread"],
               "whole-timestep native on its thread budget and on one "
               "thread disagree bitwise — a lane depends on its thread")
    backends = "+".join(sorted(results))
    return f"{backends}: {compared} arc points agree"


@check("ipc-kernel-agreement", "differential")
def ipc_kernel_agreement(ctx: CheckContext) -> str:
    """native == reference, cycle-exact (when a compiler is present)."""
    from repro.core import ipc_native
    from repro.core.config import CoreConfig
    from repro.core.superscalar import simulate
    from repro.core.tradeoffs import make_traces

    if not ipc_native.native_available():
        return ("no native kernel available: the reference loop is the "
                "only IPC kernel")
    n_instructions = 2_000 if ctx.fast else 12_000
    traces = make_traces(workloads=["dhrystone", "bzip"],
                         n_instructions=n_instructions, seed=ctx.seed)
    configs = [CoreConfig(), CoreConfig().widened(2, 3)]

    compared = 0
    for config in configs:
        for name, trace in traces.items():
            where = f"{config.name}/{name}"
            reference = simulate(config, trace, kernel="reference")
            native = simulate(config, trace, kernel="fast")
            expect(native.cycles == reference.cycles,
                   f"native kernel disagrees with reference on "
                   f"{where}: {native.cycles} != {reference.cycles}")
            expect(native.mispredicts == reference.mispredicts,
                   f"mispredict count disagrees on {where}")
            compared += 1
    return f"{compared} config x trace pairs cycle-exact, native vs reference"


@check("sta-vector-vs-scalar", "differential")
def sta_vector_vs_scalar(ctx: CheckContext) -> str:
    """Levelised-array STA == scalar STA on a synthesized block."""
    import repro.synthesis.sta as sta
    from repro.synthesis.generators import (
        carry_select_adder,
        ripple_carry_adder,
        simple_alu,
    )
    from repro.synthesis.mapping import technology_map
    from repro.synthesis.wires import organic_wire_model

    builders = {
        "rca8": lambda: ripple_carry_adder(8),
        "csa8": lambda: carry_select_adder(8),
        "alu8": lambda: simple_alu(8),
    }
    rng = ctx.rng()
    names = ([rng.choice(sorted(builders))] if ctx.fast
             else sorted(builders))
    library = mini_organic_library()
    wire = organic_wire_model()
    input_slew = library.typical_slew()

    checked = []
    for name in names:
        netlist = technology_map(builders[name]())
        expect(sta._library_grids(library) is not None,
               f"vector STA refused library it should batch ({name})")
        vector = sta._vector_timing(netlist, library, wire, input_slew,
                                    None)["report"]
        with swap_attr(sta, "VECTOR_MIN_GATES", 10 ** 9):
            scalar = sta.static_timing(netlist, library, wire)
        expect_close(vector.max_delay, scalar.max_delay, rel=1e-12,
                     label=f"{name} max_delay")
        expect(vector.critical_path == scalar.critical_path,
               f"{name}: critical paths diverge")
        for attr in ("arrival", "slew"):
            vec_d, ref_d = getattr(vector, attr), getattr(scalar, attr)
            expect(vec_d.keys() == ref_d.keys(),
                   f"{name}: {attr} key sets diverge")
            for key, ref_val in ref_d.items():
                expect_close(vec_d[key], ref_val, rel=1e-9,
                             label=f"{name} {attr}[{key}]")
        checked.append(f"{name}({len(netlist.gates)} gates)")
    return "engines agree on " + ", ".join(checked)


@check("sta-incremental-agreement", "differential")
def sta_incremental_agreement(ctx: CheckContext) -> str:
    """Incremental delta-retiming == full re-time, bit for bit.

    Grows a carry-select adder through a width chain (copy-on-extend
    netlists, memoised mapping, session-based delta STA) and diffs
    every report field against a fresh synthesis timed on a cleared
    session store.  Each extension is timed under a second wire model
    before the chain's own, so sessions of one wire must never serve the
    other.  The contract is bitwise identity — ``==``, no tolerance.
    Only the scalar engine re-times from a base; the vector engine
    always runs a full pass, which ``sta-vector-vs-scalar`` checks
    against the scalar oracle.
    """
    import repro.synthesis.sta as sta
    from repro.synthesis.generators import (
        carry_select_adder,
        extend_carry_select_adder,
    )
    from repro.synthesis.mapping import (
        map_cached,
        reset_map_cache,
        technology_map,
    )
    from repro.synthesis.wires import organic_wire_model, silicon_wire_model

    library = mini_organic_library()
    wire, other = organic_wire_model(), silicon_wire_model()
    widths = (8, 12) if ctx.fast else (8, 12, 16, 24)

    compared = 0
    with swap_attr(sta, "VECTOR_MIN_GATES", 10 ** 9):
        sta.reset_incremental()
        reset_map_cache()
        base = carry_select_adder(widths[0])
        incremental = {(widths[0], wire): sta.static_timing(
            map_cached(base), library, wire)}
        for w in widths[1:]:
            base = extend_carry_select_adder(base, w)
            for wm in (other, wire):
                incremental[w, wm] = sta.static_timing(
                    map_cached(base), library, wm)
        expect(len(sta._SESSIONS) == len(incremental),
               "the width chain did not record one session per pass")
        sta.reset_incremental()
        for (w, wm), inc in incremental.items():
            full = sta.static_timing(
                technology_map(carry_select_adder(w)), library, wm)
            where = f"csa{w}/{wm.name}"
            expect(inc.max_delay == full.max_delay,
                   f"{where}: max_delay diverges "
                   f"({inc.max_delay!r} != {full.max_delay!r})")
            expect(inc.critical_path == full.critical_path,
                   f"{where}: critical paths diverge")
            for attr in ("arrival", "slew", "load", "gate_delay"):
                expect(getattr(inc, attr) == getattr(full, attr),
                       f"{where}: {attr} not bit-identical")
            compared += 1
    sta.reset_incremental()
    reset_map_cache()
    return (f"{compared} width x wire points bit-identical across "
            f"widths {list(widths)}")


@check("complex-counts-vs-built", "differential")
def complex_counts_vs_built(ctx: CheckContext) -> str:
    """Composed complex-ALU counts == the built and mapped slice.

    Block area prices the complex slice from
    :func:`~repro.synthesis.generators.complex_alu_slice_counts` and
    never builds it; this builds the slice at seeded widths and asks
    for exact integer equality with its generic cell counts, and of
    the lowered multiset with the census of its technology mapping.
    """
    from repro.synthesis.generators import (
        complex_alu_slice,
        complex_alu_slice_counts,
    )
    from repro.synthesis.mapping import lower_cell_counts, technology_map

    rng = ctx.rng()
    widths = ([rng.randint(1, 16)] if ctx.fast
              else sorted(rng.sample(range(1, 33), 4)))
    for w in widths:
        built = complex_alu_slice(w)
        composed, generic = complex_alu_slice_counts(w), built.cell_counts()
        expect(composed == generic,
               f"width {w}: composed generic counts {composed} != "
               f"built {generic}")
        census = technology_map(built).cell_counts()
        lowered = lower_cell_counts(composed)
        expect(lowered == census,
               f"width {w}: lowered counts {lowered} != mapped census "
               f"{census}")
    return (f"composed counts exact at widths {widths} "
            f"(generic and mapped)")


@check("pipeline-batched-vs-scalar", "differential")
def pipeline_batched_vs_scalar(ctx: CheckContext) -> str:
    """Lockstep ``pipeline_sweep`` == per-n ``min_period_for_stages``.

    Cuts a mapped 8-bit multiplier at a seeded, unsorted list of stage
    counts (with a repeat and one count past the gate-granularity cap)
    twice against a private, empty result cache: the first sweep
    bisects, the second is served from the cache.  Both are compared
    with the oracle field by field with ``==``, ``stage_of_gate``
    included: the contract is bitwise identity.
    """
    import tempfile

    from repro.runtime.cache import stats_snapshot
    from repro.synthesis.generators import wallace_multiplier
    from repro.synthesis.mapping import technology_map
    from repro.synthesis.pipeline import min_period_for_stages, pipeline_sweep
    from repro.synthesis.wires import organic_wire_model

    library = mini_organic_library()
    wire = organic_wire_model()
    netlist = technology_map(wallace_multiplier(8))
    rng = ctx.rng()
    counts = [1, 2, 3, 4, 6] if ctx.fast else list(range(1, 17))
    counts += [rng.choice(counts), 500]
    rng.shuffle(counts)

    with tempfile.TemporaryDirectory(prefix="repro-validate-") as tmp, \
            swap_env(REPRO_CACHE_DIR=tmp, REPRO_CACHE=None):
        bisected = pipeline_sweep(netlist, library, wire, counts)
        hits = stats_snapshot()["hits"]
        served = pipeline_sweep(netlist, library, wire, counts)
        hits = stats_snapshot()["hits"] - hits
    expect(hits == len(set(counts)),
           f"second sweep should hit once per distinct count, hit {hits}")
    for n, *pair in zip(counts, bisected, served):
        want = min_period_for_stages(netlist, library, wire, n)
        for label, got in zip(("bisected", "cached"), pair):
            for name in got.__dataclass_fields__:
                expect(getattr(got, name) == getattr(want, name),
                       f"{label} n={n}: {name} diverges from the scalar "
                       f"oracle ({getattr(got, name)!r:.80} != "
                       f"{getattr(want, name)!r:.80})")
    return (f"{len(counts)} stage counts {counts} bit-identical on "
            f"{netlist.name} ({len(netlist.gates)} gates), bisected and "
            f"cached")


@check("cache-warm-vs-cold", "differential")
def cache_warm_vs_cold(ctx: CheckContext) -> str:
    """A cache hit returns exactly what the cold computation produced."""
    import tempfile

    from repro.core.config import CoreConfig
    from repro.core.superscalar import simulate, simulate_cached
    from repro.core.tradeoffs import make_traces
    from repro.runtime.cache import ResultCache

    config = CoreConfig()
    trace = make_traces(workloads=["dhrystone"], n_instructions=2_000,
                        seed=ctx.seed)["dhrystone"]
    uncached = simulate(config, trace)
    with tempfile.TemporaryDirectory(prefix="repro-validate-") as tmp:
        cache = ResultCache(root=tmp, enabled=True)
        cold = simulate_cached(config, trace, cache=cache)
        expect(cache.misses == 1 and cache.hits == 0,
               f"cold run should miss exactly once "
               f"(hits={cache.hits}, misses={cache.misses})")
        warm = simulate_cached(config, trace, cache=cache)
        expect(cache.hits == 1,
               f"warm run should hit (hits={cache.hits})")
    for attr in ("instructions", "cycles", "branch_count",
                 "mispredicts", "l1_misses"):
        expect(getattr(warm, attr) == getattr(cold, attr)
               == getattr(uncached, attr),
               f"cached result field {attr} diverges: "
               f"warm={getattr(warm, attr)}, cold={getattr(cold, attr)}, "
               f"uncached={getattr(uncached, attr)}")
    expect(warm.ipc == uncached.ipc, "cached IPC not bit-identical")
    return "warm hit bit-identical to cold computation and plain simulate"
