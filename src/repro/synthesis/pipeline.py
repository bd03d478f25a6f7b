"""Pipeline cutting / retiming: minimum clock period for N stages.

The repro equivalent of the paper's methodology: "we synthesize the
baseline design and cut the stage which is on the critical path manually to
ensure an improved clock rate" plus DesignWare's "parameterized number of
pipeline stages and automatic pipeline retiming" (Section 5.1).

Given a mapped netlist and per-gate delays (NLDM + wire, from STA), a
greedy ASAP leveling assigns each gate to the earliest stage whose
remaining logic budget fits it.  Binary search over the budget finds the
minimum clock period achievable with N stages:

    period(N) = logic_budget(N) + clk->q + setup + skew + feedback-wire

The last term is the per-cycle cost of the cross-pipeline feedback signals
(bypasses, stalls, branch resolution) travelling the block's physical span
— the wire cost that, per the paper, silicon pays in gate-delay terms and
the organic process does not.  Gate granularity emerges naturally: no
budget can go below the largest single gate delay, which is what tops out
the organic curves around 22 stages in Figure 12.

Registers inserted at stage boundaries are counted per crossed boundary
(a value consumed k stages after production needs k flops), which drives
the area growth with depth.

Two implementations compute the same cut (DESIGN §7j):

- the **scalar oracle** — :func:`stages_needed` (a dict walk in
  topological order), :func:`count_registers` and the per-stage-count
  bisection :func:`min_period_for_stages`;
- the **lockstep sweep** — :func:`pipeline_sweep` runs the bisections of
  every requested stage count together.  Each pass gathers every budget
  the counts still searching could probe in their next
  :data:`LOOKAHEAD` rounds and levels them all over the level-sorted
  netlist encoding of the vector STA engine, one numpy step per logic
  level.  Every count keeps its own bracket, round cap and tolerance
  stop, and every float operation is the scalar walker's, so each result
  equals the oracle's bit for bit.  Each count's best budget is kept in
  the persistent result cache, so a repeated sweep only re-levels it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from repro.characterization.library import Library
from repro.errors import PipelineError
from repro.runtime import telemetry
from repro.runtime.cache import default_cache
from repro.synthesis import sta as _sta
from repro.synthesis.netlist import Netlist
from repro.synthesis.sta import static_timing
from repro.synthesis.wires import WireModel, block_span

#: Bisection rounds per stage count (each halves the budget bracket).
MAX_ROUNDS = 60

#: Bisection stop: the budget bracket is within this fraction of its top.
TOLERANCE = 1e-3

#: Bisection rounds each level pass of the lockstep sweep settles: a
#: count's next rounds can probe at most ``2**LOOKAHEAD - 1`` midpoints,
#: so a pass carries at most that many budgets per count.
LOOKAHEAD = 3


@dataclass(frozen=True)
class PipelineResult:
    """Minimum-period pipelining of one netlist into ``n_stages``."""

    netlist_name: str
    n_stages: int
    period: float
    frequency: float
    logic_budget: float
    overhead: float
    n_registers: int
    gate_area: float
    register_area: float
    stage_of_gate: dict[str, int] = field(repr=False, default_factory=dict)

    @property
    def area(self) -> float:
        return self.gate_area + self.register_area


def per_gate_delays(netlist: Netlist, library: Library, wire: WireModel,
                    input_slew: float | None = None,
                    output_load: float | None = None) -> dict[str, float]:
    """Per-gate delay (NLDM + output wire RC) from one STA pass."""
    report = static_timing(netlist, library, wire, input_slew=input_slew,
                           output_load=output_load)
    return report.gate_delay


def stages_needed(netlist: Netlist, delays: dict[str, float],
                  budget: float) -> tuple[int, dict[str, int]] | None:
    """Greedy ASAP leveling: stages required for a per-stage logic budget.

    Returns ``(n_stages, stage_of_gate)``; ``None`` if some single gate
    exceeds the budget (gate granularity bound).
    """
    net_state: dict[str, tuple[int, float]] = {
        net: (0, 0.0) for net in netlist.primary_inputs}
    stage_of: dict[str, int] = {}
    max_stage = 0
    for gate in netlist.topological_order():
        d = delays[gate.name]
        if d > budget:
            return None
        s = 0
        t_in = 0.0
        for net in gate.inputs:
            ns, nt = net_state[net]
            if ns > s:
                s, t_in = ns, nt
            elif ns == s:
                t_in = max(t_in, nt)
        t_out = t_in + d
        if t_out > budget:
            s += 1
            t_out = d
        stage_of[gate.name] = s
        net_state[gate.output] = (s, t_out)
        if s > max_stage:
            max_stage = s
    return max_stage + 1, stage_of


def count_registers(netlist: Netlist, stage_of: dict[str, int],
                    n_stages: int) -> int:
    """Pipeline flops: one per net per crossed stage boundary.

    Primary inputs are produced at stage 0's boundary; primary outputs are
    registered at the final boundary.
    """
    fanout = netlist.fanout_map()
    po_set = set(netlist.primary_outputs)
    total = 0
    for net, sinks in fanout.items():
        driver = netlist.driver_of(net)
        s_driver = stage_of[driver.name] if driver is not None else 0
        s_last = s_driver
        for sink, _pin in sinks:
            s_last = max(s_last, stage_of[sink.name])
        if net in po_set:
            s_last = max(s_last, n_stages - 1)
            total += 1                     # final output register
        total += s_last - s_driver
    return total


# ---------------------------------------------------------------------------
# Level-vectorised leveling (the lockstep sweep's probe)
# ---------------------------------------------------------------------------

def _level_stages(struct: dict, delays_lv: np.ndarray,
                  budgets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`stages_needed` for many budgets in one pass.

    *delays_lv* holds the gate delays in the structure's level order.
    Returns ``(n_stages, stage_net)``: per budget the stage count (0
    where some gate exceeds the budget, the scalar ``None``), and the
    ``(nets + 1, budgets)`` stage of every net — a gate's stage is
    ``stage_net[struct["g_out"]]``, a primary input's is 0.

    Net state is a (stage, time) pair per net and budget.  A gate takes
    the lexicographic max of its inputs' pairs, one pin at a time with
    ``np.maximum``; a pin the gate lacks reads the extra last row, which
    stays at (0, 0.0) — the scalar walker's starting pair.  Ties in
    stage keep the larger time, then one add per gate and a cut to a
    new stage past the budget: the same selections and the same single
    float add as the scalar walker.
    """
    if telemetry.ENABLED:
        telemetry.count("pipeline.level_passes")
    n_nets = len(struct["names"])
    g_in, g_out = struct["g_in"], struct["g_out"]
    stage_net = np.zeros((n_nets + 1, len(budgets)), dtype=np.int32)
    time_net = np.zeros((n_nets + 1, len(budgets)))
    start = 0
    for stop in struct["bounds"].tolist():
        if stop == start:
            continue
        pins = g_in[start:stop].T
        s_pins = [stage_net[pin] for pin in pins]
        s = reduce(np.maximum, s_pins)
        t = reduce(np.maximum, [np.where(s_pin == s, time_net[pin], 0.0)
                                for pin, s_pin in zip(pins, s_pins)])
        d = delays_lv[start:stop, None]
        t += d
        cut = t > budgets
        s += cut
        out = g_out[start:stop]
        stage_net[out] = s
        time_net[out] = np.where(cut, d, t)
        start = stop
    n_stages = stage_net.max(axis=0, initial=0) + 1
    n_stages[budgets < delays_lv.max(initial=-np.inf)] = 0
    return n_stages, stage_net


def _count_registers_lv(struct: dict, stage_net: np.ndarray,
                        n_stages: np.ndarray) -> np.ndarray:
    """:func:`count_registers` per column of a *stage_net* array.

    A net's last stage is the max of its driver's and its sinks' stages
    (``np.maximum.at`` over the pins; a missing pin lands in the extra
    last row, which the sum drops), raised to the final stage for
    primary outputs, each of which also costs one output register.
    """
    n_nets = len(struct["names"])
    g_in, g_out, po = struct["g_in"], struct["g_out"], struct["po_ids"]
    s_driver = stage_net.astype(np.int64)
    s_last = s_driver.copy()
    stage = s_driver[g_out]
    for p in range(g_in.shape[1]):
        np.maximum.at(s_last, g_in[:, p], stage)
    s_last[po] = np.maximum(s_last[po], n_stages - 1)
    return (s_last[:n_nets] - s_driver[:n_nets]).sum(axis=0) + len(po)


def _lockstep_inputs(netlist: Netlist, delays: dict[str, float]
                     ) -> tuple[dict, np.ndarray]:
    struct = _sta._vector_structure(netlist)
    return struct, np.array([delays[name] for name in struct["gate_names"]],
                            dtype=float)


# ---------------------------------------------------------------------------
# Sequencing overhead
# ---------------------------------------------------------------------------

def broadcast_penalty(library: Library, wire: WireModel,
                      span_length: float) -> float:
    """Per-cycle cost of a feedback signal crossing the block's span.

    Modelled as the extra delay of an inverter driving the span wire's
    capacitance (NLDM lookup, so it is priced in *this process's* gate
    currents) plus the wire's own Elmore delay.
    """
    inv = library.cell("inv")
    cin = inv.input_caps["a"]
    slew = library.typical_slew()
    c_span = wire.span_capacitance(span_length)
    loaded = inv.delay("a", slew, 4.0 * cin + c_span)
    unloaded = inv.delay("a", slew, 4.0 * cin)
    return (loaded - unloaded) + wire.span_elmore(span_length, cin)


#: Feedback-wire length model: stall/bypass/branch-resolution signals must
#: cross the block each cycle; their routed length grows with pipeline
#: depth (they span more stage boundaries — the Pentium-4 "wire stages"
#: effect the paper cites in Section 5.5).
FEEDBACK_BASE_SPANS = 0.5
FEEDBACK_SPANS_PER_STAGE = 0.15


def _gate_area(netlist: Netlist, library: Library) -> float:
    return sum(library.cell(g.cell).area for g in netlist.gates.values())


def _overhead(library: Library, wire: WireModel, gate_area: float,
              n_stages: int, skew_fo4: float) -> float:
    fo4 = library.inverter_fo4_delay()
    span = block_span(gate_area)
    feedback_length = span * (FEEDBACK_BASE_SPANS
                              + FEEDBACK_SPANS_PER_STAGE * n_stages)
    return (library.register_overhead()
            + skew_fo4 * fo4
            + broadcast_penalty(library, wire, feedback_length))


def sequencing_overhead(netlist: Netlist, library: Library, wire: WireModel,
                        n_stages: int = 1, skew_fo4: float = 0.5) -> float:
    """Per-stage overhead: clk->q + setup + skew + feedback wire.

    The feedback term is where the processes diverge: it is priced by
    NLDM tables and the per-process wire model, so the same physical
    length costs silicon several FO4 and the organic process almost
    nothing (Section 5.5's "relatively fast wires").
    """
    return _overhead(library, wire, _gate_area(netlist, library), n_stages,
                     skew_fo4)


# ---------------------------------------------------------------------------
# Minimum period
# ---------------------------------------------------------------------------

def _check_request(netlist: Netlist, stage_counts) -> None:
    for n in stage_counts:
        if n < 1:
            raise PipelineError(f"n_stages must be >= 1, got {n}")
    if not netlist.gates:
        raise PipelineError(
            f"netlist {netlist.name!r} has no gates to pipeline")


def _result(netlist: Netlist, library: Library, wire: WireModel,
            gate_area: float, skew_fo4: float, budget: float, n_stages: int,
            n_regs: int, assignment: dict[str, int]) -> PipelineResult:
    # Overhead is priced at the stage count actually achieved: asking for
    # more stages than the gate granularity permits does not add feedback
    # wire that was never built.
    overhead = _overhead(library, wire, gate_area, n_stages, skew_fo4)
    period = budget + overhead
    return PipelineResult(
        netlist_name=netlist.name,
        n_stages=n_stages,
        period=period,
        frequency=1.0 / period,
        logic_budget=budget,
        overhead=overhead,
        n_registers=n_regs,
        gate_area=gate_area,
        register_area=n_regs * library.dff.area,
        stage_of_gate=assignment,
    )


def _infeasible(netlist: Netlist, n_stages: int) -> PipelineError:
    return PipelineError(
        f"netlist {netlist.name!r} cannot fit in {n_stages} stage(s)")


def min_period_for_stages(netlist: Netlist, library: Library,
                          wire: WireModel, n_stages: int,
                          delays: dict[str, float] | None = None,
                          skew_fo4: float = 0.5,
                          tolerance: float = TOLERANCE) -> PipelineResult:
    """Minimum clock period cutting *netlist* into *n_stages* stages.

    The scalar oracle of :func:`pipeline_sweep`.
    """
    _check_request(netlist, [n_stages])
    if delays is None:
        delays = per_gate_delays(netlist, library, wire)

    # Budget bounds: one gate .. whole critical path.
    lo = max(delays.values())
    order = netlist.topological_order()
    arrival: dict[str, float] = {n: 0.0 for n in netlist.primary_inputs}
    for gate in order:
        arrival[gate.output] = delays[gate.name] + max(
            arrival[n] for n in gate.inputs)
    # Upper bound over ALL nets: the leveler assigns every gate, including
    # any not on an input-to-output path.  Tiny slack because summation
    # order differs between this bound and the greedy leveling.
    hi = max(arrival.values(), default=0.0)
    hi = max(hi, lo) * (1.0 + 1e-9)

    feasible_hi = stages_needed(netlist, delays, hi)
    if feasible_hi is None:
        raise PipelineError("critical-path budget infeasible (bug)")

    # If even the single-gate bound needs more stages than allowed, the
    # request is infeasible only when n_stages < stages at budget hi.
    if feasible_hi[0] > n_stages:
        raise _infeasible(netlist, n_stages)

    best_budget = hi
    best_assignment = feasible_hi[1]
    best_stages = feasible_hi[0]
    lo_b, hi_b = lo, hi
    for _ in range(MAX_ROUNDS):
        if hi_b - lo_b <= tolerance * hi_b:
            break
        mid = 0.5 * (lo_b + hi_b)
        res = stages_needed(netlist, delays, mid)
        if res is not None and res[0] <= n_stages:
            best_budget, best_stages, best_assignment = mid, res[0], res[1]
            hi_b = mid
        else:
            lo_b = mid

    n_regs = count_registers(netlist, best_assignment, best_stages)
    return _result(netlist, library, wire, _gate_area(netlist, library),
                   skew_fo4, best_budget, best_stages, n_regs,
                   best_assignment)


def _searching(lo_b: float, hi_b: float, probes: int) -> bool:
    """Whether a count's bracket takes another bisection round."""
    return probes < MAX_ROUNDS and hi_b - lo_b > TOLERANCE * hi_b


def _next_mids(lo_b: float, hi_b: float, probes: int,
               depth: int = LOOKAHEAD) -> list[float]:
    """Every midpoint a bracket could probe in its next *depth* rounds."""
    if depth == 0 or not _searching(lo_b, hi_b, probes):
        return []
    mid = 0.5 * (lo_b + hi_b)
    return [mid, *_next_mids(lo_b, mid, probes + 1, depth - 1),
            *_next_mids(mid, hi_b, probes + 1, depth - 1)]


def _lockstep(netlist: Netlist, struct: dict, delays_lv: np.ndarray,
              counts: list[int]) -> dict[int, float]:
    """Every count's :func:`min_period_for_stages` bisection in lockstep.

    Returns each count's best budget.  Each level pass carries every
    midpoint each count could probe in its next :data:`LOOKAHEAD`
    rounds; each bracket then walks those rounds with the scalar rule.
    """
    g_in, g_out = struct["g_in"], struct["g_out"]

    # The scalar bounds: lo is one gate, hi the longest arrival over all
    # nets; a pin the gate lacks reads the -inf last row.
    lo = float(delays_lv.max())
    arrival = np.zeros(len(struct["names"]) + 1)
    arrival[-1] = -np.inf
    start = 0
    for stop in struct["bounds"].tolist():
        arrival[g_out[start:stop]] = (delays_lv[start:stop]
                                      + arrival[g_in[start:stop]].max(axis=1))
        start = stop
    hi = float(arrival[:-1].max())
    hi = max(hi, lo) * (1.0 + 1e-9)

    # Per count: [lo_b, hi_b, probes made]; hi_b is the best budget.
    state = {n: [lo, hi, 0] for n in counts}
    first = True
    while True:
        budgets = {mid for st in state.values() for mid in _next_mids(*st)}
        if first:
            budgets.add(hi)    # the budget-hi feasibility probe
        if not budgets:
            break
        ordered = sorted(budgets)
        n_stages, _ = _level_stages(struct, delays_lv, np.array(ordered))
        found = dict(zip(ordered, n_stages.tolist()))
        if first:
            first = False
            n_hi = found[hi]
            if n_hi == 0:
                raise PipelineError("critical-path budget infeasible (bug)")
            for n in counts:
                if n_hi > n:
                    raise _infeasible(netlist, n)
        for n, st in state.items():
            for _ in range(LOOKAHEAD):
                if not _searching(*st):
                    break
                mid = 0.5 * (st[0] + st[1])
                got = found[mid]
                st[2] += 1
                if got != 0 and got <= n:
                    st[1] = mid
                else:
                    st[0] = mid
    return {n: st[1] for n, st in state.items()}


@telemetry.timed("solver.pipeline")
def pipeline_sweep(netlist: Netlist, library: Library, wire: WireModel,
                   stage_counts: list[int] | range,
                   skew_fo4: float = 0.5) -> list[PipelineResult]:
    """Minimum period across a range of stage counts (Figure 12 driver).

    Equal, field for field, to ``[min_period_for_stages(...) for n in
    stage_counts]``; the bisections run in lockstep (module docstring).
    Per-gate delays are computed once and shared; stage counts beyond the
    gate-granularity bound return the deepest feasible pipelining (the
    flat tail of the organic curve in Figure 12b).

    Each distinct count's best budget, the bisection's only outcome, is
    kept in the persistent result cache (category ``pipeline``).  Cached
    and freshly bisected budgets are re-levelled together in one final
    pass, which yields the stage counts, assignments and registers.
    """
    counts = list(stage_counts)
    _check_request(netlist, counts)
    delays = per_gate_delays(netlist, library, wire)
    struct, delays_lv = _lockstep_inputs(netlist, delays)

    # A budget depends on the netlist's levels, the gate delays and the
    # search constants, nothing else: the key holds exactly those.
    cache = default_cache()
    material = {"schema": 1, "netlist": netlist.fingerprint(),
                "delays": hashlib.sha256(delays_lv.tobytes()).hexdigest(),
                "max_rounds": MAX_ROUNDS, "tolerance": TOLERANCE}
    keys = {n: cache.key({**material, "stages": n})
            for n in dict.fromkeys(counts)}
    budget: dict[int, float] = {}
    for n, key in keys.items():
        hit = cache.get("pipeline", key)
        if isinstance(hit, dict) and isinstance(hit.get("budget"), float):
            budget[n] = hit["budget"]
        elif hit is not None and telemetry.ENABLED:
            telemetry.count("cache.reject.pipeline")
    missing = [n for n in keys if n not in budget]
    if missing:
        budget.update(_lockstep(netlist, struct, delays_lv, missing))
        for n in missing:
            cache.put("pipeline", keys[n], {"budget": budget[n]})

    # One last pass re-levels every count at its best budget for the
    # stage counts, assignments and register counts.
    best = sorted(set(budget.values()))
    n_stages, stage_net = _level_stages(struct, delays_lv, np.array(best))
    n_regs = _count_registers_lv(struct, stage_net, n_stages).tolist()
    # Per budget, every gate's stage in topological order.
    assignments = stage_net[struct["g_out_u"]].T.tolist()
    column = {b: k for k, b in enumerate(best)}
    gate_area = _gate_area(netlist, library)
    names = struct["gate_names_u"]
    results = []
    for n in counts:
        k = column[budget[n]]
        # Each result gets its own assignment dict, duplicated counts too.
        results.append(_result(netlist, library, wire, gate_area, skew_fo4,
                               best[k], int(n_stages[k]), n_regs[k],
                               dict(zip(names, assignments[k]))))
    return results
