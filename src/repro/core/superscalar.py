"""Trace-driven out-of-order core timing model (the IPC source).

This is the repro stand-in for AnyCore's cycle-accurate C++ simulator.  It
is a greedy dataflow-scheduling model: each dynamic instruction's dispatch,
issue, completion and retirement times are computed in trace order from

- front-end bandwidth (``front_width`` per cycle) and depth (refill after
  branch mispredicts, detected by a gshare predictor),
- register dataflow (RAW dependences through renamed registers; full
  bypass, plus the extra wakeup-loop bubbles deeper issue/regread regions
  introduce),
- structural resources: per-type execution pipes (memory pipe, branch
  pipe, ``back_width - 2`` ALU pipes; the stallable divider blocks its
  pipe), issue-queue / ROB / LSQ occupancy windows, in-order retirement
  bandwidth,
- the data cache (hit/miss latencies; miss events come from the trace).

Greedy scheduling models of this form track cycle-accurate simulators
closely for IPC *trends* across depth/width sweeps, which is what the
paper's Figures 11 and 13 need.

Two kernels implement the same recurrence:

- the **fast** kernel (default) is a compiled C loop
  (:mod:`repro.core.ipc_native`) over the trace's packed arrays, with
  preallocated ring buffers for the occupancy windows and gshare
  mispredict flags precomputed once per ``(trace, predictor_bits)``
  (:meth:`Trace.mispredict_flags`) — the predictor stream never depends
  on core timing, so sweeps share it across every configuration.  It is
  built with the system C compiler on first use; with no compiler (or
  ``REPRO_NATIVE=0``) ``kernel="fast"`` runs the reference loop instead;
- the **reference** kernel is the original instruction-object loop with a
  live :class:`GsharePredictor`, kept as the cycle-exact oracle.

Pick one with the ``kernel=`` argument; both produce identical cycles,
mispredicts, miss counts and fetch-redirect counts (enforced by the
equivalence test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.core import ipc_native
from repro.core.branch import GsharePredictor
from repro.core.config import CoreConfig
from repro.core.isa import EXEC_LATENCY, InstrClass
from repro.core.trace import Trace
from repro.errors import ConfigError, SimulationError
from repro.runtime import profiling, telemetry

_KERNELS = ("fast", "reference")


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one trace run on one configuration."""

    config_name: str
    trace_name: str
    instructions: int
    cycles: int
    ipc: float
    branch_count: int
    mispredicts: int
    l1_misses: int

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branch_count if self.branch_count else 0.0


def _resolve_kernel(kernel: str | None) -> str:
    kernel = kernel or "fast"
    if kernel not in _KERNELS:
        raise ConfigError(
            f"unknown IPC kernel {kernel!r}; choose one of {_KERNELS}")
    return kernel


def simulate(config: CoreConfig, trace: Trace,
             kernel: str | None = None) -> SimulationResult:
    """Run *trace* through the timing model; returns IPC and statistics.

    ``kernel`` (default ``'fast'``) picks the compiled kernel or the
    reference oracle.
    """
    if profiling.ENABLED:
        t0 = perf_counter()
        result = _simulate(config, trace, kernel)
        profiling.add("ipc", perf_counter() - t0)
        return result
    return _simulate(config, trace, kernel)


def _simulate(config: CoreConfig, trace: Trace,
              kernel: str | None = None) -> SimulationResult:
    if len(trace) == 0:
        raise SimulationError("empty trace")
    if _resolve_kernel(kernel) == "fast":
        cycles = ipc_native.native_cycles(config, trace)
        if cycles is not None:
            if telemetry.ENABLED:
                telemetry.count("ipc.native_kernel_runs")
                _flush_simulation(len(trace), cycles)
            return SimulationResult(
                config_name=config.name,
                trace_name=trace.name,
                instructions=len(trace),
                cycles=cycles,
                ipc=len(trace) / cycles,
                branch_count=trace.branch_count(),
                mispredicts=sum(trace.mispredict_flags(
                    config.predictor_bits)),
                l1_misses=trace.l1_miss_count(),
            )
    result = _simulate_reference(config, trace)
    if telemetry.ENABLED:
        telemetry.count("ipc.reference_kernel_runs")
        _flush_simulation(result.instructions, result.cycles)
    return result


def _flush_simulation(instructions: int, cycles: int) -> None:
    """One registry update per simulated trace (never per instruction)."""
    telemetry.count("ipc.simulations")
    telemetry.count("ipc.instructions", instructions)
    telemetry.count("ipc.cycles", cycles)
    telemetry.observe("ipc.cycles_per_simulation", cycles)


# ---------------------------------------------------------------------------
# Reference kernel: the cycle-exact oracle
# ---------------------------------------------------------------------------

def _simulate_reference(config: CoreConfig, trace: Trace) -> SimulationResult:
    """The original instruction-object recurrence with a live predictor.

    Kept as the oracle the compiled kernel is verified against
    (``tests/core/test_kernel_equivalence.py``), and run by
    ``kernel="fast"`` where no compiled kernel is available; select it
    with ``kernel="reference"``.
    """
    predictor = GsharePredictor(config.predictor_bits)

    front_width = config.front_width
    frontend_depth = config.frontend_depth
    sched_bubble = config.issue_to_execute
    exec_depth = config.execute_latency
    hit_lat = config.l1_hit_latency
    miss_lat = config.l1_miss_latency

    # Per-pipe next-free cycle.  Pipe 0 = memory, pipe 1 = branch/control,
    # pipes 2.. = ALU pipes (paper: back-end width changes only ALU pipes).
    alu_free = [0] * config.alu_pipes
    mem_free = 0
    branch_free = 0

    # Renamed register file: architectural reg -> completion time of the
    # latest in-trace-order writer.
    reg_ready = [0] * 32

    # Occupancy windows.
    rob_size = config.rob_size
    iq_size = config.iq_size
    lsq_size = config.lsq_size
    retire_times: list[int] = []
    issue_times: list[int] = []
    mem_issue_times: list[int] = []

    # Front end: cycle currently being fetched into and its fill count.
    fetch_cycle = 0
    fetch_fill = 0

    last_retire = 0
    retire_fill = 0
    retire_cycle = -1

    mispredicts = 0
    l1_misses = 0
    n_branches = 0
    redirects = 0

    for idx, instr in enumerate(trace.instructions):
        # ---- fetch / front end -------------------------------------------------
        if fetch_fill >= front_width:
            fetch_cycle += 1
            fetch_fill = 0
        fetch_time = fetch_cycle
        fetch_fill += 1

        dispatch_time = fetch_time + frontend_depth

        # Occupancy windows (approximate in-order reclamation).
        if idx >= rob_size:
            dispatch_time = max(dispatch_time, retire_times[idx - rob_size] + 1)
        if idx >= iq_size:
            dispatch_time = max(dispatch_time, issue_times[idx - iq_size] + 1)

        # ---- source readiness ---------------------------------------------------
        ready = dispatch_time
        s0, s1 = instr.srcs
        if s0 >= 0 and reg_ready[s0] > ready:
            ready = reg_ready[s0]
        if s1 >= 0 and reg_ready[s1] > ready:
            ready = reg_ready[s1]

        # ---- structural issue ----------------------------------------------------
        klass = instr.klass
        if klass is InstrClass.LOAD or klass is InstrClass.STORE:
            n_mem = len(mem_issue_times)
            if n_mem >= lsq_size:
                ready = max(ready, mem_issue_times[n_mem - lsq_size] + 1)
            issue_time = max(ready, mem_free)
            mem_free = issue_time + 1
            mem_issue_times.append(issue_time)
        elif klass is InstrClass.BRANCH:
            issue_time = max(ready, branch_free)
            branch_free = issue_time + 1
        else:
            # Earliest-free ALU pipe.
            best = 0
            best_free = alu_free[0]
            for p in range(1, len(alu_free)):
                if alu_free[p] < best_free:
                    best, best_free = p, alu_free[p]
            issue_time = max(ready, best_free)
            latency, pipelined = EXEC_LATENCY[klass]
            alu_free[best] = issue_time + (1 if pipelined else latency)

        # ---- completion ------------------------------------------------------------
        latency, _pipelined = EXEC_LATENCY[klass]
        completion = issue_time + sched_bubble + exec_depth + (latency - 1)
        if klass is InstrClass.LOAD:
            completion += miss_lat if instr.is_miss else hit_lat
            if instr.is_miss:
                l1_misses += 1

        if instr.dst >= 0:
            reg_ready[instr.dst] = completion

        # ---- branches: resolve and maybe redirect ------------------------------------
        if klass is InstrClass.BRANCH:
            n_branches += 1
            correct = predictor.predict_and_update(instr.pattern_key,
                                                   instr.taken)
            if not correct:
                mispredicts += 1
                redirect = completion + 1
                if redirect > fetch_cycle:
                    fetch_cycle = redirect
                    fetch_fill = 0
                    redirects += 1

        # ---- in-order retirement -------------------------------------------------------
        retire_ready = max(completion + 1, last_retire)
        if retire_ready == retire_cycle:
            if retire_fill >= front_width:
                retire_ready += 1
                retire_fill = 0
        if retire_ready != retire_cycle:
            retire_cycle = retire_ready
            retire_fill = 0
        retire_fill += 1
        last_retire = retire_ready

        retire_times.append(retire_ready)
        issue_times.append(issue_time)

    if telemetry.ENABLED and redirects:
        telemetry.count("ipc.fetch_redirects", redirects)
    cycles = last_retire + 1
    return SimulationResult(
        config_name=config.name,
        trace_name=trace.name,
        instructions=len(trace),
        cycles=cycles,
        ipc=len(trace) / cycles,
        branch_count=n_branches,
        mispredicts=mispredicts,
        l1_misses=l1_misses,
    )


# ---------------------------------------------------------------------------
# Persistent memoisation
# ---------------------------------------------------------------------------

def _timing_signature(config: CoreConfig) -> dict:
    """The config fields the timing recurrence actually depends on.

    Configurations that differ only in fields the kernel never reads
    (name, datapath width, physical-register count) share cache entries.
    """
    return {
        "front_width": config.front_width,
        "alu_pipes": config.alu_pipes,
        "frontend_depth": config.frontend_depth,
        "issue_to_execute": config.issue_to_execute,
        "execute_latency": config.execute_latency,
        "iq_size": config.iq_size,
        "rob_size": config.rob_size,
        "lsq_size": config.lsq_size,
        "predictor_bits": config.predictor_bits,
        "l1_hit_latency": config.l1_hit_latency,
        "l1_miss_latency": config.l1_miss_latency,
    }


def simulate_cached(config: CoreConfig, trace: Trace,
                    cache=None) -> SimulationResult:
    """:func:`simulate` memoised through the persistent result cache.

    The key couples the config's timing signature with the trace's
    content fingerprint, so hits are exact: any change to the recurrence
    inputs — or to the trace stream itself — misses.  With caching
    disabled (``REPRO_CACHE=0`` or a cache constructed with
    ``enabled=False``) this is plain :func:`simulate`.
    """
    if cache is None:
        from repro.runtime.cache import default_cache
        cache = default_cache()
    if not cache.enabled:
        return simulate(config, trace)
    if profiling.ENABLED:
        t0 = perf_counter()
    key = cache.key({"schema": 1, "config": _timing_signature(config),
                     "trace": trace.fingerprint()})
    hit = cache.get("simulation", key)
    if profiling.ENABLED:
        profiling.add("cache", perf_counter() - t0)
    if hit is not None:
        return SimulationResult(
            config_name=config.name,
            trace_name=trace.name,
            instructions=int(hit["instructions"]),
            cycles=int(hit["cycles"]),
            ipc=int(hit["instructions"]) / int(hit["cycles"]),
            branch_count=int(hit["branch_count"]),
            mispredicts=int(hit["mispredicts"]),
            l1_misses=int(hit["l1_misses"]),
        )
    result = simulate(config, trace)
    if profiling.ENABLED:
        t0 = perf_counter()
    cache.put("simulation", key, {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "branch_count": result.branch_count,
        "mispredicts": result.mispredicts,
        "l1_misses": result.l1_misses,
    })
    if profiling.ENABLED:
        profiling.add("cache", perf_counter() - t0)
    return result
