"""Design-space sweep drivers: pipeline depth and superscalar width.

These functions orchestrate the paper's Section 5.3/5.4 experiments:
per-process frequency and area from :mod:`repro.core.physical`, IPC from
:mod:`repro.core.superscalar`, and ``performance = IPC x frequency``.

Depth is grown the way the paper grows it: "we synthesize the baseline
design and cut the stage which is on the critical path" — so the stage
allocation (and therefore the IPC penalty profile) genuinely depends on
which process is being targeted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.characterization.library import Library
from repro.core import ipc_native
from repro.core.config import CoreConfig
from repro.core.physical import (
    MIN_STAGE_LOGIC_FO4,
    CorePhysical,
    core_physical,
    region_logic_delays,
)
from repro.core.superscalar import (
    SimulationResult,
    _timing_signature,
    lookup_simulation,
    simulate,
    store_simulation,
)
from repro.core.trace import Trace
from repro.core.workloads import WORKLOADS, generate_trace
from repro.errors import ConfigError
from repro.runtime import get_shared, parallel_map, progress, telemetry
from repro.runtime.cache import default_cache
from repro.runtime.executor import thread_budget
from repro.synthesis.wires import WireModel

#: Default dynamic instruction count per workload for the sweeps.  The
#: synthetic traces are statistically stationary, so this converges to
#: the same IPC as a much longer run (checked in the test suite).
DEFAULT_TRACE_LENGTH = 30_000


def sweep_workers(workers: int | None = None) -> int:
    """Worker processes for a sweep's points: *workers* when the caller
    passes one, else one per usable CPU where the IPC kernel runs the
    reference loop (fig13's simulations ran 1.5-1.7x faster on two
    CPUs), else serial (the compiled kernel leaves too little per point
    to pay for a pool)."""
    if workers is not None:
        return workers
    return 1 if ipc_native.native_available() else thread_budget()


def make_traces(workloads: list[str] | None = None,
                n_instructions: int = DEFAULT_TRACE_LENGTH,
                seed: int = 0) -> dict[str, Trace]:
    """Generate (deterministically) the benchmark traces for a sweep."""
    names = workloads or list(WORKLOADS)
    traces = {}
    for name in names:
        if name not in WORKLOADS:
            raise ConfigError(f"unknown workload {name!r}; "
                              f"available: {sorted(WORKLOADS)}")
        traces[name] = generate_trace(WORKLOADS[name], n_instructions, seed)
    return traces


# ---------------------------------------------------------------------------
# Pipeline depth (Figure 11)
# ---------------------------------------------------------------------------

def deepen_pipeline(config: CoreConfig, library: Library,
                    wire: WireModel) -> CoreConfig:
    """Split the stage currently on the critical path (paper Section 5.1).

    Chooses the region with the largest per-stage *logic* among those that
    can still be usefully split (above the granularity floor); a region at
    the floor cannot be improved by cutting, so the next-worst splittable
    region is cut instead.
    """
    logic = region_logic_delays(config, library, wire)
    fo4 = library.inverter_fo4_delay()
    floor = MIN_STAGE_LOGIC_FO4 * fo4

    candidates = sorted(logic, key=lambda r: logic[r] / config.regions[r],
                        reverse=True)
    for region in candidates:
        if logic[region] / config.regions[region] > floor:
            regions = dict(config.regions)
            regions[region] += 1
            return config.with_regions(
                regions, name=f"d{config.depth + 1}_{library.process}")
    # Everything is at the floor: deepen the nominal critical region
    # anyway (matches the paper's observation that this only hurts IPC).
    regions = dict(config.regions)
    regions[candidates[0]] += 1
    return config.with_regions(
        regions, name=f"d{config.depth + 1}_{library.process}")


@dataclass(frozen=True)
class DepthSweepPoint:
    """One pipeline depth evaluated on one process."""

    depth: int
    config: CoreConfig
    physical: CorePhysical
    ipc: dict[str, float]
    performance: dict[str, float] = field(default_factory=dict)

    def mean_performance(self) -> float:
        return sum(self.performance.values()) / len(self.performance)


def sweep_physicals(configs: list[CoreConfig], library: Library,
                    wire: WireModel,
                    phase: str | None = None) -> list[CorePhysical]:
    """``core_physical`` of each config, in this process.

    The points share synthesis structure (netlists, mappings, STA
    sessions, region delays), which warms once here instead of once
    per worker process.
    """
    physicals = []
    with progress.phase(phase or "sweep_physicals", len(configs)) as ph:
        for config in configs:
            # One span per sweep point, for the trace exporter.
            with telemetry.span("point", config=config.name):
                physicals.append(core_physical(config, library, wire))
            progress.update(ph)
    return physicals


def _simulation_task(task: tuple[CoreConfig, str]) -> SimulationResult:
    """Module-level (picklable) worker: one config on one trace.

    The traces ride along via the runtime's shared-object channel, so
    they are shipped once per worker process rather than once per task.
    """
    config, name = task
    return simulate(config, get_shared()[name])


def sweep_ipcs(configs: list[CoreConfig], traces: dict[str, Trace],
               workers: int | None = None) -> list[dict[str, float]]:
    """IPC per trace of each config; each distinct simulation runs once.

    IPC depends only on the config's timing signature and the trace's
    content, so each distinct (signature, trace fingerprint) is
    simulated once per call and its IPC shared by every config that
    maps to it.  Each is looked up once in the persistent result cache,
    in this process; only the misses run, across :func:`sweep_workers`
    processes, and no pool opens when nothing misses.
    """
    fingerprints = {name: trace.fingerprint()
                    for name, trace in traces.items()}
    index: dict[tuple, int] = {}
    tasks: list[tuple[CoreConfig, str]] = []
    slots: list[dict[str, int]] = []
    for config in configs:
        signature = tuple(_timing_signature(config).values())
        slot = {}
        for name in traces:
            key = (signature, fingerprints[name])
            if key not in index:
                index[key] = len(tasks)
                tasks.append((config, name))
            slot[name] = index[key]
        slots.append(slot)
    cache = default_cache()
    keys, ipcs = [], []
    for config, name in tasks:
        key, hit = lookup_simulation(config, traces[name], cache)
        keys.append(key)
        ipcs.append(None if hit is None else hit.ipc)
    misses = [i for i, ipc in enumerate(ipcs) if ipc is None]
    if misses:
        results = parallel_map(_simulation_task, [tasks[i] for i in misses],
                               workers=sweep_workers(workers),
                               labels=[f"simulate[{tasks[i][0].name}:"
                                       f"{tasks[i][1]}]" for i in misses],
                               shared=traces)
        for i, result in zip(misses, results):
            store_simulation(cache, keys[i], result.value)
            ipcs[i] = result.value.ipc
    return [{name: ipcs[i] for name, i in slot.items()} for slot in slots]


def performance(physical: CorePhysical,
                ipc: dict[str, float]) -> dict[str, float]:
    """Performance per trace: IPC x frequency."""
    return {name: v * physical.frequency for name, v in ipc.items()}


def depth_sweep(library: Library, wire: WireModel,
                max_depth: int = 15,
                baseline: CoreConfig | None = None,
                traces: dict[str, Trace] | None = None,
                workers: int | None = None
                ) -> list[DepthSweepPoint]:
    """Evaluate pipeline depths from the baseline up to *max_depth*.

    Mirrors the paper: seven configurations (9..15 stages), each obtained
    by repeatedly cutting the process-specific critical stage; IPC from
    all seven benchmarks; performance = IPC x frequency.

    Deriving each depth's stage allocation is cheap and inherently serial
    (every cut starts from the previous allocation); evaluating the points
    is the expensive part and fans out across :func:`sweep_workers`
    processes.
    """
    config = baseline or CoreConfig()
    if traces is None:
        traces = make_traces()

    configs: list[CoreConfig] = []
    while config.depth <= max_depth:
        configs.append(config)
        if config.depth == max_depth:
            break
        config = deepen_pipeline(config, library, wire)

    physicals = sweep_physicals(configs, library, wire)
    return [DepthSweepPoint(depth=c.depth, config=c, physical=physical,
                            ipc=ipc, performance=performance(physical, ipc))
            for c, physical, ipc
            in zip(configs, physicals, sweep_ipcs(configs, traces, workers))]


# ---------------------------------------------------------------------------
# Superscalar width (Figures 13/14)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WidthSweepPoint:
    """One (front width, back width) design point on one process."""

    front_width: int
    back_width: int
    config: CoreConfig
    physical: CorePhysical
    ipc: dict[str, float]
    performance: dict[str, float]

    def mean_performance(self) -> float:
        return sum(self.performance.values()) / len(self.performance)


def width_sweep(library: Library, wire: WireModel,
                front_widths: range | list[int] = range(1, 7),
                back_widths: range | list[int] = range(3, 8),
                baseline: CoreConfig | None = None,
                traces: dict[str, Trace] | None = None,
                workers: int | None = None
                ) -> list[WidthSweepPoint]:
    """Evaluate the 30-point width grid of Figures 13/14.

    Grid points are independent and fan out across
    :func:`sweep_workers` processes.
    """
    base = baseline or CoreConfig()
    if traces is None:
        traces = make_traces()

    pairs = [(fw, bw) for bw in back_widths for fw in front_widths]
    configs = [base.widened(fw, bw) for fw, bw in pairs]
    physicals = sweep_physicals(configs, library, wire)
    return [WidthSweepPoint(front_width=fw, back_width=bw, config=config,
                            physical=physical, ipc=ipc,
                            performance=performance(physical, ipc))
            for (fw, bw), config, physical, ipc
            in zip(pairs, configs, physicals,
                   sweep_ipcs(configs, traces, workers))]


def width_matrix(points: list[WidthSweepPoint],
                 quantity: str = "performance") -> dict[tuple[int, int], float]:
    """(back_width, front_width) -> normalised quantity, max = 1.0.

    ``quantity`` is 'performance' (mean over workloads) or 'area'.
    """
    raw: dict[tuple[int, int], float] = {}
    for p in points:
        if quantity == "performance":
            raw[(p.back_width, p.front_width)] = p.mean_performance()
        elif quantity == "area":
            raw[(p.back_width, p.front_width)] = p.physical.area
        else:
            raise ConfigError(f"unknown quantity {quantity!r}")
    peak = max(raw.values())
    return {k: v / peak for k, v in raw.items()}
