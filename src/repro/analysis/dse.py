"""Batched design-space exploration across depth, width, wire and library.

The per-figure sweeps each walk one axis of the design space; this
driver evaluates the full cross product — pipeline depth x data width x
superscalar width pair x (library, wire-model) combo — in one batch, as
a DSE engine would.  What makes the grid affordable is structure
sharing underneath:

- generic block netlists are memoised per shape and the datapath adder
  grows by copy-on-extend (:func:`repro.core.physical._generic_block`);
  only the netlists STA times are built,
- each core structure's unsplit region logic delays are priced once
  and shared by every depth point of its chain
  (:func:`repro.core.physical.region_logic_delays`),
- technology mapping is fingerprint-memoised and extends cached base
  mappings (:func:`repro.synthesis.mapping.map_cached`),
- STA re-times only the delta against a recorded session
  (:func:`repro.synthesis.sta.static_timing`),
- block areas come from exact cell counts, memoised per (block, width)
  so both libraries share one count
  (:func:`repro.core.physical._block_counts`): the adder and ALU count
  their generic netlists, and the complex-ALU slice composes its
  counts from one multiplier and one divider slice and is never built
  (the built slice is the oracle of the ``complex-counts-vs-built``
  validation check),
- IPC simulations go through the persistent result cache.

The stock grid (4 combos x 7 widths x 4 width pairs x depths 9..17,
1008 points) is the ``dse_sweep`` perf-bench row; run it from the shell
as ``python -m repro dse``.

The evaluation arithmetic is exactly the per-figure sweeps' — points
are evaluated by the same :func:`repro.core.tradeoffs._eval_config_task`
worker — so a grid point here is bit-identical to the corresponding
figure-sweep point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.characterization import organic_library, silicon_library
from repro.characterization.library import Library
from repro.core.config import CoreConfig
from repro.core.physical import CorePhysical
from repro.core.trace import Trace
from repro.core.tradeoffs import (_eval_config_task, deepen_pipeline,
                                  make_traces, sweep_workers)
from repro.errors import ConfigError
from repro.runtime import parallel_map
from repro.synthesis.wires import WireModel, organic_wire_model, silicon_wire_model

#: The stock grid — frozen so the ``dse_sweep`` perf-bench row measures
#: a fixed workload.
DATA_WIDTHS = (8, 12, 16, 20, 24, 28, 32)
WIDTH_PAIRS = ((1, 3), (2, 4), (3, 5), (4, 6))
MIN_DEPTH = 9
MAX_DEPTH = 17
DSE_TRACE_LENGTH = 2_000


def default_combos() -> list[tuple[str, Library, WireModel]]:
    """The four stock (label, library, wire) combos.

    Both processes, each with its real wire model and with wires zeroed
    (the paper's wire-ablation axis, cf. Figure 15).
    """
    org_lib, sil_lib = organic_library(), silicon_library()
    org_wire, sil_wire = organic_wire_model(), silicon_wire_model()
    return [
        ("organic", org_lib, org_wire),
        ("organic_no_wire", org_lib, org_wire.scaled(0.0)),
        ("silicon", sil_lib, sil_wire),
        ("silicon_no_wire", sil_lib, sil_wire.scaled(0.0)),
    ]


@dataclass(frozen=True)
class DsePoint:
    """One evaluated grid point."""

    combo: str
    config: CoreConfig
    physical: CorePhysical
    ipc: dict[str, float]
    performance: dict[str, float] = field(default_factory=dict)

    def mean_performance(self) -> float:
        return sum(self.performance.values()) / len(self.performance)


@dataclass(frozen=True)
class DseResult:
    """All evaluated points plus grid bookkeeping."""

    points: list[DsePoint]
    combos: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.points)

    def for_combo(self, combo: str) -> list[DsePoint]:
        if combo not in self.combos:
            raise ConfigError(f"unknown combo {combo!r}; "
                              f"available: {list(self.combos)}")
        return [p for p in self.points if p.combo == combo]

    def best(self, combo: str | None = None) -> DsePoint:
        """Highest mean-performance point (optionally within a combo)."""
        pool = self.for_combo(combo) if combo else self.points
        return max(pool, key=DsePoint.mean_performance)


def _grid_configs(library: Library, wire: WireModel,
                  widths, width_pairs, min_depth: int,
                  max_depth: int) -> list[CoreConfig]:
    """Depth chains for every (data width, width pair) cell of the grid.

    Depth allocations are inherently serial (each cut starts from the
    previous allocation, and is process-specific), so the chains are
    derived up front; the expensive per-point evaluation then fans out.
    """
    configs: list[CoreConfig] = []
    for w in widths:
        for fw, bw in width_pairs:
            config = CoreConfig(name=f"dse_w{w}_f{fw}x{bw}",
                                front_width=fw, back_width=bw,
                                data_width=w)
            if config.depth < min_depth or config.depth > max_depth:
                raise ConfigError(
                    f"baseline depth {config.depth} outside grid depths "
                    f"[{min_depth}, {max_depth}]")
            while config.depth <= max_depth:
                configs.append(config)
                if config.depth == max_depth:
                    break
                config = deepen_pipeline(config, library, wire)
    return configs


def dse_sweep(combos: list[tuple[str, Library, WireModel]] | None = None,
              widths=DATA_WIDTHS,
              width_pairs=WIDTH_PAIRS,
              min_depth: int = MIN_DEPTH,
              max_depth: int = MAX_DEPTH,
              traces: dict[str, Trace] | None = None,
              workers: int | None = None) -> DseResult:
    """Evaluate the (depth x width x width-pair x combo) grid.

    Combos are processed sequentially (each pins a (library, wire) pair
    whose shared synthesis structures warm up once and then hit); the
    points inside a combo fan out across
    :func:`repro.core.tradeoffs.sweep_workers` processes.
    """
    if combos is None:
        combos = default_combos()
    if traces is None:
        traces = make_traces(workloads=["gzip"],
                             n_instructions=DSE_TRACE_LENGTH)

    points: list[DsePoint] = []
    for label, library, wire in combos:
        configs = _grid_configs(library, wire, widths, width_pairs,
                                min_depth, max_depth)
        results = parallel_map(
            _eval_config_task, configs, workers=sweep_workers(workers),
            labels=[f"dse[{label}:{c.name}:d{c.depth}]" for c in configs],
            shared=(library, wire, traces),
            phase=f"dse[{label}]")
        for config, result in zip(configs, (r.value for r in results)):
            physical, ipc, perf = result
            points.append(DsePoint(combo=label, config=config,
                                   physical=physical, ipc=ipc,
                                   performance=perf))
    return DseResult(points=points,
                     combos=tuple(label for label, _, _ in combos))
