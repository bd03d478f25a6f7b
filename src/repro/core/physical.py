"""Physical core model: configuration -> clock period and area.

Each of the nine pipeline regions gets a *logic delay* — real mapped
netlists (next-PC adder, simple ALU) timed by NLDM STA where a netlist
is natural, Palacharla-style structure models
(:mod:`repro.core.complexity`) where the structure is wire/array dominated
(rename, issue queue, register file, bypass, ROB, BTB).  A region with k
stages contributes ``logic/k`` (floored at a minimum stage quantum) plus
the per-stage sequencing overhead; the clock period is the worst region.

The per-stage overhead includes the cross-core feedback wire (stalls,
bypasses, branch redirect) whose length follows the core's own floorplan
span — this term is what separates the processes in Figures 11 and 15.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.characterization.library import Library
from repro.core.complexity import StructureModel
from repro.core.config import REGION_NAMES, CoreConfig
from repro.errors import ConfigError
from repro.runtime import telemetry
from repro.runtime.cache import default_cache
from repro.synthesis import sta as _sta
from repro.synthesis.generators import (carry_select_adder, complex_alu_slice,
                                        complex_alu_slice_counts,
                                        extend_carry_select_adder, simple_alu)
from repro.synthesis.mapping import (lower_cell_counts, map_cached,
                                     mapped_cell_counts, reset_map_cache)
from repro.synthesis.netlist import Netlist
from repro.synthesis.pipeline import broadcast_penalty
from repro.synthesis.sta import static_timing
from repro.synthesis.wires import WireModel

#: Smallest meaningful per-stage logic, in FO4 units (one mapped gate
#: level plus local routing — the granularity floor).
MIN_STAGE_LOGIC_FO4 = 1.5

#: Feedback-wire length model at core level, in core-span units.
CORE_FEEDBACK_BASE = 0.4
CORE_FEEDBACK_PER_STAGE = 0.06


@dataclass(frozen=True)
class CorePhysical:
    """Physical figures of one core design point."""

    config_name: str
    process: str
    period: float
    frequency: float
    area: float
    critical_region: str
    overhead: float
    region_logic: dict[str, float] = field(repr=False, default_factory=dict)
    region_stage_delay: dict[str, float] = field(repr=False,
                                                 default_factory=dict)


# Cached netlist critical delay per (library fingerprint, block, width,
# wire model) — in-process memo in front of the persistent result cache.
_BLOCK_CACHE: dict[tuple, float] = {}

# Generic (pre-mapping) netlists per (block, width): sweeps revisit the
# same few block shapes for every (library, wire) combo, and the adder
# additionally grows by copy-on-extend from the widest cached instance.
_GENERIC_CACHE: dict[tuple[str, int], Netlist] = {}

# Counts-based block gate area per (library fingerprint, block, width) —
# wire-independent, unlike delay.
_AREA_CACHE: dict[tuple, float] = {}

# Mapped cell multiset per (block, width) — library-independent, so both
# libraries price one count of each shape.
_COUNT_CACHE: dict[tuple[str, int], dict[str, int]] = {}

# Unsplit region logic delays per core structure, shared by every depth
# point of a sweep (key: see region_logic_delays).
_LOGIC_CACHE: dict[tuple, dict[str, float]] = {}

#: Carry-select block size used by the datapath adder; an adder can only
#: be widened by extension when its base width is a multiple of this.
_CSA_BLOCK = 4


def reset_structure_caches() -> None:
    """Drop every in-process synthesis and structure memo.

    Clears generic netlists, block timing, cell counts and area, region
    logic delays, the mapping memo and the incremental-STA sessions, so
    the next sweep (a test, a cold bench row) prices every structure
    again.
    """
    _BLOCK_CACHE.clear()
    _GENERIC_CACHE.clear()
    _AREA_CACHE.clear()
    _COUNT_CACHE.clear()
    _LOGIC_CACHE.clear()
    reset_map_cache()
    _sta.reset_incremental()


def _generic_block(block: str, width: int) -> Netlist:
    """Generic netlist of a named datapath block, memoised per shape.

    Adders reuse structure across widths: when a narrower adder with a
    compatible block boundary is already cached, the wider one is built
    by :func:`extend_carry_select_adder`, sharing the base's gates so
    mapping and STA can skip the shared prefix (the oracle is
    :func:`carry_select_adder`).
    """
    key = (block, width)
    hit = _GENERIC_CACHE.get(key)
    if hit is not None:
        return hit

    t0 = time.perf_counter() if telemetry.ENABLED else 0.0
    if block == "alu":
        nl = simple_alu(width)
    elif block == "complex":
        nl = complex_alu_slice(width)
    elif block == "adder":
        base = None
        base_w = 0
        for (blk, w0), cand in _GENERIC_CACHE.items():
            if (blk == "adder" and base_w < w0 < width
                    and w0 % _CSA_BLOCK == 0):
                base, base_w = cand, w0
        if base is not None:
            nl = extend_carry_select_adder(base, width)
        else:
            nl = carry_select_adder(width)
    else:
        raise ConfigError(f"unknown physical block {block!r}")
    if telemetry.ENABLED:
        telemetry.time_add("solver.netlist", time.perf_counter() - t0)
    _GENERIC_CACHE[key] = nl
    return nl


def block_netlist(block: str, width: int) -> Netlist:
    """Mapped netlist of a named datapath block (structure-shared).

    The single construction path for ``adder`` / ``alu`` / ``complex``
    blocks: generic generation is memoised per shape
    (:func:`_generic_block`) and mapping goes through
    :func:`repro.synthesis.mapping.map_cached`, so repeated callers —
    sweeps, figures, the DSE driver — share one netlist object per
    shape instead of re-synthesising it per (library, wire) combo.
    """
    return map_cached(_generic_block(block, width))


def _block_counts(block: str, width: int) -> dict[str, int]:
    """Mapped cell multiset of a named block, memoised per shape.

    Mapping is an exact per-cell integer transform
    (:func:`repro.synthesis.mapping.lower_cell_counts`), so counts need
    no mapped netlist.  The adder and ALU count the generic netlists STA
    times anyway; the complex slice, which nothing in a sweep times,
    composes its counts from its parts
    (:func:`repro.synthesis.generators.complex_alu_slice_counts`) and is
    never built.  The built slice stays the oracle: the
    ``complex-counts-vs-built`` validation check and
    ``tests/core/test_block_counts.py`` tie the two.
    """
    key = (block, width)
    hit = _COUNT_CACHE.get(key)
    if hit is not None:
        return hit
    if block == "complex":
        t0 = time.perf_counter() if telemetry.ENABLED else 0.0
        generic = complex_alu_slice_counts(width)
        if telemetry.ENABLED:
            telemetry.time_add("solver.netlist", time.perf_counter() - t0)
            t0 = time.perf_counter()
        counts = lower_cell_counts(generic)
    else:
        nl = _generic_block(block, width)
        t0 = time.perf_counter() if telemetry.ENABLED else 0.0
        counts = mapped_cell_counts(nl)
    if telemetry.ENABLED:
        telemetry.time_add("solver.mapping", time.perf_counter() - t0)
    _COUNT_CACHE[key] = counts
    return counts


def _block_area(block: str, width: int, library: Library) -> float:
    """Mapped gate area of a named block, from its cell counts.

    Area needs neither a mapped netlist nor a wire model: it is the
    library-weighted sum of the composed counts of :func:`_block_counts`
    (the built netlist is their oracle, checked by
    ``complex-counts-vs-built``), taken in sorted cell order so the
    float total is deterministic.  Memoised in-process and in the
    persistent cache (category ``block_area``).  The ``dse_sweep``,
    ``depth_sweep`` and ``width_sweep`` bench rows time it through
    :func:`core_area`.
    """
    key = (library.cache_key(), block, width)
    hit = _AREA_CACHE.get(key)
    if hit is not None:
        return hit

    t0 = time.perf_counter() if telemetry.ENABLED else 0.0
    cache = default_cache()
    cache_key = cache.key({
        "schema": 1,
        "library": library.cache_key(),
        "block": block,
        "width": width,
    })
    payload = cache.get("block_area", cache_key)
    if telemetry.ENABLED:
        telemetry.time_add("solver.cache", time.perf_counter() - t0)
    if payload is not None:
        area = float(payload["area"])
        _AREA_CACHE[key] = area
        return area

    counts = _block_counts(block, width)
    area = sum(library.cell(cell).area * n
               for cell, n in sorted(counts.items()))
    t0 = time.perf_counter() if telemetry.ENABLED else 0.0
    cache.put("block_area", cache_key, {"area": area})
    if telemetry.ENABLED:
        telemetry.time_add("solver.cache", time.perf_counter() - t0)
    _AREA_CACHE[key] = area
    return area


def _block_timing(block: str, width: int, library: Library,
                  wire: WireModel) -> float:
    """Critical delay of a named mapped block, cached.

    Synthesising and timing the wide datapath blocks is the expensive
    first step of any sweep, so results are memoised both in-process and
    in the persistent result cache (category ``block_timing``; disable
    with ``REPRO_CACHE=0``).  Area is priced by :func:`_block_area`
    alone; schema 3 entries hold only the delay, so schema-2 entries
    (delay and area) are never reused.
    """
    key = (library.cache_key(), block, width, _sta._wire_state_key(wire))
    hit = _BLOCK_CACHE.get(key)
    if hit is not None:
        return hit

    t0 = time.perf_counter() if telemetry.ENABLED else 0.0
    cache = default_cache()
    cache_key = cache.key({
        "schema": 3,
        "library": library.cache_key(),
        "block": block,
        "width": width,
        "wire": _sta._wire_state_key(wire),
    })
    payload = cache.get("block_timing", cache_key)
    if telemetry.ENABLED:
        telemetry.time_add("solver.cache", time.perf_counter() - t0)
    if payload is not None:
        delay = float(payload["delay"])
        _BLOCK_CACHE[key] = delay
        return delay

    delay = static_timing(block_netlist(block, width), library,
                          wire).max_delay
    t0 = time.perf_counter() if telemetry.ENABLED else 0.0
    cache.put("block_timing", cache_key, {"delay": delay})
    if telemetry.ENABLED:
        telemetry.time_add("solver.cache", time.perf_counter() - t0)
    _BLOCK_CACHE[key] = delay
    return delay


def region_logic_delays(config: CoreConfig, library: Library,
                        wire: WireModel) -> dict[str, float]:
    """Single-stage (unsplit) logic delay of each pipeline region.

    A pure function of the core's structure, so it is memoised on
    exactly the fields it reads; stage allocation (``regions``, depth)
    is not among them.  Every call returns a fresh dict.
    """
    key = (library.cache_key(), _sta._wire_state_key(wire), config.data_width,
           config.front_width, config.back_width, config.iq_size,
           config.phys_regs, config.rob_size)
    hit = _LOGIC_CACHE.get(key)
    if hit is not None:
        return dict(hit)

    t0 = time.perf_counter() if telemetry.ENABLED else 0.0
    sm = StructureModel(library, wire)
    fo4 = sm.fo4
    if telemetry.ENABLED:
        telemetry.time_add("solver.structures", time.perf_counter() - t0)
    w = config.data_width

    # Block synthesis/timing books its own netlist/mapping/sta/cache
    # stages; only the structure-model arithmetic around it is timed
    # here, so the two never double-count.
    adder_delay = _block_timing("adder", w, library, wire)
    alu_delay = _block_timing("alu", w, library, wire)

    t0 = time.perf_counter() if telemetry.ENABLED else 0.0
    mux_fanin = 1.0 + math.log2(max(config.front_width, 2))
    delays = {
        # Next-PC add and BTB lookup are parallel paths into the PC mux.
        "fetch": max(sm.btb_delay(config.front_width), adder_delay)
                 + mux_fanin * fo4,
        "decode": (6.0 + 0.8 * (config.front_width - 1)) * fo4,
        "rename": sm.rename_delay(config.front_width, config.phys_regs),
        "dispatch": sm.array_delay(config.iq_size, 32,
                                   max(config.front_width, 2)),
        "issue": sm.wakeup_select_delay(config.iq_size, config.back_width,
                                        config.front_width),
        "regread": sm.regfile_delay(config.phys_regs, w, config.back_width),
        "execute": alu_delay + sm.bypass_delay(config.back_width, w),
        "writeback": sm.rob_delay(config.rob_size, config.front_width),
        "retire": sm.rob_delay(config.rob_size, config.front_width)
                  + 2.0 * fo4,
    }
    if telemetry.ENABLED:
        telemetry.time_add("solver.structures", time.perf_counter() - t0)
    _LOGIC_CACHE[key] = delays
    return dict(delays)


def core_area(config: CoreConfig, library: Library,
              wire: WireModel) -> float:
    """Total core area from structure and datapath components."""
    w = config.data_width
    fw, bw = config.front_width, config.back_width

    # Areas come from cell counts (_block_counts).  The complex block,
    # whose delay the pipeliner owns, is priced from composed counts and
    # never built here; the built slice is their oracle (the
    # `complex-counts-vs-built` validate check), and the `dse_sweep`
    # bench row times it.  Block pricing books its own stages; the
    # array-model arithmetic below is "structures".
    alu_area = _block_area("alu", w, library)
    adder_area = _block_area("adder", w, library)
    complex_area = _block_area("complex", w, library)

    t0 = time.perf_counter() if telemetry.ENABLED else 0.0
    sm = StructureModel(library, wire)
    nand_area = library.cell("nand2").area

    area = 0.0
    # Front end: BTB, per-way decode logic, next-PC.
    area += sm.array_area(256, 24, 1 + fw // 2)
    area += 350 * nand_area * fw
    area += adder_area
    # Rename: map table + free list.
    tag_bits = max(1, math.ceil(math.log2(config.phys_regs)))
    area += sm.array_area(32, tag_bits, 3 * fw)
    area += sm.array_area(config.phys_regs, tag_bits, fw)
    # Issue queue (payload + source tags, CAM-ported by the back end).
    area += sm.array_area(config.iq_size, 32 + 2 * tag_bits, fw + bw)
    # Register file.
    area += sm.array_area(config.phys_regs, w, 3 * bw)
    # Execution pipes: ALU per plain pipe; complex unit on one pipe;
    # memory pipe (AGU + LSQ); branch pipe.
    area += alu_area * config.alu_pipes + complex_area
    area += adder_area + sm.array_area(config.lsq_size, 40, 2)   # mem pipe
    area += alu_area                                              # branch
    # ROB.
    area += sm.array_area(config.rob_size, 40, 2 * fw)
    # Extra pipeline registers beyond the 9-stage baseline: one datapath-
    # wide latch bank per added stage per active way.
    extra_stages = max(config.depth - len(REGION_NAMES), 0)
    area += extra_stages * (fw + bw) * w * library.dff.area
    if telemetry.ENABLED:
        telemetry.time_add("solver.structures", time.perf_counter() - t0)
    return area


def core_physical(config: CoreConfig, library: Library, wire: WireModel,
                  skew_fo4: float = 0.5) -> CorePhysical:
    """Clock period, frequency and area of one design point."""
    logic = region_logic_delays(config, library, wire)
    area = core_area(config, library, wire)
    t0 = time.perf_counter() if telemetry.ENABLED else 0.0
    fo4 = library.inverter_fo4_delay()

    span = math.sqrt(area)
    feedback_length = span * (CORE_FEEDBACK_BASE
                              + CORE_FEEDBACK_PER_STAGE * config.depth)
    overhead = (library.register_overhead()
                + skew_fo4 * fo4
                + broadcast_penalty(library, wire, feedback_length))

    floor = MIN_STAGE_LOGIC_FO4 * fo4
    stage_delay: dict[str, float] = {}
    for region, delay in logic.items():
        k = config.regions[region]
        stage_delay[region] = max(delay / k, floor) + overhead

    critical_region = max(stage_delay, key=stage_delay.get)
    period = stage_delay[critical_region]
    if telemetry.ENABLED:
        telemetry.time_add("solver.structures", time.perf_counter() - t0)
    return CorePhysical(
        config_name=config.name,
        process=library.process,
        period=period,
        frequency=1.0 / period,
        area=area,
        critical_region=critical_region,
        overhead=overhead,
        region_logic=logic,
        region_stage_delay=stage_delay,
    )
