"""Assert that telemetry instrumentation keeps the hot paths free.

The telemetry sites in the solver/characterisation layers follow the
one-branch guard pattern: when ``telemetry.ENABLED`` is False each site
costs one module-attribute load plus a branch, and even when enabled the
sites sit at aggregation boundaries (per solve, per batch) rather than
inside inner loops.  The ``solver.<stage>`` timers are on the same
flag, so the enabled runs include them — the SPICE stage timers,
which do book per iteration, among them.  This microbench enforces the
budget end to end:

it characterises one cell (or, with ``--bench library``, the full
organic library) repeatedly with collection *disabled* and *enabled* in
interleaved pairs — alternating which mode goes first, so slow clock /
thermal drift cannot systematically favour one side — compares the
**medians** of each mode, and fails (exit 1) if the enabled median is
more than ``--max-overhead`` (default 2%) above the disabled one.
Since the disabled path does strictly less work per site than the
enabled path, the disabled-telemetry overhead relative to
uninstrumented code is bounded by the same margin a fortiori.  Every
``python -m repro`` run collects, so the same budget caps what
collection costs a CLI run.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.telemetry_overhead
    PYTHONPATH=src python -m benchmarks.perf.telemetry_overhead \
        --bench library --repeats 2 --max-overhead 0.02
"""

from __future__ import annotations

import argparse
import os
import statistics
import time

from repro.runtime import telemetry


def _cell_workload():
    from repro.cells.library_def import organic_library_definition
    from repro.characterization import harness

    defn = organic_library_definition()
    grid = harness.default_grid(defn)
    cell = defn.cells["nand2"]

    def run() -> None:
        harness.characterize_cell(cell, grid, area=1.0)

    return run


def _library_workload():
    from repro.cells.library_def import organic_library_definition
    from repro.characterization.harness import characterize_library

    defn = organic_library_definition()

    def run() -> None:
        characterize_library(defn, use_cache=False)

    return run


def _dse_workload():
    """A one-combo slice of the batched DSE grid, run cold.

    The sweep engine's telemetry sites (span merging, per-batch solver
    counters, the new native-kernel counter flushes) sit on a different
    hot path than cell characterisation, so the overhead budget is
    enforced there too.  The grid is trimmed (one combo, two widths,
    two width pairs) to keep a repeat pair in seconds.  Each run starts
    from an empty result-cache directory and ``reset_structure_caches()``,
    so both modes do identical, cold work.
    """
    import tempfile

    from repro.analysis.dse import default_combos, dse_sweep
    from repro.core.physical import reset_structure_caches
    from repro.core.tradeoffs import make_traces

    combos = default_combos()[:1]
    traces = make_traces(workloads=["gzip"], n_instructions=4_000)

    def run() -> None:
        saved = os.environ.get("REPRO_CACHE_DIR")
        with tempfile.TemporaryDirectory(
                prefix="repro-overhead-cache-") as tmp:
            os.environ["REPRO_CACHE_DIR"] = tmp
            try:
                reset_structure_caches()
                dse_sweep(combos=combos, widths=(8, 32),
                          width_pairs=((1, 3), (2, 4)), traces=traces,
                          workers=1)
            finally:
                if saved is None:
                    os.environ.pop("REPRO_CACHE_DIR", None)
                else:
                    os.environ["REPRO_CACHE_DIR"] = saved

    return run


WORKLOADS = {"cell": _cell_workload, "library": _library_workload,
             "dse": _dse_workload}


def _timed(run, enabled: bool) -> float:
    telemetry.reset()
    telemetry.enable(enabled)
    try:
        t0 = time.perf_counter()
        run()
        return time.perf_counter() - t0
    finally:
        telemetry.enable(False)
        telemetry.reset()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", choices=sorted(WORKLOADS), default="cell",
                        help="workload to time (default: one-cell NLDM "
                             "characterisation)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="disabled/enabled pairs to run (default 5; "
                             "the medians of each mode are compared)")
    parser.add_argument("--max-overhead", type=float, default=0.02,
                        help="maximum allowed fractional slowdown of the "
                             "telemetry-enabled run (default 0.02)")
    args = parser.parse_args(argv)

    run = WORKLOADS[args.bench]()
    run()                                   # warm-up: imports, first-call numpy

    disabled: list[float] = []
    enabled: list[float] = []
    for i in range(args.repeats):
        # Alternate which mode runs first so clock/thermal drift over the
        # bench's lifetime cannot systematically favour one side.
        first_on = bool(i % 2)
        a = _timed(run, enabled=first_on)
        b = _timed(run, enabled=not first_on)
        on, off = (a, b) if first_on else (b, a)
        disabled.append(off)
        enabled.append(on)
        print(f"[telemetry-overhead] pair {i + 1}/{args.repeats}: "
              f"disabled {off:.3f}s, enabled {on:.3f}s", flush=True)

    mid_off = statistics.median(disabled)
    mid_on = statistics.median(enabled)
    overhead = mid_on / mid_off - 1.0
    print(f"[telemetry-overhead] {args.bench}: disabled median "
          f"{mid_off:.3f}s, enabled median {mid_on:.3f}s, overhead "
          f"{overhead:+.2%} (limit {args.max_overhead:.0%})")
    if overhead > args.max_overhead:
        print("[telemetry-overhead] FAIL: enabled telemetry exceeds the "
              "overhead budget")
        return 1
    print("[telemetry-overhead] OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
