"""One benchmark child process: set up, run iterations, write a result.

Run by the parent as ``python -m benchmarks.e2e.child SPEC_JSON``.  The
spec names the workload, seed, time budget, whether to trace, and where
to write the result JSON.  The child prints nothing the parent reads;
the program's own output goes to the parent's log file.

Times are reported at the reference host's speed.  The host is shared
with other tenants, whose load slows this process by up to ~75 % for
minutes at a time while it keeps running (CPU time grows with wall
time; steal time stays near zero).  So the child times a fixed loop,
:func:`host_probe`, before the first op and after every op, and rescales
each op's wall time by ``PROBE_REFERENCE_S`` over the mean of the two
probes around it.  A change to the program moves the op times, never
the probe.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from benchmarks.e2e.workloads import WORKLOADS, Workload, simulated

#: Typical time of :func:`host_probe` on the reference host, a 2-vCPU
#: Intel Xeon guest at 2.0 GHz running CPython 3.11 (medians of 0.037
#: to 0.040 s).  Times are reported as if every probe had taken this.
PROBE_REFERENCE_S = 0.040

_probe_data: list[float] = []


def host_probe() -> float:
    """Seconds a fixed loop takes now: random reads of an 8 MB list,
    float arithmetic and dict updates, as interpreted Python does."""
    if not _probe_data:
        _probe_data.extend(float(i) for i in range(1 << 18))
    data, mask = _probe_data, len(_probe_data) - 1
    counts: dict[int, int] = {}
    acc, j = 0.0, 0
    t0 = time.perf_counter()
    for i in range(80_000):
        j = (j * 1103515245 + 12345) & mask
        acc += data[j] / (i % 97 + 1.0)
        k = i % 89
        counts[k] = counts.get(k, 0) + 1
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, probe_s: float) -> float:
    return seconds * PROBE_REFERENCE_S / probe_s


def sum_of_op_medians(op_seconds: dict[str, list[float]]) -> float:
    """Iteration time from each op's times across iterations.

    Summing per-op medians keeps a slowdown that hit one op of one
    iteration out of the result."""
    return sum(statistics.median(times) for times in op_seconds.values())


def run_iteration(workload: Workload, state: Any, index: int
                  ) -> tuple[float, list[dict], dict[str, Any]]:
    """Run one iteration's ops; returns (wall seconds, op records, outputs).

    Each op record has its wall ``seconds`` and its ``ref_seconds`` at
    the reference host speed.  An op that raises is recorded with its
    error and the iteration goes on with the next op.  Digests are taken
    after the clock stops.
    """
    from benchmarks.e2e.canon import digest
    records: list[dict] = []
    outputs: dict[str, Any] = {}
    seconds = 0.0
    probe_before = host_probe()
    for op in workload.iteration(state, index):
        record = {"name": op.name}
        t0 = time.perf_counter()
        try:
            outputs[op.name] = op.fn()
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["seconds"] = time.perf_counter() - t0
        probe_after = host_probe()
        record["ref_seconds"] = at_reference_speed(
            record["seconds"], (probe_before + probe_after) / 2)
        probe_before = probe_after
        seconds += record["seconds"]
        records.append(record)
    for rec in records:
        if "error" not in rec:
            try:
                rec["digest"] = digest(outputs[rec["name"]])
            except (TypeError, ValueError) as exc:
                rec["error"] = f"digest: {type(exc).__name__}: {exc}"
    return seconds, records, outputs


def _resolved_kernels() -> tuple[str, str]:
    """(SPICE backend, IPC kernel) this process resolved."""
    from repro.core import ipc_native, superscalar
    from repro.spice.backends import get_backend
    kernel = superscalar._resolve_kernel(None)
    if kernel == "fast":
        kernel = "fast-native" if ipc_native.native_available() \
            else "fast-python"
    return get_backend().name, kernel


def _traced_metrics(tracer, wall_s: float, iterations: int,
                    cache_delta: dict[str, int], import_s: float,
                    prepare_s: float, iteration_s: float
                    ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced child.

    Counts are per iteration, so they do not grow with the number of
    iterations a faster program fits into the run.
    """
    out = tracer.metrics(wall_s)
    for name, (value, unit) in out.items():
        if unit == "count":
            out[name] = (value / iterations, unit)
    for key in ("hits", "misses", "puts"):
        out[f"cache.{key}"] = (cache_delta[key] / iterations, "count")
    for key in ("bytes_read", "bytes_written"):
        out[f"cache.{key}"] = (cache_delta[key] / iterations, "B")
    lookups = cache_delta["hits"] + cache_delta["misses"]
    out["cache.hit_ratio"] = (
        cache_delta["hits"] / lookups if lookups else 0.0, "ratio")

    def ratio(num: str, den: str) -> float:
        d = tracer.calls[den]
        return tracer.calls[num] / d if d else 0.0
    out["pipeline.probes_per_stage_count"] = (ratio(
        "pipeline.stages_needed", "pipeline.min_period_for_stages"), "ratio")
    out["ipc.simulate_per_cached"] = (ratio(
        "ipc.simulate", "ipc.simulate_cached"), "ratio")
    out["setup.import_s"] = (import_s, "s")
    out["setup.prepare_s"] = (prepare_s, "s")
    out["trace.iteration_s"] = (iteration_s, "s")
    return out


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    workload = WORKLOADS[spec["workload"]]
    scratch = Path(spec["scratch"])

    t0 = time.perf_counter()
    for module in workload.modules:
        importlib.import_module(module)
    t1 = time.perf_counter()
    state = workload.prepare(spec["seed"], scratch)
    t2 = time.perf_counter()
    tracer = None
    if spec["trace"]:
        from benchmarks.e2e.layers import Tracer
        tracer = Tracer()
        tracer.install()
    result: dict[str, Any] = {"ready_at": time.time(),
                              "import_s": t1 - t0, "prepare_s": t2 - t1,
                              "iterations": []}
    result["setup_probe_s"] = host_probe()

    if not spec["setup_only"]:
        from repro.runtime.cache import stats_snapshot
        before = stats_snapshot()
        measured = 0.0
        index = 0
        outputs: dict[str, Any] = {}
        while True:
            seconds, records, outputs = run_iteration(workload, state, index)
            result["iterations"].append({"seconds": seconds, "ops": records})
            measured += seconds
            index += 1
            if workload.one_per_process or measured >= spec["seconds"]:
                break
        result["simulated"] = simulated(outputs)
        result["backend"], result["ipc_kernel"] = _resolved_kernels()
        if tracer is not None:
            after = stats_snapshot()
            delta = {k: after[k] - before[k] for k in after}
            op_seconds: dict[str, list[float]] = {}
            for it in result["iterations"]:
                for op in it["ops"]:
                    op_seconds.setdefault(op["name"], []).append(
                        op["ref_seconds"])
            result["per_layer"] = _traced_metrics(
                tracer, measured, index, delta, result["import_s"],
                result["prepare_s"], sum_of_op_medians(op_seconds))
            tracer.write(Path(spec["trace_path"]))

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["peak_rss_kb"] = usage
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
