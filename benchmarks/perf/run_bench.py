"""Microbenchmarks for what the end-to-end benchmark cannot time.

Performance is compared with the end-to-end benchmark
(``python -m benchmarks.e2e run|compare``, ``benchmarks/e2e/README.md``),
which times the cold paper flow, the DSE grid and library
characterisation and checks every output.  This suite keeps only the
rows no end-to-end workload can run, and writes them to
``BENCH_perf.json``:

1. ``startup`` — ``python -m repro list`` in a fresh interpreter: the
   import cost every CLI process pays.
2. ``depth_sweep_warm_cache`` — the Figure 11 depth sweep replayed from
   a filled result cache (every simulation and block timing read from
   disk).  The cold sweep that fills the cache is untimed set-up; no
   end-to-end workload replays a warm cache.
3. ``ensemble_newton`` — 200 fixed-dt ensemble Newton timesteps on a
   16-member inverter batch: the solver-backend dispatch alone, without
   step control or probing.
4. ``native_timestep`` — 25 complete 16-member ensemble transient
   sweeps (predictor, RHS, Newton, LTE step control, probing): the
   region the whole-timestep native kernel owns.
5. ``ipc_simulate`` — the trace-driven IPC kernel alone: all seven
   workloads at full sweep trace length on the baseline core.

Rows 3-5 run on the kernels the process resolves, so under
``REPRO_NATIVE=0`` they time the numpy solver and the reference IPC
loop.  The end-to-end harness strips every ``REPRO_*`` variable from
its children, so it cannot time that key.

Each row does its set-up and warm-up untimed, then times ``REPEATS``
runs and records their median, quartiles (``q1``, ``q3``) and count
``n`` in wall seconds.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.run_bench           # every row
    PYTHONPATH=src python -m benchmarks.perf.run_bench --only startup
    PYTHONPATH=src python -m benchmarks.perf.run_bench --profile
    REPRO_NATIVE=0 PYTHONPATH=src python -m benchmarks.perf.run_bench \
        --out bench_numpy.json                     # numpy/reference key

``--profile`` turns telemetry on and records, with each row, the
per-stage breakdown of its median run: the growth of each
``solver.<stage>`` timer (:data:`repro.runtime.telemetry.STAGES`) over
that run, plus the residual ``overhead``.

``--report PATH`` additionally collects full telemetry for the whole
benchmark run and writes a :mod:`repro.runtime.report` JSON document
(span tree, solver/cache metrics, environment fingerprint) there;
``python -m repro trace PATH`` exports it as a Chrome Trace Event JSON
(load it in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from unittest import mock

from benchmarks.e2e.cli import summarize
from repro.runtime import log as repro_log, telemetry
from repro.runtime import report as run_report

#: Timed runs per row.  Odd, so the median is one run, whose stage
#: breakdown ``--profile`` records.
REPEATS = 7

#: Trace length of the depth sweep.
SWEEP_TRACE_LENGTH = 10_000

NOTES = ("Each row does its set-up and warm-up untimed, then times REPEATS "
         "runs in one process; median, q1 and q3 are wall seconds over "
         "those runs (statistics.quantiles, n=4) and n is their count. "
         "The rows time only what the end-to-end benchmark cannot: "
         "fresh-interpreter start-up, a warm result-cache replay, and the "
         "SPICE and IPC kernels alone, which REPRO_NATIVE=0 switches to "
         "the numpy solver and the reference IPC loop. Performance is "
         "compared with the end-to-end 'run'/'compare' on one runner; "
         "compare these rows only with runs from the same host and "
         "session. This file was recorded with run_bench --profile on a "
         "shared 2-vCPU x86_64 host with the native kernels.")


class _timed:
    """One timed run: its wall seconds and the seconds each solver stage
    booked inside it (the row's ``--profile``)."""

    def __enter__(self) -> "_timed":
        self._before = telemetry.stage_seconds()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._t0
        self.stages = {stage: seconds - self._before[stage] for stage, seconds
                       in telemetry.stage_seconds().items()}


# Each row is a context manager: it sets up and warms up, then yields
# the callable whose runs are timed.


@contextlib.contextmanager
def _startup():
    """Start-up happens in the children, so the row books no solver stage."""
    import repro

    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    yield partial(subprocess.run, [sys.executable, "-m", "repro", "list"],
                  env=env, check=True, stdout=subprocess.DEVNULL)


@contextlib.contextmanager
def _depth_sweep_warm_cache():
    """The Figure 11 depth sweep against a private result cache that an
    untimed cold run of the identical call has just filled."""
    from repro.analysis.figures import load_libraries, wire_models
    from repro.core.physical import reset_structure_caches
    from repro.core.tradeoffs import depth_sweep, make_traces

    org_lib, _ = load_libraries()
    org_wire, _ = wire_models()
    sweep = partial(depth_sweep, org_lib, org_wire, max_depth=15,
                    traces=make_traces(n_instructions=SWEEP_TRACE_LENGTH))
    # A private directory, so a developer's cache cannot fill it, and
    # cleared memos, so the cold run writes every entry the replay reads
    # whichever rows ran earlier in this process.
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp, \
            mock.patch.dict(os.environ, REPRO_CACHE_DIR=tmp):
        reset_structure_caches()
        sweep()
        yield sweep


@contextlib.contextmanager
def _ensemble_newton():
    """Raw stacked-Newton throughput through the active solver backend.

    Each run marches 200 fixed-step backward-Euler solves of a 16-member
    inverter ensemble from its DC point straight through
    :meth:`~repro.spice.ensemble.EnsembleSystem.newton_batch` — no step
    control, no probing, no harness — so the row isolates what the
    backend dispatch layer changes.
    """
    import numpy as np

    from repro.cells.topologies import diode_load_inverter
    from repro.devices.pentacene import pentacene_model
    from repro.spice import (Capacitor, Circuit, EnsembleSystem,
                             NewtonOptions, RampValue, VoltageSource)

    vdd = 15.0
    models = [pentacene_model(vt_shift=0.05 * (k % 5)) for k in range(16)]
    cell = diode_load_inverter(models[0], w_drive=100e-6, w_load=30e-6,
                               vdd=vdd)
    ckt = Circuit("bench_tb")
    ckt.add(VoltageSource("v_vdd", "vdd", "0", vdd))
    ckt.add(VoltageSource("v_a", "a", "0",
                          RampValue(0.0, vdd, 4e-5, 2e-4)))
    cell.instantiate(ckt, {"a": "a", "out": "out", "vdd": "vdd",
                           "vss": "0"})
    ckt.add(Capacitor("c_load", "out", "0", 1e-12))
    es = EnsembleSystem(ckt, {(f"{cell.name}.{d.name}", "model"): models
                              for d in cell.devices})
    opts = NewtonOptions()
    x0, _ok = es.solve_dc(options=opts)

    mem = np.arange(es.B)
    dt = 2e-6
    inv_dt = np.full(es.B, 1.0 / dt)

    def steps(n: int) -> None:
        x, t = x0, np.full(es.B, dt)
        for _ in range(n):
            b = es.rhs_batch(mem, t)
            x, _conv = es.newton_batch(mem, None, b, x.copy(), opts,
                                       inv_dt=inv_dt, x_prev=x,
                                       add_storage=True)
            t = t + dt

    steps(1)                  # pays kernel compile / gather memoisation
    yield partial(steps, 200)


@contextlib.contextmanager
def _native_timestep():
    """The whole transient sweep loop through the active solver backend.

    Where ``ensemble_newton`` isolates the stacked Newton inner loop,
    each run here is 25 complete :meth:`~repro.spice.ensemble.
    EnsembleTransient.run` sweeps — predictor, RHS assembly, Newton,
    LTE step control and probe crossing extraction — on a 16-member
    inverter ensemble with spread slews and loads, which is exactly the
    region the whole-timestep native kernel
    (``NativeBackend.ensemble_timestep``) takes over.
    """
    from repro.cells.topologies import diode_load_inverter
    from repro.devices.pentacene import pentacene_model
    from repro.spice import (Capacitor, Circuit, RampValue, VoltageSource)
    from repro.spice.ensemble import EnsembleTransient, Probe
    from repro.spice.transient import TransientOptions

    vdd = 15.0
    models = [pentacene_model(vt_shift=0.05 * (k % 5)) for k in range(16)]
    slews = [1e-4 * (1.0 + 0.5 * (k % 4)) for k in range(16)]
    cell = diode_load_inverter(models[0], w_drive=100e-6, w_load=30e-6,
                               vdd=vdd)
    ckt = Circuit("ts_tb")
    ckt.add(VoltageSource("v_vdd", "vdd", "0", vdd))
    ckt.add(VoltageSource("v_a", "a", "0",
                          RampValue(0.0, vdd, 4e-5, slews[0])))
    cell.instantiate(ckt, {"a": "a", "out": "out", "vdd": "vdd",
                           "vss": "0"})
    ckt.add(Capacitor("c_load", "out", "0", 1e-12))
    values = {(f"{cell.name}.{d.name}", "model"): models
              for d in cell.devices}
    values["v_a", "value"] = [RampValue(0.0, vdd, 4e-5, slew)
                              for slew in slews]
    values["c_load", "capacitance"] = [1e-12 * (1 + k % 3)
                                       for k in range(16)]
    opts = []
    for slew in slews:
        dt = min(2e-3 / 400.0, slew / 8.0)
        opts.append(TransientOptions(dt=dt, t_stop=2e-3, dt_max=16.0 * dt,
                                     lte_tol=5e-4 * vdd))
    probes = [Probe("a", 0.5 * vdd), Probe("out", 0.5 * vdd)]

    def sweeps(n: int) -> None:
        for _ in range(n):
            EnsembleTransient(ckt, opts, probes, values).run()

    sweeps(1)                 # pays kernel compile / gather memoisation
    yield partial(sweeps, 25)


@contextlib.contextmanager
def _ipc_simulate():
    """All seven workloads through ``simulate()`` on the baseline core.

    Full sweep trace length (30k dynamic instructions per workload), no
    caching involved — the raw timing-kernel cost a sweep pays per
    configuration.
    """
    from repro.core.config import CoreConfig
    from repro.core.superscalar import simulate
    from repro.core.tradeoffs import make_traces

    traces = list(make_traces().values())
    config = CoreConfig()

    def run() -> None:
        for trace in traces:
            simulate(config, trace)

    # Compiles the native kernel on a fresh machine and warms per-trace
    # derived state (packed arrays, predictor streams), as any sweep's
    # first config does.
    run()
    yield run


BENCHES = {
    "startup": _startup,
    "depth_sweep_warm_cache": _depth_sweep_warm_cache,
    "ensemble_newton": _ensemble_newton,
    "native_timestep": _native_timestep,
    "ipc_simulate": _ipc_simulate,
}


def _measure(name: str, profile: bool) -> dict:
    """Set up one row, time ``REPEATS`` runs and summarise them; with
    *profile*, add the stage breakdown of the median run."""
    runs: list[_timed] = []
    with telemetry.span(f"bench:{name}"), BENCHES[name]() as run:
        for _ in range(REPEATS):
            # Collect garbage outside the timed region, so no run times
            # another's debris.
            gc.collect()
            with _timed() as timed:
                run()
            runs.append(timed)
    entry = summarize([timed.seconds for timed in runs])
    line = (f"[bench] {name}: median {entry['median']:.4f}s "
            f"[q1 {entry['q1']:.4f}, q3 {entry['q3']:.4f}] n={entry['n']}")
    if profile:
        median = sorted(runs, key=lambda timed: timed.seconds)[REPEATS // 2]
        entry["profile"] = telemetry.breakdown(median.seconds,
                                               stages=median.stages)
        line += "\n[bench]   profile: " + "  ".join(
            f"{stage} {seconds:.3f}s"
            for stage, seconds in entry["profile"].items())
    print(line, flush=True)
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=sorted(BENCHES), default=None,
                        help="run a single benchmark")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parents[2]
                        / "BENCH_perf.json",
                        help="output JSON path (default: repo root)")
    parser.add_argument("--profile", action="store_true",
                        help="per-stage breakdown (the solver.<stage> "
                             "telemetry timers) of each row's median run")
    parser.add_argument("--report", type=Path, default=None,
                        metavar="REPORT_JSON",
                        help="collect telemetry and write a run-report "
                             "JSON (span tree + solver/cache metrics) here")
    repro_log.add_cli_flags(parser)
    args = parser.parse_args(argv)
    repro_log.configure_from_args(args)

    collect = args.profile or args.report is not None
    if collect:
        telemetry.reset()
        telemetry.enable(True)
        repro_log.capture_warnings()
    t_run = time.perf_counter()

    results = {}
    for name in [args.only] if args.only else BENCHES:
        print(f"[bench] {name} ...", flush=True)
        results[name] = _measure(name, args.profile)

    from repro.core import ipc_native
    from repro.spice.backends import get_backend

    payload = {
        "benchmarks": results,
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "ipc_kernel": ("native" if ipc_native.native_available()
                           else "reference"),
            "spice_backend": get_backend().name,
        },
        "notes": NOTES,
    }
    if collect:
        telemetry.enable(False)
    if args.report is not None:
        report = run_report.build_report(
            "bench", argv=argv, status="ok",
            duration_seconds=time.perf_counter() - t_run)
        report["benchmarks"] = results
        run_report.write_report(report, path=args.report)
        print(f"[bench] wrote run report {args.report}")

    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench] wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
