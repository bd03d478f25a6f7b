"""Per-stage solver wall-clock counters — a thin view over the registry.

The perf benchmarks (``benchmarks/perf/run_bench.py --profile``) want a
breakdown of where a characterisation run spends its time — matrix
stamping, linear solves, device-model evaluation — without slowing the
normal path down.  The hot loops therefore guard every measurement with
a single module-global ``ENABLED`` check (one attribute load and branch
when profiling is off).

Since the telemetry registry landed, this module no longer owns any
storage: :func:`add` accumulates into the
:mod:`repro.runtime.telemetry` timers (``solver.stamp`` /
``solver.device_eval`` / ``solver.solve``), and :func:`snapshot` /
:func:`breakdown` read them back.  That is what makes the counters
**process-aware**: worker processes ship their registry snapshot back
through :func:`repro.runtime.parallel_map`'s result channel and the
parent merges them in task order, so ``run_bench --profile`` reports
the full stamp/solve time even under ``REPRO_WORKERS>1`` (previously
the workers' share was silently lost).

Stages
------
- ``stamp`` — residual/Jacobian assembly (:meth:`MnaSystem.
  residual_and_jacobian` and the ensemble engine's stacked assembly),
  *including* device evaluation on the scalar per-element path;
- ``device_eval`` — batched device-model kernels (the vectorized FET
  paths time their model call separately; it is reported subtracted
  from ``stamp`` so the two never double-count);
- ``solve`` — linear-solve work through the active
  :mod:`repro.spice.backends` backend (``dgesv`` /
  ``numpy.linalg.solve``); on the native
  backend the compiled kernel fuses stamping and device evaluation
  into the solve call, so its whole runtime lands here;
- ``rhs`` — right-hand-side evaluation (sources, ramps, storage
  history);
- ``probe`` — waveform probing (threshold-crossing extraction);
- ``step_control`` — timestep selection and accept/grow/shrink
  bookkeeping;
- ``predict`` — warm-start prediction: extrapolating the start state
  from integration history and measuring the prediction miss (the LTE
  estimate);
- ``retry`` — retry orchestration (Newton-failure halving and LTE
  rejection handling);
- ``cache`` — cache and fingerprint maintenance (gather memoisation,
  result-cache keys) in the harness;
- ``telemetry`` — span/report bookkeeping while profiling;
- ``netlist`` — gate-level netlist construction (the generator blocks a
  sweep synthesises, including copy-on-extend construction);
- ``mapping`` — technology mapping onto the library cells;
- ``sta`` — static timing analysis (scalar, vector and incremental
  engines), timed at the :func:`repro.synthesis.sta.static_timing`
  entry point only;
- ``structures`` — the Palacharla-style structure-model arithmetic in
  :mod:`repro.core.physical` (array/wakeup/regfile/ROB delay and area
  models, NLDM lookups outside STA), timed in segments disjoint from
  the nested netlist/mapping/sta/cache bookings;
- ``ipc`` — the trace-driven core timing model
  (:func:`repro.core.superscalar.simulate`, whichever kernel runs);
  result-cache lookups around it (``simulate_cached``) land in
  ``cache``, so warm sweep rows attribute their wall time instead of
  leaking it into ``overhead``;
- ``pipeline`` — min-period pipeline cutting in
  :func:`repro.synthesis.pipeline.pipeline_sweep`, excluding the STA
  pass that prices its gates (booked as ``sta``).

The three synthesis stages never nest (generation, mapping and timing
are sequential phases of a sweep point), so the
:class:`ProfileAccountingError` double-count guard applies to them
unchanged.

Whatever none of the stages account for remains the *overhead* line,
derived by the reporter as ``total - tracked``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.runtime import telemetry

__all__ = ["ENABLED", "ProfileAccountingError", "add", "breakdown",
           "enable", "profiled", "reset", "snapshot"]


class ProfileAccountingError(RuntimeError):
    """Stage sub-timers exceed the measured wall time.

    Raised by :func:`breakdown` when the tracked stages sum to more than
    the row's wall clock (beyond timer-granularity slack): some stage is
    being double-counted — typically a new fused native stage whose time
    is also still accumulated by the Python path it replaced.  Without
    this check the ``overhead`` line just clamps to zero and the
    double-count ships silently in BENCH_perf.json.
    """

#: Hot-path guard: solver code only calls :func:`add` when this is True.
#: Kept separate from ``telemetry.ENABLED`` so ``--profile`` can collect
#: the stage timers without turning full telemetry on.
ENABLED = False

_STAGES = ("stamp", "device_eval", "solve", "rhs", "probe",
           "step_control", "predict", "retry", "cache", "telemetry",
           "netlist", "mapping", "sta", "structures", "ipc", "pipeline")

#: Registry timer names backing each stage.
_TIMER = {stage: f"solver.{stage}" for stage in _STAGES}


def enable(flag: bool = True) -> None:
    """Turn stage accumulation on or off (leaves accumulated totals)."""
    global ENABLED
    ENABLED = bool(flag)


def reset() -> None:
    """Zero all accumulated stage times and counts."""
    timers = telemetry._REG.timers
    for stage in _STAGES:
        timers.pop(_TIMER[stage], None)


def add(stage: str, seconds: float) -> None:
    """Accumulate *seconds* into *stage* (call only when ``ENABLED``)."""
    telemetry._REG.time_add(_TIMER[stage], seconds)


def _stage(stage: str) -> tuple[float, int]:
    cell = telemetry._REG.timers.get(_TIMER[stage])
    return (cell[0], int(cell[1])) if cell is not None else (0.0, 0)


def snapshot() -> dict[str, dict[str, float]]:
    """Raw accumulated ``{stage: {seconds, calls}}`` since the last reset."""
    out = {}
    for stage in _STAGES:
        seconds, calls = _stage(stage)
        out[stage] = {"seconds": seconds, "calls": calls}
    return out


#: Accounting slack before :func:`breakdown` declares a double-count:
#: per-call timer granularity and clock skew legitimately push the stage
#: sum a little past wall time, but a genuinely double-counted stage
#: overshoots by its whole runtime.
_SUM_SLACK_FRACTION = 0.02
_SUM_SLACK_SECONDS = 2e-3


def breakdown(total_seconds: float, check: bool = True) -> dict[str, float]:
    """Per-stage seconds plus the derived ``overhead`` line.

    ``device_eval`` time is recorded from inside ``stamp`` regions, so it
    is subtracted from the stamp line rather than double-counted;
    ``overhead`` is whatever part of *total_seconds* none of the solver
    stages account for (step control, sources, measurements, Python).

    With ``check`` (the default) the stage sum is verified against
    *total_seconds* and :class:`ProfileAccountingError` is raised when it
    exceeds wall time beyond measurement slack — the signature of a stage
    counted twice (see the exception docstring).
    """
    stamp_s, _ = _stage("stamp")
    dev_s, _ = _stage("device_eval")
    stamp = max(0.0, stamp_s - dev_s)
    out = {"stamp": round(stamp, 4), "device_eval": round(dev_s, 4)}
    tracked = stamp + dev_s
    for stage in _STAGES[2:]:
        seconds, _ = _stage(stage)
        out[stage] = round(seconds, 4)
        tracked += seconds
    if check and tracked > (total_seconds * (1.0 + _SUM_SLACK_FRACTION)
                            + _SUM_SLACK_SECONDS):
        raise ProfileAccountingError(
            f"profiled stages sum to {tracked:.4f}s but the row's wall "
            f"time is only {total_seconds:.4f}s — a stage is being "
            f"double-counted (stages: {out})")
    out["overhead"] = round(max(0.0, total_seconds - tracked), 4)
    return out


@contextmanager
def profiled() -> Iterator[None]:
    """Enable profiling (reset first) for the duration of a block."""
    reset()
    enable(True)
    try:
        yield
    finally:
        enable(False)
