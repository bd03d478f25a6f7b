"""Command-line entry point: regenerate paper figures from the shell.

Usage::

    python -m repro list                 # available experiments
    python -m repro fig3                 # one experiment
    python -m repro fig12 fig15          # several
    python -m repro dse --quick          # design-space exploration grid
    python -m repro liberty out.lib --process organic
    python -m repro cache-stats          # persistent result-cache usage
    python -m repro report               # pretty-print the latest run report
    python -m repro trace [REPORT]       # Chrome trace of a run report
    python -m repro validate --fast      # differential validation + faults

Heavy experiments (fig11, fig13) accept ``--quick`` to shorten traces.

Every experiment and validate run collects telemetry (hierarchical
spans, solver and cache metrics — see :mod:`repro.runtime.telemetry`)
and writes a JSON run report under ``runs/`` (``--report PATH``
overrides the location, ``--no-report`` skips it); ``python -m repro
trace`` exports a report's Chrome trace.  ``-v``/``-vv``/``--log-level``
control library logging.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.analysis import figures as F
from repro.analysis.tables import format_matrix, format_series, format_table
from repro.runtime import log as repro_log, telemetry
from repro.runtime import report as run_report


def _run_fig3(args) -> None:
    r = F.fig3_transfer_characteristics()
    print(format_table(
        ["quantity", "measured", "paper"],
        [["mobility (cm^2/Vs)", f"{r.report_vds1.mobility_cm2:.3f}", r.paper_mobility],
         ["SS (mV/dec)", f"{r.report_vds1.subthreshold_slope_mv_dec:.0f}", r.paper_ss],
         ["on/off", f"{r.report_vds1.on_off_ratio:.2e}", f"{r.paper_on_off:.0e}"],
         ["VT@-1V", f"{r.report_vds1.threshold_v:.2f}", r.paper_vt1],
         ["VT@-10V", f"{r.report_vds10.threshold_v:.2f}", r.paper_vt10]],
        title="Figure 3"))


def _run_fig4(args) -> None:
    r = F.fig4_model_fits()
    print(format_table(
        ["model", "rms log err (full)", "rms log err (on)"],
        [["level 1", f"{r.level1.rms_log_error:.3f}",
          f"{r.level1.rms_log_error_on:.3f}"],
         ["level 61", f"{r.level61.rms_log_error:.3f}",
          f"{r.level61.rms_log_error_on:.3f}"]],
        title="Figure 4"))


def _run_fig6(args) -> None:
    r = F.fig6_inverter_comparison()
    rows = []
    for label, a in (("diode", r.diode), ("biased", r.biased),
                     ("pseudo-E", r.pseudo_e)):
        rows.append([label, f"{a.vm:.2f}", f"{a.max_gain:.2f}",
                     f"{a.nm_mec:.2f}", f"{a.voh:.2f}", f"{a.vol:.3f}",
                     f"{a.static_power_low*1e6:.1f}",
                     f"{a.static_power_high*1e6:.2f}"])
    print(format_table(
        ["style", "VM", "gain", "NM", "VOH", "VOL", "P0 uW", "P1 uW"],
        rows, title="Figure 6d (VDD = 15 V)"))


def _run_fig7(args) -> None:
    r = F.fig7_vdd_scaling()
    rows = [[f"{vdd:.0f}", f"{r.vss_used[vdd]:.0f}", f"{a.vm:.2f}",
             f"{a.max_gain:.2f}", f"{a.nm_mec:.2f}",
             f"{a.static_power_low*1e6:.1f}"]
            for vdd, a in sorted(r.analyses.items())]
    print(format_table(["VDD", "VSS", "VM", "gain", "NM", "P0 uW"], rows,
                       title="Figure 7d"))


def _run_fig8(args) -> None:
    r = F.fig8_vss_tuning()
    print(format_series([f"{v:.1f}" for v in r.vss_values], r.vm_values,
                        title=f"Figure 8b: VM = {r.slope:.3f} VSS + "
                              f"{r.intercept:.2f} (paper slope "
                              f"{r.paper_slope})"))


def _run_fig11(args) -> None:
    n = 8000 if args.quick else 25_000
    r = F.fig11_pipeline_depth(n_instructions=n)
    for process in ("silicon", "organic"):
        perf = r.normalized_performance(process)
        depths = sorted(perf)
        means = [sum(perf[d].values()) / len(perf[d]) for d in depths]
        print(format_series(depths, means,
                            title=f"Figure 11 ({process}): mean perf"))
    print(f"optima: silicon {r.optimal_depth('silicon')}, "
          f"organic {r.optimal_depth('organic')}")


def _run_fig12(args) -> None:
    r = F.fig12_alu_depth()
    rows = [[n, f"{r.frequency_ratios('organic')[i]:.2f}",
             f"{r.frequency_ratios('silicon')[i]:.2f}"]
            for i, n in enumerate(r.stage_counts)]
    print(format_table(["stages", "organic f/f1", "silicon f/f1"], rows,
                       title="Figure 12"))


def _run_fig13(args) -> None:
    n = 6000 if args.quick else 20_000
    r = F.fig13_width_performance(n_instructions=n)
    print(format_matrix(r.silicon, title="Figure 13a (silicon)"))
    print(format_matrix(r.organic, title="Figure 13b (organic)"))
    print(f"optima: silicon {r.optimum('silicon')}, "
          f"organic {r.optimum('organic')}")


def _run_fig14(args) -> None:
    r = F.fig14_width_area()
    print(format_matrix(r.silicon, title="Figure 14a (silicon)"))
    print(format_matrix(r.organic, title="Figure 14b (organic)"))


def _run_fig15(args) -> None:
    r = F.fig15_wire_ablation()
    rows = [[d] + [f"{r.core[s][i]:.2f}" for s in r.SERIES]
            for i, d in enumerate(r.core_depths)]
    print(format_table(["depth", *r.SERIES], rows, title="Figure 15b"))


def _run_cache_stats(args) -> None:
    from repro.runtime.cache import (
        cache_enabled,
        default_cache_root,
        disk_stats,
        stats_snapshot,
    )

    root = default_cache_root()
    print(f"cache root: {root} "
          f"({'enabled' if cache_enabled() else 'disabled via REPRO_CACHE'})")
    stats = disk_stats(root)
    if not stats:
        print("no cached entries")
    else:
        rows = [[cat, str(s["entries"]), f"{s['bytes'] / 1024:.1f}"]
                for cat, s in stats.items()]
        total_entries = sum(s["entries"] for s in stats.values())
        total_bytes = sum(s["bytes"] for s in stats.values())
        rows.append(["total", str(total_entries),
                     f"{total_bytes / 1024:.1f}"])
        print(format_table(["category", "entries", "KiB"], rows,
                           title="On-disk entries"))
    session = stats_snapshot()
    print(f"this process: {session['hits']} hits, {session['misses']} "
          f"misses, {session['puts']} puts, "
          f"{session['bytes_read']} B read, "
          f"{session['bytes_written']} B written")


def _run_liberty(args) -> None:
    from repro.characterization import organic_library, silicon_library
    from repro.characterization.liberty import write_liberty
    lib = organic_library() if args.process == "organic" else silicon_library()
    write_liberty(lib, args.output)
    print(f"wrote {args.output} ({args.process})")


def _run_validate(args, argv: list[str] | None = None) -> int:
    """Differential validation and fault injection (``validate`` command).

    Runs the registered checks (:mod:`repro.validate`) in fast mode by
    default (``--full`` for the larger nightly samples), prints the
    per-check report, and exits nonzero when any check failed.  Its run
    report is an experiment's (:func:`_run_reported`) with the check
    outcomes under the ``validation`` key.
    """
    from repro.validate import run_validation
    from repro.validate.checks import registered_checks

    only = args.only.split(",") if args.only else None
    try:
        registered_checks(fast=not args.full, only=only)
    except ValueError as exc:          # unknown --only name
        print(exc)
        return 2

    def body() -> tuple[int, str, dict]:
        with telemetry.span("validate"):
            report = run_validation(fast=not args.full, seed=args.seed,
                                    only=only)
        print(report.format())
        return (0 if report.ok else 1,
                "ok" if report.ok else "check-failed",
                {"validation": report.to_dict()})

    return _run_reported("validate", body, args, argv)


def _run_dse(args) -> None:
    """Batched design-space exploration (the ``dse`` command).

    Evaluates the stock (depth x data width x width pair x combo) grid
    through the shared-structure synthesis path and incremental STA
    (:mod:`repro.analysis.dse`); ``--quick`` shrinks the grid to a
    smoke-test slice.
    """
    from repro.analysis import dse as D

    if args.quick:
        result = D.dse_sweep(widths=(8, 16), width_pairs=((2, 4), (3, 5)),
                             max_depth=11)
    else:
        result = D.dse_sweep()
    rows = []
    for combo in result.combos:
        points = result.for_combo(combo)
        best = result.best(combo)
        rows.append([combo, str(len(points)),
                     best.config.name, str(best.config.depth),
                     f"{best.physical.frequency:.1f}",
                     f"{best.mean_performance():.1f}"])
    print(format_table(
        ["combo", "points", "best config", "depth", "f (Hz)", "perf"],
        rows, title=f"DSE grid ({len(result)} points)"))


def _load_report(path: str | None) -> tuple[Path, dict] | None:
    """The run report at *path*, else the latest under ``runs/``.

    Prints why and returns None when there is none or it is unreadable.
    """
    import json

    found = Path(path) if path else run_report.latest_report_path()
    if found is None:
        print(f"no run reports found under {run_report.default_runs_dir()}")
        return None
    try:
        return found, json.loads(found.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read {found}: {exc}")
        return None


def _run_trace(argv: list[str]) -> int:
    """Post-hoc trace conversion (``python -m repro trace [REPORT]``)."""
    from repro.runtime import trace_export

    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Convert a saved run report to Chrome Trace Event "
                    "JSON (chrome://tracing, ui.perfetto.dev)")
    parser.add_argument("report", nargs="?", default=None,
                        help="run-report JSON path (default: the latest "
                             "report under runs/)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="trace output path (default: "
                             "<report>.trace.json beside the report)")
    args = parser.parse_args(argv)
    loaded = _load_report(args.report)
    if loaded is None:
        return 1
    path, report = loaded
    out = args.out or trace_export.default_trace_path(path)
    out = trace_export.write_trace(report, out)
    events = len(trace_export.trace_events(report))
    print(f"trace: {out} ({events} events from {path})")
    return 0


def _run_report(args) -> int:
    """Pretty-print the most recent run report (the ``report`` command)."""
    loaded = _load_report(None)
    if loaded is None:
        return 1
    path, report = loaded
    print(f"[{path}]")
    print(run_report.format_report(report))
    return 0


EXPERIMENTS = {
    "fig3": _run_fig3, "fig4": _run_fig4, "fig6": _run_fig6,
    "fig7": _run_fig7, "fig8": _run_fig8, "fig11": _run_fig11,
    "fig12": _run_fig12, "fig13": _run_fig13, "fig14": _run_fig14,
    "fig15": _run_fig15, "dse": _run_dse,
}


def _run_reported(target: str, body, args, argv: list[str] | None) -> int:
    """Run ``body()`` under telemetry and emit the invocation's report.

    ``body`` returns ``(exit code, status, extra report keys)``.  The
    report is written to ``--report PATH`` or timestamped under
    ``runs/`` unless ``--no-report``.  When ``body`` raises, the report
    records ``status: "error"`` and the exception, which then
    propagates.
    """
    telemetry.reset()
    telemetry.enable(True)
    repro_log.capture_warnings()
    t0 = time.perf_counter()
    status, error, extra = "error", None, {}
    try:
        rc, status, extra = body()
    except BaseException as exc:
        error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        if not args.no_report:
            report = run_report.build_report(
                target, argv=argv, status=status, error=error,
                duration_seconds=time.perf_counter() - t0)
            report.update(extra)
            path = run_report.write_report(report, path=args.report)
            print(f"run report: {path}")
        telemetry.enable(False)
    return rc


def _run_experiments(targets: list[str], args,
                     argv: list[str] | None) -> int:
    """Run experiments under one report; each target is a root span."""
    def body() -> tuple[int, str, dict]:
        for target in targets:
            with telemetry.span(target):
                EXPERIMENTS[target](args)
            print()
        return 0, "ok", {}

    return _run_reported("+".join(targets), body, args, argv)


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "trace":
        return _run_trace(raw[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate figures from 'Architectural Tradeoffs for "
                    "Biodegradable Computing' (MICRO-50 2017).")
    parser.add_argument("targets", nargs="+",
                        help="'list', experiment names (fig3..fig15, dse), "
                             "'liberty <out.lib>', 'cache-stats', "
                             "'report', 'trace [REPORT]' or 'validate'")
    parser.add_argument("--quick", action="store_true",
                        help="shorter traces for the heavy sweeps")
    parser.add_argument("--fast", action="store_true",
                        help="validate: small seeded samples (the default)")
    parser.add_argument("--full", action="store_true",
                        help="validate: larger samples and all checks")
    parser.add_argument("--seed", type=int, default=0,
                        help="validate: seed for the randomized samples")
    parser.add_argument("--only", default=None, metavar="NAMES",
                        help="validate: comma-separated check names to run")
    parser.add_argument("--process", choices=("organic", "silicon"),
                        default="organic", help="library for liberty export")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the run-report JSON here instead of "
                             "a timestamped file under runs/")
    parser.add_argument("--no-report", action="store_true",
                        help="skip writing the run-report JSON")
    repro_log.add_cli_flags(parser)
    args = parser.parse_args(raw)
    repro_log.configure_from_args(args)

    targets = list(args.targets)
    if targets[0] == "list":
        print("experiments:", ", ".join(sorted(EXPERIMENTS)))
        print("also: liberty <output.lib> [--process organic|silicon], "
              "cache-stats, report, trace [REPORT], "
              "validate [--fast|--full] [--seed N]")
        return 0
    if targets[0] == "cache-stats":
        _run_cache_stats(args)
        return 0
    if targets[0] == "report":
        return _run_report(args)
    if targets[0] == "validate":
        if len(targets) != 1:
            parser.error("validate takes no extra targets")
        return _run_validate(args, argv=raw)
    if targets[0] == "liberty":
        if len(targets) != 2:
            parser.error("liberty needs an output path")
        args.output = targets[1]
        _run_liberty(args)
        return 0

    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; try 'list'")
    return _run_experiments(targets, args, raw)


if __name__ == "__main__":
    sys.exit(main())
