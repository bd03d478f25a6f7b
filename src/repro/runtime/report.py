"""Per-experiment JSON run reports.

Every ``python -m repro figN`` invocation (and ``run_bench --report``)
writes one self-describing JSON document capturing what ran and how:

- an **environment fingerprint** — interpreter, platform, package
  versions, and every ``REPRO_*`` knob in effect — so a surprising
  number in a report is attributable to its configuration;
- the telemetry **span tree** and flattened per-path span totals
  (including spans grafted back from worker processes);
- all **metrics** (counters / timers / distributions): Newton
  iterations, LTE rejections, ensemble occupancy, NLDM lookups, native
  vs Python IPC kernel paths, ...;
- **cache statistics**, both this process tree's session counters and
  the on-disk entry counts per category;
- the **warnings** the run hit (serial-pool fallback, failed kernel
  compile, ...), teed in from the ``repro`` loggers.

Reports land under ``runs/`` (override with ``REPRO_RUNS_DIR`` or an
explicit ``--report PATH``); ``python -m repro report`` pretty-prints
the most recent one and ``python -m repro trace`` exports it as a
Chrome trace.  The schema is versioned so downstream tooling can
evolve with it.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.runtime import telemetry

__all__ = [
    "SCHEMA_VERSION",
    "build_report",
    "default_runs_dir",
    "format_report",
    "latest_report_path",
    "write_report",
]

SCHEMA_VERSION = 1

#: Environment variable overriding where reports are written.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"


def default_runs_dir() -> Path:
    """``REPRO_RUNS_DIR`` or ``runs/`` under the working directory."""
    env = os.environ.get(RUNS_DIR_ENV)
    return Path(env) if env else Path("runs")


def _package_versions() -> dict[str, str]:
    """Numeric-stack versions; a package the run never imported is read
    from its installed metadata rather than imported for a string."""
    import importlib.metadata

    versions: dict[str, str] = {}
    for name in ("numpy", "scipy"):
        module = sys.modules.get(name)
        if module is not None:
            versions[name] = getattr(module, "__version__", "unknown")
            continue
        try:
            versions[name] = importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:  # pragma: no cover
            pass
    return versions


def env_fingerprint() -> dict:
    """Everything about the host/configuration a report reader needs."""
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "packages": _package_versions(),
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        "solver_backend": _solver_backend(),
    }


def _solver_backend() -> dict:
    """Resolved spice solver backend and the threads one of its
    ensemble sweeps may use."""
    from repro.spice.backends import get_backend
    backend = get_backend()
    return {
        "resolved": backend.name,
        "threads": backend.thread_budget(),
    }


def build_report(target: str, argv: list[str] | None = None,
                 status: str = "ok", error: str | None = None,
                 duration_seconds: float | None = None) -> dict:
    """Assemble the report dict from the current telemetry registry."""
    from repro.runtime.cache import disk_stats, stats_snapshot
    try:
        disk = disk_stats()
    except OSError:                           # pragma: no cover - odd mounts
        disk = {}
    report = {
        "schema": SCHEMA_VERSION,
        "target": target,
        "argv": list(argv) if argv is not None else sys.argv[1:],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "status": status,
        "env": env_fingerprint(),
        "metrics": telemetry.metrics_snapshot(),
        "span_totals": telemetry.span_totals(),
        "span_tree": telemetry.span_tree(),
        "cache": {"session": stats_snapshot(), "disk": disk},
        "warnings": telemetry.warnings(),
    }
    if duration_seconds is not None:
        report["duration_seconds"] = round(duration_seconds, 6)
    if error is not None:
        report["error"] = error
    return report


def write_report(report: dict, path: str | Path | None = None) -> Path:
    """Write *report* as JSON; default path is timestamped under ``runs/``.

    The default filename couples the target name with a wall-clock stamp
    plus the PID, so concurrent runs never collide.
    """
    if path is None:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        name = f"{report.get('target', 'run')}-{stamp}-{os.getpid()}.json"
        path = default_runs_dir() / name
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return path


def latest_report_path(runs_dir: str | Path | None = None) -> Path | None:
    """The most recently modified report JSON, or None if there is none.

    Chrome traces (``<report>.trace.json``, written after their report)
    are not reports and are skipped.
    """
    root = Path(runs_dir) if runs_dir is not None else default_runs_dir()
    if not root.is_dir():
        return None
    candidates = [p for p in root.glob("*.json")
                  if p.is_file() and not p.name.endswith(".trace.json")]
    if not candidates:
        return None
    return max(candidates, key=lambda p: p.stat().st_mtime)


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def _render_span(node: dict, indent: int, lines: list[str]) -> None:
    lines.append(f"{'  ' * indent}{node['name']}  "
                 f"{_format_seconds(node.get('seconds', 0.0))}")
    for child in node.get("children", ()):
        _render_span(child, indent + 1, lines)


def format_report(report: dict) -> str:
    """Human-readable rendering of a run report (the ``report`` command)."""
    lines: list[str] = []
    target = report.get("target", "?")
    status = report.get("status", "?")
    lines.append(f"run report: {target} [{status}] "
                 f"at {report.get('timestamp', '?')}")
    if "duration_seconds" in report:
        lines.append(f"duration: {_format_seconds(report['duration_seconds'])}")
    if report.get("error"):
        lines.append(f"error: {report['error']}")

    env = report.get("env", {})
    if env:
        packages = ", ".join(f"{k} {v}"
                             for k, v in env.get("packages", {}).items())
        lines.append(f"python {env.get('python', '?')} on "
                     f"{env.get('platform', '?')}"
                     + (f"; {packages}" if packages else ""))
        knobs = env.get("repro_env", {})
        if knobs:
            lines.append("knobs: " + ", ".join(f"{k}={v}"
                                               for k, v in knobs.items()))

    tree = report.get("span_tree", [])
    if tree:
        lines.append("")
        lines.append("spans:")
        for root in tree:
            _render_span(root, 1, lines)

    totals = report.get("span_totals", {})
    if totals:
        lines.append("")
        lines.append("span totals (incl. workers):")
        ranked = sorted(totals.items(),
                        key=lambda kv: kv[1]["seconds"], reverse=True)
        for path, cell in ranked[:15]:
            lines.append(f"  {path}: {cell['count']}x "
                         f"{_format_seconds(cell['seconds'])}")

    metrics = report.get("metrics", {})
    counters = metrics.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"  {name}: {value}")
    timers = metrics.get("timers", {})
    if timers:
        lines.append("")
        lines.append("timers:")
        for name, cell in timers.items():
            lines.append(f"  {name}: {cell['calls']} calls, "
                         f"{_format_seconds(cell['seconds'])}")
    dists = metrics.get("distributions", {})
    if dists:
        lines.append("")
        lines.append("distributions:")
        for name, cell in dists.items():
            lines.append(f"  {name}: n={cell['count']} "
                         f"mean={cell['mean']:.3g} "
                         f"min={cell['min']:.3g} max={cell['max']:.3g}")

    cache = report.get("cache", {})
    session = cache.get("session", {})
    if session:
        lines.append("")
        lines.append(f"cache (session): {session.get('hits', 0)} hits, "
                     f"{session.get('misses', 0)} misses, "
                     f"{session.get('puts', 0)} puts")
    disk = cache.get("disk", {})
    if disk:
        for category, stats in disk.items():
            lines.append(f"cache (disk) {category}: "
                         f"{stats['entries']} entries, "
                         f"{stats['bytes'] / 1024:.1f} KiB")

    warns = report.get("warnings", [])
    if warns:
        lines.append("")
        lines.append("warnings:")
        for message in warns:
            lines.append(f"  - {message}")
    return "\n".join(lines)
