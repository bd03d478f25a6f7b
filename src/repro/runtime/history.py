"""Run-history store and regression analytics over ``runs/`` reports.

``BENCH_perf.json`` is a single published snapshot; this module is the
run-over-run memory.  Every report :func:`repro.runtime.report.
write_report` lands is summarised into an **append-only ndjson index**
(one JSON object per line, ``history.ndjson`` next to the reports),
keyed by an **environment fingerprint hash** so wall-clock numbers are
only ever compared within one machine identity (python x machine x cpu
count x solver backend).

On top of the index sit the ``python -m repro perf`` analytics:

- ``list`` — recent runs (target, status, duration, env key);
- ``diff A B`` — span/benchmark/duration deltas between two reports,
  flagging rows beyond a relative threshold;
- ``trend NAME`` — one benchmark's seconds across the index, env-keyed.

The perf gate against the published baseline is ``run_bench --check``.

The index is a cache of the reports, not a source of truth: a missing
index reads as empty, and a corrupt or unparseable line is skipped,
never fatal.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.runtime import report as run_report

__all__ = [
    "append_entry",
    "default_history_path",
    "diff_reports",
    "env_key",
    "format_diff",
    "index_entry",
    "load_entries",
    "resolve_report",
]

#: Relative slowdown beyond which ``perf diff`` flags a row.
DIFF_THRESHOLD = 0.10

#: Absolute floor below which timing deltas are scheduler noise.
MIN_SECONDS = 0.002


def default_history_path() -> Path:
    """``history.ndjson`` beside the run reports (``REPRO_RUNS_DIR``)."""
    return run_report.default_runs_dir() / "history.ndjson"


def env_key(env: dict) -> str:
    """Short stable hash of the machine identity a report ran on.

    Only fields that make wall-clock numbers comparable participate:
    interpreter version, machine architecture, CPU count, and the
    resolved solver backend.  Cache knobs deliberately do not — those
    are per-run configuration, visible in the report.
    """
    identity = {
        "python": env.get("python", "?"),
        "machine": env.get("machine", "?"),
        "cpu_count": env.get("cpu_count", "?"),
        "backend": env.get("solver_backend", {}).get("resolved", "?"),
    }
    digest = hashlib.sha256(
        json.dumps(identity, sort_keys=True).encode()).hexdigest()
    return digest[:12]


def index_entry(report: dict, path: str | Path) -> dict:
    """The one-line index summary of a written report."""
    env = report.get("env", {})
    entry = {
        "path": str(path),
        "target": report.get("target", "?"),
        "timestamp": report.get("timestamp"),
        "status": report.get("status", "?"),
        "env_key": env_key(env),
        "backend": env.get("solver_backend", {}).get("resolved"),
        "schema": report.get("schema"),
    }
    if "duration_seconds" in report:
        entry["duration_seconds"] = report["duration_seconds"]
    benches = report.get("benchmarks")
    if isinstance(benches, dict):
        entry["benchmarks"] = {
            name: cell.get("seconds") for name, cell in benches.items()
            if isinstance(cell, dict) and cell.get("seconds") is not None}
    return entry


def _append_line(path: Path, line: bytes) -> None:
    """Append *line* to *path* as one ``os.write`` on an ``O_APPEND`` fd.

    Concurrent appenders (several CLI or benchmark processes sharing
    one history index) must never interleave partial lines.  Buffered ``open(...,
    "a")`` writes tear once an entry outgrows the IO buffer — the
    flush splits it into several ``write(2)`` calls and another
    process's line can land between them.  A single ``os.write`` on an
    ``O_APPEND`` descriptor is atomic for regular files on every
    platform we run on; where that guarantee is shaky (network
    filesystems) the advisory lock below serialises writers, and is
    quietly skipped where unsupported.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666)
    try:
        try:
            import fcntl
            fcntl.flock(fd, fcntl.LOCK_EX)
        except (ImportError, OSError):
            pass                       # O_APPEND atomicity is the fallback
        os.write(fd, line)
    finally:
        os.close(fd)                   # also releases the advisory lock


def append_entry(report: dict, path: str | Path,
                 history_path: str | Path | None = None) -> Path | None:
    """Append the report's index line; best-effort (None on failure).

    The line is emitted whole, via :func:`_append_line`, so index files
    shared by concurrent processes stay parseable line-by-line.
    """
    hist = Path(history_path) if history_path is not None \
        else default_history_path()
    line = (json.dumps(index_entry(report, path), sort_keys=False)
            + "\n").encode()
    try:
        hist.parent.mkdir(parents=True, exist_ok=True)
        _append_line(hist, line)
    except OSError:
        return None
    return hist


def load_entries(history_path: str | Path | None = None) -> list[dict]:
    """All parseable index lines, oldest first (corrupt lines skipped)."""
    hist = Path(history_path) if history_path is not None \
        else default_history_path()
    entries: list[dict] = []
    try:
        text = hist.read_text()
    except OSError:
        return entries
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict):
            entries.append(entry)
    return entries


def resolve_report(ref: str,
                   history_path: str | Path | None = None) -> tuple[Path, dict]:
    """A report path + parsed dict from a path or a history reference.

    *ref* may be a report JSON path, an index ordinal (``-1`` = most
    recent entry, ``-2`` the one before, ...), or a substring matched
    against indexed report paths (most recent match wins).
    """
    candidate = Path(ref)
    if candidate.is_file():
        return candidate, json.loads(candidate.read_text())
    entries = load_entries(history_path)
    try:
        ordinal = int(ref)
    except ValueError:
        ordinal = None
    if ordinal is not None and ordinal < 0 and len(entries) >= -ordinal:
        path = Path(entries[ordinal]["path"])
        return path, json.loads(path.read_text())
    for entry in reversed(entries):
        if ref in entry.get("path", ""):
            path = Path(entry["path"])
            return path, json.loads(path.read_text())
    raise FileNotFoundError(
        f"no report matches {ref!r} (not a file, ordinal, or indexed "
        f"path substring; index: {Path(history_path) if history_path else default_history_path()})")


# -- diff ---------------------------------------------------------------------

def _bench_seconds(report: dict) -> dict[str, float]:
    benches = report.get("benchmarks", {})
    out = {}
    if isinstance(benches, dict):
        for name, cell in benches.items():
            seconds = cell.get("seconds") if isinstance(cell, dict) else cell
            if isinstance(seconds, (int, float)):
                out[name] = float(seconds)
    return out


def _span_seconds(report: dict) -> dict[str, float]:
    return {path: cell.get("seconds", 0.0)
            for path, cell in report.get("span_totals", {}).items()}


def diff_reports(a: dict, b: dict, threshold: float = DIFF_THRESHOLD,
                 min_seconds: float = MIN_SECONDS) -> dict:
    """Structured delta between two run reports (A = before, B = after).

    Rows cover total duration, per-benchmark seconds, and per-path span
    totals; a row is *flagged* when B is slower than A by more than
    *threshold* (relative) **and** *min_seconds* (absolute).  Counter
    deltas ride along unflagged — integers differ for structural
    reasons, not perf noise.
    """
    rows: list[dict] = []

    def add(kind: str, name: str, va: float | None, vb: float | None) -> None:
        if va is None or vb is None:
            rows.append({"kind": kind, "name": name, "a": va, "b": vb,
                         "flagged": False, "note": "only in one run"})
            return
        delta = vb - va
        ratio = vb / va if va else None
        flagged = bool(delta > min_seconds and va > 0
                       and delta / va > threshold)
        rows.append({"kind": kind, "name": name, "a": round(va, 6),
                     "b": round(vb, 6), "delta": round(delta, 6),
                     "ratio": round(ratio, 4) if ratio is not None else None,
                     "flagged": flagged})

    da, db = a.get("duration_seconds"), b.get("duration_seconds")
    if da is not None or db is not None:
        add("duration", "total", da, db)
    bench_a, bench_b = _bench_seconds(a), _bench_seconds(b)
    for name in sorted(set(bench_a) | set(bench_b)):
        add("benchmark", name, bench_a.get(name), bench_b.get(name))
    span_a, span_b = _span_seconds(a), _span_seconds(b)
    for name in sorted(set(span_a) | set(span_b)):
        va, vb = span_a.get(name), span_b.get(name)
        if (va or 0.0) < min_seconds and (vb or 0.0) < min_seconds:
            continue                      # both below the noise floor
        add("span", name, va, vb)

    counters_a = a.get("metrics", {}).get("counters", {})
    counters_b = b.get("metrics", {}).get("counters", {})
    counter_deltas = {
        name: counters_b.get(name, 0) - counters_a.get(name, 0)
        for name in sorted(set(counters_a) | set(counters_b))
        if counters_b.get(name, 0) != counters_a.get(name, 0)}

    env_match = env_key(a.get("env", {})) == env_key(b.get("env", {}))
    return {
        "rows": rows,
        "flags": [r for r in rows if r["flagged"]],
        "counter_deltas": counter_deltas,
        "env_match": env_match,
        "threshold": threshold,
    }


def format_diff(diff: dict, verbose: bool = False) -> str:
    """Human-readable rendering of :func:`diff_reports` output."""
    lines: list[str] = []
    if not diff["env_match"]:
        lines.append("note: environment fingerprints differ — wall-clock "
                     "deltas are not meaningful across machines")
    shown = [r for r in diff["rows"]
             if verbose or r["flagged"] or r["kind"] in ("duration",
                                                         "benchmark")]
    for row in shown:
        if row.get("note"):
            lines.append(f"  {row['kind']:<10} {row['name']}: "
                         f"{row['a']} -> {row['b']} ({row['note']})")
            continue
        mark = "  ** FLAG" if row["flagged"] else ""
        ratio = f" ({row['ratio']:.2f}x)" if row.get("ratio") else ""
        lines.append(f"  {row['kind']:<10} {row['name']}: "
                     f"{row['a']:.4f}s -> {row['b']:.4f}s{ratio}{mark}")
    flags = diff["flags"]
    if flags:
        lines.append(f"{len(flags)} row(s) flagged beyond "
                     f"{diff['threshold']:.0%} slowdown")
    else:
        lines.append("clean: no row slower beyond "
                     f"{diff['threshold']:.0%}")
    if verbose and diff["counter_deltas"]:
        lines.append("counter deltas:")
        for name, delta in diff["counter_deltas"].items():
            lines.append(f"  {name}: {delta:+d}")
    return "\n".join(lines)
