"""Persistent content-addressed result cache.

Expensive, deterministic stages — library characterisation (hundreds of
transistor-level transients) and trace simulation (tens of thousands of
recurrence steps per config) — memoise their results here so re-running
a sweep or regenerating figures after the first run skips straight to
the answers.

Entries are content-addressed: the caller hashes *everything the result
depends on* (device-model parameters and the NLDM grid for libraries;
the config timing signature and the trace fingerprint for simulations)
into a key with :meth:`ResultCache.key`, and stores a JSON-serialisable
payload under ``<root>/<category>/<key>.json``.  Any input change
produces a different key, so stale hits are impossible by construction
— invalidation is just a miss.

Environment knobs:

- ``REPRO_CACHE_DIR`` — cache root (default
  ``~/.cache/repro-biodegradable``, shared with the historic library
  cache);
- ``REPRO_CACHE=0`` — disable reads *and* writes (every lookup misses,
  nothing is stored); any other value, or unset, leaves it enabled.
- ``REPRO_CACHE_FSYNC=1`` — additionally ``fsync`` each entry before
  publishing it (off by default).

Writes are atomic (temp file + ``os.replace``) so concurrent sweep
workers can share a cache directory and a crash mid-write never leaves
a truncated entry under the final name; corrupt entries are dropped and
treated as misses.  Because a torn or lost entry is therefore *safe*
(it degrades to a recomputation, never a wrong result), the per-entry
``fsync`` is opt-in: a cold 1000-point sweep writes thousands of small
entries and the fsyncs were costing more than the JSON encoding.  Set
``REPRO_CACHE_FSYNC=1`` to trade that speed for power-loss durability.

Every :class:`ResultCache` also feeds process-wide hit/miss/byte
counters (:func:`stats_snapshot`); ``python -m repro cache-stats``
reports them together with the on-disk entry counts per category.  With
:mod:`repro.runtime.telemetry` enabled the same events additionally
flow into per-category registry counters
(``cache.hit.<category>`` / ``cache.miss.<category>`` /
``cache.put.<category>`` plus ``cache.bytes_read`` /
``cache.bytes_written``), which worker processes ship back to the
parent — so a run report's cache section covers the whole process tree.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

from repro.runtime import telemetry

__all__ = [
    "ResultCache",
    "default_cache",
    "default_cache_root",
    "disk_stats",
    "reset_stats",
    "stats_snapshot",
]

#: Process-wide counters, accumulated across every ResultCache instance
#: (sweep helpers construct caches freshly per call, so instance counters
#: alone would vanish with them).
_STATS = {"hits": 0, "misses": 0, "puts": 0,
          "bytes_read": 0, "bytes_written": 0}


def stats_snapshot() -> dict[str, int]:
    """Copy of the process-wide cache counters."""
    return dict(_STATS)


def reset_stats() -> None:
    """Zero the process-wide cache counters (used by tests and the CLI)."""
    for k in _STATS:
        _STATS[k] = 0


def disk_stats(root: str | Path | None = None) -> dict[str, dict[str, int]]:
    """On-disk ``{category: {"entries": n, "bytes": b}}`` under *root*."""
    root = Path(root) if root is not None else default_cache_root()
    out: dict[str, dict[str, int]] = {}
    if not root.is_dir():
        return out
    for directory in sorted(d for d in root.iterdir() if d.is_dir()):
        entries = 0
        size = 0
        for entry in directory.glob("*.json"):
            try:
                size += entry.stat().st_size
                entries += 1
            except OSError:
                continue
        out[directory.name] = {"entries": entries, "bytes": size}
    return out

#: Category directory names must stay filesystem-friendly.
_SAFE_CATEGORY = set("abcdefghijklmnopqrstuvwxyz0123456789_-")


def default_cache_root() -> Path:
    """Cache root: ``REPRO_CACHE_DIR`` or ``~/.cache/repro-biodegradable``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-biodegradable"


def cache_enabled() -> bool:
    """False iff ``REPRO_CACHE`` is set to ``0`` (or ``false``/``off``)."""
    return os.environ.get("REPRO_CACHE", "1").lower() not in ("0", "false",
                                                              "off")


class ResultCache:
    """A directory of content-addressed JSON results.

    ``root=None`` resolves ``REPRO_CACHE_DIR`` at construction time;
    ``enabled=None`` resolves ``REPRO_CACHE``.  A disabled cache is a
    null object: :meth:`get` always misses, :meth:`put` is a no-op —
    callers never branch on the flag themselves.
    """

    def __init__(self, root: str | Path | None = None,
                 enabled: bool | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.enabled = cache_enabled() if enabled is None else bool(enabled)
        self.hits = 0
        self.misses = 0

    # -- keys -----------------------------------------------------------------

    @staticmethod
    def key(material: Any) -> str:
        """Content hash (hex) of *material*.

        *material* is anything JSON can canonicalise (dicts are
        sorted; non-JSON leaves fall back to ``repr``).  Include every
        input the result depends on — and a schema version when the
        payload layout may evolve.
        """
        blob = json.dumps(material, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:32]

    # -- paths ----------------------------------------------------------------

    def path_for(self, category: str, key: str) -> Path:
        if not category or not set(category) <= _SAFE_CATEGORY:
            raise ValueError(f"bad cache category {category!r}")
        return self.root / category / f"{key}.json"

    # -- access ---------------------------------------------------------------

    @telemetry.timed("solver.cache")
    def get(self, category: str, key: str) -> Any | None:
        """The stored payload, or None on miss/disabled/corrupt entry."""
        if not self.enabled:
            return None
        path = self.path_for(category, key)
        try:
            text = path.read_text()
            payload = json.loads(text)
        except FileNotFoundError:
            self.misses += 1
            _STATS["misses"] += 1
            if telemetry.ENABLED:
                telemetry.count(f"cache.miss.{category}")
            return None
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            # Corrupt / truncated entry: drop it and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            _STATS["misses"] += 1
            if telemetry.ENABLED:
                telemetry.count(f"cache.miss.{category}")
            return None
        self.hits += 1
        _STATS["hits"] += 1
        _STATS["bytes_read"] += len(text)
        if telemetry.ENABLED:
            telemetry.count(f"cache.hit.{category}")
            telemetry.count("cache.bytes_read", len(text))
        return payload

    @telemetry.timed("solver.cache")
    def put(self, category: str, key: str, payload: Any) -> Path | None:
        """Store *payload* atomically; returns its path (None if disabled)."""
        if not self.enabled:
            return None
        path = self.path_for(category, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                blob = json.dumps(payload)
                handle.write(blob)
                handle.flush()
                # Atomicity comes from the rename alone; fsync-before-
                # publish only buys durability across power loss, and a
                # lost entry is just a future miss — so it is opt-in
                # (REPRO_CACHE_FSYNC=1) rather than a per-entry tax on
                # every cold sweep write.
                if os.environ.get("REPRO_CACHE_FSYNC", "") == "1":
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _STATS["puts"] += 1
        _STATS["bytes_written"] += len(blob)
        if telemetry.ENABLED:
            telemetry.count(f"cache.put.{category}")
            telemetry.count("cache.bytes_written", len(blob))
        return path

    def clear(self, category: str | None = None) -> int:
        """Delete entries (one category, or everything); returns the count."""
        removed = 0
        if category is not None:
            dirs = [self.root / category]
        elif self.root.is_dir():
            dirs = [d for d in self.root.iterdir() if d.is_dir()]
        else:
            dirs = []
        for directory in dirs:
            if not directory.is_dir():
                continue
            for entry in directory.glob("*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


def default_cache() -> ResultCache:
    """A cache on the default root, honouring the environment knobs.

    Constructed fresh on every call (construction is cheap and re-reads
    the environment, which tests and sweep workers mutate)."""
    return ResultCache()
