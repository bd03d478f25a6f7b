"""Live progress heartbeats: phase, completed/total units, ETA.

Long runs — library characterisation (hundreds of arcs), the
1008-point DSE grid — were silent until done.  This module is the streaming seam: drivers declare a
*phase* with a unit total, tick it as units complete, and heartbeats
flow to two outputs:

- **stderr**, when library logging is at INFO or finer (the ``-v``
  CLI flag) — one rewritten status line per phase
  (``[dse] 412/1008 41% eta 0.8s``), throttled to a few per second;
- an **ndjson stream file**, when ``REPRO_PROGRESS=PATH`` names one —
  one JSON object per heartbeat (``{"event", "phase", "done",
  "total", "eta_seconds", "elapsed_seconds", "t", "pid"}``),
  append-only so a tail-following consumer can stream it live.

Cost model matches :mod:`repro.runtime.telemetry`: every call site is
one module-attribute load and branch while disabled, and heartbeats
are rate-limited (``begin``/``end`` and the final unit always emit).
Phases nest (a DSE combo inside the sweep); emission happens in the
*parent* process only — workers tick nothing, the parent ticks once
per completed task as results arrive — so the stream is append-ordered
and free of interleaving.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "ENABLED",
    "PROGRESS_ENV",
    "Phase",
    "begin",
    "end",
    "phase",
    "refresh",
    "stream_path",
    "update",
]

#: Hot-path guard: call sites only do work when this is True.  Kept in
#: sync with the two outputs by :func:`refresh`.
ENABLED = False

#: Environment variable naming the ndjson stream file.
PROGRESS_ENV = "REPRO_PROGRESS"

#: Minimum seconds between throttled heartbeats of one phase.
_MIN_INTERVAL = 0.2

_stderr_wanted = False          # set by repro.runtime.log.configure()
_stream: io.IOBase | None = None
_stream_pid: int | None = None
_stream_failed = False


def stream_path() -> str | None:
    """The ndjson sink path (``REPRO_PROGRESS``), or None."""
    return os.environ.get(PROGRESS_ENV) or None


def set_stderr(wanted: bool) -> None:
    """Ask for (or retract) stderr heartbeats; called by log.configure."""
    global _stderr_wanted
    _stderr_wanted = bool(wanted)
    refresh()


def refresh() -> None:
    """Re-derive :data:`ENABLED` from the env knob and logging level."""
    global ENABLED
    ENABLED = _stderr_wanted or stream_path() is not None


def _open_stream() -> io.IOBase | None:
    """The ndjson stream fd, (re)opened per process.

    A forked pool worker inherits the parent's open file *object*,
    including its userspace buffer: writes from both processes through
    that shared buffer interleave mid-record and duplicate whatever was
    buffered at fork time.  Keying the stream on ``os.getpid()`` makes
    each process open its own ``O_APPEND`` fd, and records are written
    unbuffered, one :func:`os.write` per line, so concurrent emitters
    only ever interleave *whole* lines.
    """
    global _stream, _stream_pid, _stream_failed
    path = stream_path()
    if path is None or _stream_failed:
        return None
    pid = os.getpid()
    if _stream is None or _stream.name != path or _stream_pid != pid:
        if _stream is not None and _stream_pid == pid:
            try:
                _stream.close()
            except OSError:                  # pragma: no cover - best effort
                pass
        _stream = None
        try:
            _stream = open(path, "ab", buffering=0)
        except OSError:
            _stream_failed = True
            return None
        _stream_pid = pid
    return _stream


class Phase:
    """One progress phase: a named unit counter with an optional total."""

    __slots__ = ("name", "total", "done", "t0", "_last_emit", "_closed")

    def __init__(self, name: str, total: int | None) -> None:
        self.name = name
        self.total = int(total) if total is not None else None
        self.done = 0
        self.t0 = time.perf_counter()
        self._last_emit = 0.0
        self._closed = False

    # -- ticking -------------------------------------------------------------

    def step(self, n: int = 1) -> None:
        """Mark *n* more units complete and maybe emit a heartbeat."""
        self.done += n
        self._emit("tick")

    def set_done(self, done: int) -> None:
        """Set the absolute completed-unit count."""
        self.done = int(done)
        self._emit("tick")

    # -- emission ------------------------------------------------------------

    def _eta(self) -> float | None:
        if not self.total or self.done <= 0:
            return None
        elapsed = time.perf_counter() - self.t0
        remaining = max(0, self.total - self.done)
        return elapsed / self.done * remaining

    def _emit(self, event: str) -> None:
        now = time.perf_counter()
        final = (event != "tick"
                 or (self.total is not None and self.done >= self.total))
        if not final and now - self._last_emit < _MIN_INTERVAL:
            return
        self._last_emit = now
        elapsed = now - self.t0
        eta = self._eta()
        if _stderr_wanted:
            frac = (f" {100 * self.done // self.total:3d}%"
                    if self.total else "")
            eta_s = f" eta {eta:.1f}s" if eta is not None else ""
            total_s = f"/{self.total}" if self.total is not None else ""
            end_ch = "\n" if event == "end" else "\r"
            try:
                sys.stderr.write(f"[{self.name}] {self.done}{total_s}"
                                 f"{frac}{eta_s}   {end_ch}")
                sys.stderr.flush()
            except OSError:                  # pragma: no cover - closed pipe
                pass
        stream = _open_stream()
        if stream is not None:
            record: dict = {
                "event": event,
                "phase": self.name,
                "done": self.done,
                "elapsed_seconds": round(elapsed, 4),
                "t": round(time.time(), 3),
                "pid": os.getpid(),
            }
            if self.total is not None:
                record["total"] = self.total
            if eta is not None:
                record["eta_seconds"] = round(eta, 3)
            try:
                # One os.write per record (the fd is unbuffered and
                # O_APPEND): lines from concurrent processes never tear.
                stream.write((json.dumps(record) + "\n").encode())
            except OSError:                  # pragma: no cover - full disk
                pass


def begin(name: str, total: int | None = None) -> Phase | None:
    """Open a progress phase (None while disabled)."""
    if not ENABLED:
        return None
    ph = Phase(name, total)
    ph._emit("begin")
    return ph


def update(ph: Phase | None, n: int = 1) -> None:
    """Tick *n* completed units on *ph* (no-op for None)."""
    if ph is not None:
        ph.step(n)


def end(ph: Phase | None) -> None:
    """Close a phase, emitting the final heartbeat."""
    if ph is None or ph._closed:
        return
    ph._closed = True
    ph._emit("end")


@contextmanager
def phase(name: str, total: int | None = None) -> Iterator[Phase | None]:
    """``with progress.phase("dse", total=n) as ph: ... ph.step()``."""
    ph = begin(name, total)
    try:
        yield ph
    finally:
        end(ph)


if stream_path() is not None:               # pragma: no cover - env driven
    ENABLED = True
