"""Live progress heartbeats: phase, completed/total units, ETA.

Long runs — library characterisation (hundreds of arcs), the
1008-point DSE grid — were silent until done.  This module is the
streaming seam: drivers declare a *phase* with a unit total, tick it as
units complete, and, when library logging is at INFO or finer (the
``-v`` CLI flag), each phase rewrites one status line on stderr
(``[dse] 412/1008 41% eta 0.8s``), throttled to a few per second.

Cost model matches :mod:`repro.runtime.telemetry`: every call site is
one module-attribute load and branch while disabled, and heartbeats
are rate-limited (``begin``/``end`` and the final unit always emit).
Phases nest (a DSE combo inside the sweep); a :func:`parallel_map
<repro.runtime.executor.parallel_map>` phase is ticked by the *parent*
once per completed task as results arrive, never by its workers.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "ENABLED",
    "Phase",
    "begin",
    "end",
    "phase",
    "set_stderr",
    "update",
]

#: Hot-path guard: call sites only do work when this is True.  Set by
#: :func:`set_stderr`.
ENABLED = False

#: Minimum seconds between throttled heartbeats of one phase.
_MIN_INTERVAL = 0.2


def set_stderr(wanted: bool) -> None:
    """Turn stderr heartbeats on or off; called by log.configure."""
    global ENABLED
    ENABLED = bool(wanted)


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

    def step(self, n: int = 1) -> None:
        """Mark *n* more units complete and maybe emit a heartbeat."""
        self.done += n
        self._emit("tick")

    def _eta(self) -> float | None:
        if not self.total or self.done <= 0:
            return None
        elapsed = time.perf_counter() - self.t0
        remaining = max(0, self.total - self.done)
        return elapsed / self.done * remaining

    def _emit(self, event: str) -> None:
        if not ENABLED:
            return
        now = time.perf_counter()
        final = (event != "tick"
                 or (self.total is not None and self.done >= self.total))
        if not final and now - self._last_emit < _MIN_INTERVAL:
            return
        self._last_emit = now
        eta = self._eta()
        frac = f" {100 * self.done // self.total:3d}%" if self.total else ""
        eta_s = f" eta {eta:.1f}s" if eta is not None else ""
        total_s = f"/{self.total}" if self.total is not None else ""
        end_ch = "\n" if event == "end" else "\r"
        try:
            sys.stderr.write(f"[{self.name}] {self.done}{total_s}"
                             f"{frac}{eta_s}   {end_ch}")
            sys.stderr.flush()
        except OSError:                      # pragma: no cover - closed pipe
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
