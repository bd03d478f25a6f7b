"""Unified logging configuration for CLIs and library diagnostics.

Library modules (:mod:`repro.runtime.executor`,
:mod:`repro.core.ipc_native`, ...) log through standard per-module
loggers under the ``repro`` namespace and never configure handlers —
that is an application decision.  This module is the one place the
applications (``python -m repro``, ``run_bench.py``) make it:

- :func:`configure` installs a single stream handler with a consistent
  ``LEVEL module: message`` format on the ``repro`` root logger,
  mapping ``-v`` counts and ``--log-level`` names to levels;
- :func:`add_cli_flags` / :func:`configure_from_args` wire the standard
  ``-v/--verbose`` and ``--log-level`` flags into any argparse-based
  entry point;
- :func:`capture_warnings` additionally tees WARNING-and-above records
  into :func:`repro.runtime.telemetry.warn`, so run reports list every
  degradation (serial fallback, failed kernel compile) the run hit.

The level comes from the arguments alone.  Library users set the
``repro`` logger's level themselves or call :func:`configure`.
"""

from __future__ import annotations

import argparse
import logging
import sys

__all__ = ["add_cli_flags", "capture_warnings", "configure",
           "configure_from_args", "get_logger"]

#: The namespace every library logger lives under.
ROOT = "repro"

_FORMAT = "%(levelname)s %(name)s: %(message)s"


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` namespace (accepts dotted suffixes)."""
    if name == ROOT or name.startswith(ROOT + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT}.{name}")


def _resolve_level(level: str | int | None, verbose: int) -> int:
    if isinstance(level, int):
        return level
    if level:
        resolved = logging.getLevelName(str(level).upper())
        if isinstance(resolved, int):
            return resolved
        raise ValueError(f"unknown log level {level!r}")
    if verbose >= 2:
        return logging.DEBUG
    if verbose == 1:
        return logging.INFO
    return logging.WARNING


class _StderrHandler(logging.StreamHandler):
    """Writes to the *current* ``sys.stderr``.

    Binding the stream at emit time (instead of handler construction)
    keeps the handler valid when the surrounding environment swaps
    ``sys.stderr`` out and back — pytest's capture does exactly that.
    """

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value) -> None:               # StreamHandler protocol
        pass


def configure(level: str | int | None = None, verbose: int = 0,
              stream=None) -> logging.Logger:
    """Install (or update) the ``repro`` handler and set the level.

    Idempotent: repeated calls reuse the existing handler rather than
    stacking duplicates, so tests and REPL users can reconfigure freely.
    Records still propagate to the root logger, so log-capture tooling
    (pytest's ``caplog``) keeps working after a CLI configured logging.
    """
    logger = logging.getLogger(ROOT)
    logger.setLevel(_resolve_level(level, verbose))
    # Progress heartbeats ride the same verbosity dial: INFO or finer
    # turns the stderr status lines on (see repro.runtime.progress).
    from repro.runtime import progress
    progress.set_stderr(logger.level <= logging.INFO)
    handler = next((h for h in logger.handlers
                    if getattr(h, "_repro_handler", False)), None)
    if handler is not None and stream is not None:
        logger.removeHandler(handler)
        handler = None
    if handler is None:
        handler = (_StderrHandler() if stream is None
                   else logging.StreamHandler(stream))
        handler._repro_handler = True
        handler.setFormatter(logging.Formatter(_FORMAT))
        logger.addHandler(handler)
    return logger


class _TelemetryHandler(logging.Handler):
    """Tees WARNING+ records into the telemetry registry's warning list."""

    def emit(self, record: logging.LogRecord) -> None:
        from repro.runtime import telemetry
        try:
            telemetry.warn(f"{record.name}: {record.getMessage()}")
        except Exception:                          # pragma: no cover
            self.handleError(record)


def capture_warnings() -> logging.Handler:
    """Route ``repro`` warnings into the run report; returns the handler.

    Safe to call repeatedly (one capture handler is kept installed).
    """
    logger = logging.getLogger(ROOT)
    for h in logger.handlers:
        if isinstance(h, _TelemetryHandler):
            return h
    handler = _TelemetryHandler(level=logging.WARNING)
    logger.addHandler(handler)
    return handler


def add_cli_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the standard ``-v/--verbose`` and ``--log-level`` flags."""
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v: info, -vv: debug diagnostics")
    parser.add_argument("--log-level", default=None,
                        metavar="LEVEL",
                        help="explicit log level name (overrides -v)")


def configure_from_args(args: argparse.Namespace) -> logging.Logger:
    """Apply :func:`configure` from parsed :func:`add_cli_flags` flags."""
    return configure(level=getattr(args, "log_level", None),
                     verbose=getattr(args, "verbose", 0))
