"""Check framework for the differential-validation subsystem.

A *check* is a named, seeded, self-contained function that either
returns a human-readable detail string (pass) or raises (fail —
:class:`CheckFailure` for an expected-vs-got mismatch, any other
exception for a broken check).  Checks register themselves with the
:func:`check` decorator and are discovered by the runner in
:mod:`repro.validate`; each belongs to one of three classes:

- ``differential`` — a fast path diffed against its oracle on
  randomized inputs (ensemble vs scalar SPICE, native vs reference IPC
  kernel, vector vs scalar STA, composed vs built block cell counts,
  warm vs cold cache);
- ``invariant`` — structural properties that must hold of characterised
  libraries and solver outputs (nonnegative monotone NLDM delays,
  round-trip exactness, ordered waveform crossings, serial==parallel
  telemetry);
- ``fault`` — seeded fault injection (:mod:`repro.validate.faults`)
  proving graceful degradation: crashes, corrupt cache entries,
  non-converging solves, missing toolchains.

Checks must leave no trace: any environment variable, module attribute
or process-wide cache they touch is restored before they return (use
:func:`swap_env` / :func:`swap_attr`), so check order never matters and
the validation run composes with the caller's configuration.
"""

from __future__ import annotations

import hashlib
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

KINDS = ("differential", "invariant", "fault")


class CheckFailure(AssertionError):
    """A validation check found a real mismatch (not a harness bug)."""


@dataclass(frozen=True)
class CheckContext:
    """Per-check inputs: the seed and the fast/full mode switch.

    Each check gets its *own* deterministic RNG streams derived from
    ``(seed, check name)``, so adding or re-ordering checks never
    perturbs another check's draws.
    """

    name: str
    seed: int
    fast: bool

    def rng(self) -> random.Random:
        return random.Random(self._stream_key())

    def np_rng(self) -> np.random.Generator:
        # Seeded from a digest, not hash(): str hashes are salted per
        # process, which would make every run draw differently.
        digest = hashlib.sha256(self._stream_key().encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def _stream_key(self) -> str:
        return f"{self.name}\x00{self.seed}"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check."""

    name: str
    kind: str
    ok: bool
    duration_seconds: float
    detail: str = ""
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "ok": self.ok,
            "duration_seconds": round(self.duration_seconds, 6),
            "detail": self.detail,
            "error": self.error,
        }


@dataclass(frozen=True)
class _Check:
    name: str
    kind: str
    fn: Callable[[CheckContext], str | None]
    fast: bool = True          # run in --fast mode (all checks run in --full)


_REGISTRY: list[_Check] = []


def check(name: str, kind: str, *, fast: bool = True):
    """Register a validation check function (decorator)."""
    if kind not in KINDS:
        raise ValueError(f"check kind must be one of {KINDS}, got {kind!r}")

    def decorator(fn: Callable[[CheckContext], str | None]):
        if any(c.name == name for c in _REGISTRY):
            raise ValueError(f"duplicate check name {name!r}")
        _REGISTRY.append(_Check(name=name, kind=kind, fn=fn, fast=fast))
        return fn

    return decorator


def registered_checks(fast: bool = True,
                      only: list[str] | None = None) -> list[_Check]:
    """Checks selected for a run, in registration order.

    Registration order is deterministic (module import order inside
    :mod:`repro.validate`); ``only`` filters by exact name.
    """
    import repro.validate.differential   # noqa: F401  (registers checks)
    import repro.validate.invariants     # noqa: F401
    import repro.validate.fault_checks   # noqa: F401

    checks = [c for c in _REGISTRY if c.fast or not fast]
    if only is not None:
        unknown = sorted(set(only) - {c.name for c in _REGISTRY})
        if unknown:
            raise ValueError(
                f"unknown check(s) {unknown}; available: "
                f"{sorted(c.name for c in _REGISTRY)}")
        checks = [c for c in checks if c.name in only]
    return checks


def expect(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailure` with *message* unless *condition*."""
    if not condition:
        raise CheckFailure(message)


def expect_close(got: float, want: float, *, rel: float = 1e-9,
                 abs_tol: float = 1e-15, label: str = "value") -> None:
    """Raise :class:`CheckFailure` unless ``got`` ≈ ``want``."""
    if not np.isclose(got, want, rtol=rel, atol=abs_tol):
        raise CheckFailure(
            f"{label}: got {got!r}, want {want!r} "
            f"(rel tol {rel:g}, abs tol {abs_tol:g})")


@contextmanager
def swap_env(**updates: str | None) -> Iterator[None]:
    """Temporarily set (value) or unset (None) environment variables."""
    saved = {k: os.environ.get(k) for k in updates}
    try:
        for k, v in updates.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


@contextmanager
def swap_attr(obj, name: str, value) -> Iterator[None]:
    """Temporarily replace ``obj.name`` with *value*."""
    saved = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, saved)
