"""Solver backends for the spice engines.

:func:`get_backend` resolves once per process: the compiled
:class:`~repro.spice.backends.native.NativeBackend` when its kernel
loads (a C compiler or a cached build, and ``REPRO_NATIVE`` not ``0``),
else the pure-NumPy reference
(:class:`~repro.spice.backends.numpy_ref.NumpyBackend`), which also
defines the backend contract and is the oracle of the equivalence
suites.

Tests and ``validate`` reach the oracle in code:
``reset_backend(NumpyBackend())`` pins an instance until the next
:func:`reset_backend` call.  A pin reaches fork-started workers only;
anything that crosses processes uses ``REPRO_NATIVE=0``.
"""

from __future__ import annotations

from repro.spice.backends.numpy_ref import EnsembleNewtonRequest, NumpyBackend
from repro.spice.backends.native import NativeBackend

__all__ = [
    "EnsembleNewtonRequest", "NumpyBackend", "NativeBackend",
    "get_backend", "reset_backend",
]

# Resolved (or pinned) singleton; None until the first get_backend() call.
_CURRENT: list[NumpyBackend | None] = [None]


def get_backend() -> NumpyBackend:
    """The process-wide solver backend: native if its kernel loads."""
    if _CURRENT[0] is None:
        native = NativeBackend()
        _CURRENT[0] = native if native.available() else NumpyBackend()
    return _CURRENT[0]


def reset_backend(backend: NumpyBackend | None = None) -> None:
    """Pin *backend*, or with None re-resolve on the next call."""
    _CURRENT[0] = backend
