"""Runtime-selectable solver backends for the spice engines.

``REPRO_BACKEND`` picks the linear-algebra core once per process:

``auto`` (default)
    The compiled :class:`~repro.spice.backends.native.NativeBackend`
    when a C compiler (or a cached kernel build) is available, else the
    pure-NumPy reference.
``numpy``
    The pure-NumPy reference
    (:class:`~repro.spice.backends.numpy_ref.NumpyBackend`), which also
    defines the backend contract and is the oracle of the equivalence
    suites.
``native``
    Force the compiled kernel; when the build fails the process warns
    once and runs on the reference backend instead (correct, slower).

Any other name logs a warning and resolves like ``auto``.  Resolution
happens lazily on the first :func:`get_backend` call and is cached;
tests flip the environment and call :func:`reset_backend`.
"""

from __future__ import annotations

import os

from repro.runtime.log import get_logger
from repro.spice.backends.numpy_ref import EnsembleNewtonRequest, NumpyBackend
from repro.spice.backends.native import NativeBackend

__all__ = [
    "EnsembleNewtonRequest", "NumpyBackend", "NativeBackend",
    "get_backend", "reset_backend",
]

logger = get_logger(__name__)

_BACKENDS = {
    "numpy": NumpyBackend,
    "native": NativeBackend,
}

# Resolved singleton; "unset" until the first get_backend() call.
_CURRENT: list = ["unset"]


def _resolve(requested: str) -> NumpyBackend:
    name = requested.strip().lower() or "auto"
    if name == "auto":
        native = NativeBackend()
        return native if native.available() else NumpyBackend()
    cls = _BACKENDS.get(name)
    if cls is None:
        logger.warning(
            "unknown REPRO_BACKEND=%r (choose auto|%s); using auto",
            requested, "|".join(sorted(_BACKENDS)))
        return _resolve("auto")
    backend = cls()
    if not backend.available():
        # native.load_kernel already warned once with the build details.
        logger.warning(
            "REPRO_BACKEND=%s is unavailable on this machine; running on "
            "the pure-NumPy reference backend", name)
        return NumpyBackend()
    return backend


def get_backend() -> NumpyBackend:
    """The process-wide solver backend (resolved once, from REPRO_BACKEND)."""
    if _CURRENT[0] == "unset":
        _CURRENT[0] = _resolve(os.environ.get("REPRO_BACKEND", "auto"))
    return _CURRENT[0]


def reset_backend() -> None:
    """Forget the resolved backend so the next call re-reads the env."""
    _CURRENT[0] = "unset"
