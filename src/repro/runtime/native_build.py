"""Compile-once builds of the optional C kernels.

The SPICE solver kernel (:mod:`repro.spice.backends.native`) and the IPC
timing kernel (:mod:`repro.core.ipc_native`) share one recipe: write the
C source next to its shared object under :func:`native_dir`, compile it
with whatever system compiler exists (``cc``/``gcc``/``clang``), publish
the ``.so`` atomically, bind it through :mod:`ctypes`, and degrade to
the caller's Python path on any failure.  The object's file name hashes
the source, the flags and, for a ``-march=native`` build, the host CPU
(:func:`host_cpu_id`), so none of them can change under a stale binary.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from logging import Logger
from pathlib import Path
from typing import Any, Callable

#: Set to ``0`` to leave every compiled kernel unloaded.
NATIVE_ENV = "REPRO_NATIVE"

#: Override the directory where compiled kernels are cached.
NATIVE_DIR_ENV = "REPRO_NATIVE_DIR"


def native_dir() -> Path:
    """Directory holding compiled kernel objects."""
    override = os.environ.get(NATIVE_DIR_ENV)
    if override:
        return Path(override)
    try:
        return Path.home() / ".cache" / "repro" / "native"
    except RuntimeError:                           # no resolvable home
        return Path(tempfile.gettempdir()) / "repro-native"


def find_compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def host_cpu_id() -> str:
    """The host CPU's instruction-set identity: the ``flags`` (x86) or
    ``Features`` (Arm) line of ``/proc/cpuinfo``, else ``platform``'s
    machine and processor names.  A home directory shared by hosts with
    different CPUs then keeps one kernel per CPU instead of loading one
    that dies with SIGILL."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() in ("flags", "Features"):
                    return " ".join(sorted(value.split()))
    except OSError:
        pass
    import platform
    return f"{platform.machine()}|{platform.processor()}"


class Kernel:
    """One optional C kernel, compiled and bound on first use and never
    retried within a process.

    *flag_sets* are tried in order (e.g. with and without
    ``-march=native``, which needs *per_cpu*); *bind* turns the shared
    object's path into the bound entry points.  Warnings name the kernel
    (*what*) and the path the caller takes instead (*fallback*).
    """

    def __init__(self, stem: str, source: str, flag_sets: list[list[str]],
                 bind: Callable[[Path], Any], *, what: str, fallback: str,
                 logger: Logger, per_cpu: bool = False) -> None:
        self.stem, self.source, self.flag_sets = stem, source, flag_sets
        self.bind, self.what, self.fallback = bind, what, fallback
        self.logger, self.per_cpu = logger, per_cpu
        self.state: Any = "unset"

    def compile(self) -> Path | None:
        """Compile (or reuse) the shared object; None on any failure."""
        key = repr(self.flag_sets) + (host_cpu_id() if self.per_cpu else "")
        tag = hashlib.sha256((self.source + key).encode()).hexdigest()[:16]
        so_path = native_dir() / f"{self.stem}_{tag}.so"
        if so_path.exists():
            return so_path
        compiler = find_compiler()
        if compiler is None:
            self.logger.warning("no C compiler found; %s (correct, but "
                                "slower)", self.fallback)
            return None
        try:
            so_path.parent.mkdir(parents=True, exist_ok=True)
            src_path = so_path.with_suffix(".c")
            src_path.write_text(self.source)
            with tempfile.NamedTemporaryFile(
                    dir=so_path.parent, suffix=".so", delete=False) as tmp:
                tmp_path = Path(tmp.name)
            for flags in self.flag_sets:
                result = subprocess.run(
                    [compiler, *flags, "-o", str(tmp_path), str(src_path),
                     "-lm"],
                    capture_output=True, text=True, timeout=120)
                if result.returncode == 0:
                    os.replace(tmp_path, so_path)  # atomic publish
                    return so_path
            self.logger.warning("%s compile failed (%s); %s:\n%s", self.what,
                                compiler, self.fallback,
                                result.stderr.strip())
            tmp_path.unlink(missing_ok=True)
        except OSError as exc:
            self.logger.warning("%s build unavailable (%s); %s", self.what,
                                exc, self.fallback)
        return None

    def load(self) -> Any:
        """The bound entry points, or None when disabled or unavailable."""
        if self.state == "unset":
            self.state = None
            if os.environ.get(NATIVE_ENV, "1") != "0":
                so_path = self.compile()
                try:
                    if so_path is not None:
                        self.state = self.bind(so_path)
                except OSError as exc:             # stale/foreign object
                    self.logger.warning("%s load failed (%s); %s", self.what,
                                        exc, self.fallback)
        return self.state

    def reset(self, state: Any = "unset") -> None:
        """Forget the load state (tests toggle ``REPRO_NATIVE`` around it)."""
        self.state = state
