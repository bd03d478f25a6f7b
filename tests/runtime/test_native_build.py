"""Compile-once kernel builds: cache keys, fallbacks and retries."""

import logging
import subprocess
import tempfile
from pathlib import Path

import pytest

from repro.core import ipc_native
from repro.runtime import native_build
from repro.spice.backends import native as spice_native


@pytest.fixture
def fake_cc(monkeypatch, tmp_path):
    """A compiler that writes an empty object and records its commands;
    it fails any command holding *fail_flag*."""
    commands = []
    fail_flag = []

    def run(cmd, **_kwargs):
        commands.append(cmd)
        if any(flag in cmd for flag in fail_flag):
            return subprocess.CompletedProcess(cmd, 1, "", "unsupported")
        Path(cmd[cmd.index("-o") + 1]).write_bytes(b"")
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setenv(native_build.NATIVE_DIR_ENV, str(tmp_path))
    monkeypatch.setattr(native_build, "find_compiler", lambda: "cc")
    monkeypatch.setattr(native_build.subprocess, "run", run)
    return commands, fail_flag


def test_spice_kernel_is_keyed_on_the_host_cpu(monkeypatch, fake_cc):
    commands, _ = fake_cc
    paths = []
    for cpu in ("fpu sse2 avx2", "fpu sse2", "fpu sse2 avx2"):
        monkeypatch.setattr(native_build, "host_cpu_id", lambda: cpu)
        paths.append(spice_native._KERNEL.compile())
    assert paths[0] != paths[1]
    assert paths[2] == paths[0]
    assert all(p.exists() for p in paths)
    assert len(commands) == 2                     # the third was cached
    assert "-march=native" in commands[0] and "-pthread" in commands[0]


def test_portable_ipc_kernel_ignores_the_host_cpu(monkeypatch, fake_cc):
    commands, _ = fake_cc
    monkeypatch.setattr(native_build, "host_cpu_id", lambda: "a")
    first = ipc_native._KERNEL.compile()
    monkeypatch.setattr(native_build, "host_cpu_id", lambda: "b")
    assert ipc_native._KERNEL.compile() == first
    assert len(commands) == 1


def test_failed_native_flags_retry_portable(fake_cc, tmp_path):
    commands, fail_flag = fake_cc
    fail_flag.append("-march=native")
    so_path = spice_native._KERNEL.compile()
    assert so_path is not None and so_path.exists()
    assert len(commands) == 2
    assert "-march=native" not in commands[1] and "-pthread" in commands[1]
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".c", ".so"]


def test_compile_failure_warns_once_and_loads_nothing(fake_cc, caplog,
                                                     monkeypatch):
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    commands, fail_flag = fake_cc
    fail_flag.append("-shared")
    kernel = native_build.Kernel(
        "probe", "int f(void) { return 0; }", [["-shared"], ["-shared"]],
        bind=lambda path: path, what="probe kernel", fallback="using Python",
        logger=logging.getLogger("repro.probe"))
    assert kernel.load() is None and kernel.load() is None
    assert len(commands) == 2                     # both flag sets, once
    warnings = [r.getMessage() for r in caplog.records]
    assert len(warnings) == 1 and "probe kernel compile failed" in warnings[0]


def test_unresolvable_home_falls_back_to_a_temp_directory(monkeypatch):
    def no_home(cls):
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.delenv(native_build.NATIVE_DIR_ENV, raising=False)
    monkeypatch.setattr(Path, "home", classmethod(no_home))
    assert native_build.native_dir() == \
        Path(tempfile.gettempdir()) / "repro-native"


def test_host_cpu_id_is_stable_and_nonempty():
    assert native_build.host_cpu_id()
    assert native_build.host_cpu_id() == native_build.host_cpu_id()
