"""Parent side of the benchmark: build, spawn children, score one run.

One run of a workload is a few child processes started one after the
other, so at most one benchmark process computes at a time.  A workload
that needs a fresh interpreter per iteration gets one timed child per
iteration, back to back (a closed loop with one caller), until the
timed iterations add up to the requested seconds and there are at
least :data:`MIN_ITERATIONS` of them.  Every other workload gets
set-up-only children first (untraced runs only), so that the run has
:data:`SETUP_SAMPLES` set-up times, and then one timed child that loops
until the requested seconds are used.

A run's ``iteration_s`` is the sum, over the operations of an
iteration, of each operation's median time across the run's
iterations; ``setup_s`` is the median set-up time.  Both are at the
reference host speed (see :mod:`benchmarks.e2e.child`).

Each child gets private ``REPRO_CACHE_DIR``, ``REPRO_RUNS_DIR``,
``REPRO_HISTORY`` and ``TMPDIR`` under the run's scratch directory, and
``REPRO_NATIVE_DIR`` pointing at the compiled kernels of this source
tree.  Every other ``REPRO_*`` variable is removed, so the program runs
with its own defaults, worker count included.

Everything the benchmark writes stays under ``.bench_build/e2e`` at the
repository root.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.e2e.child import at_reference_speed, sum_of_op_medians
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "e2e"
REFERENCE = HERE / "reference.json"

SETUP_SAMPLES = 3
#: Fewest timed iterations of a run, for workloads of one iteration per
#: child (untraced runs only).
MIN_ITERATIONS = 3
#: A run gives up on its children after this many seconds.
RUN_DEADLINE_S = 150.0
#: Selection knobs ``reference`` passes through, so references can be
#: recorded for a host that resolves other kernels.
KERNEL_KNOBS = ("REPRO_BACKEND", "REPRO_NATIVE", "REPRO_IPC_KERNEL")


class CheckoutError(RuntimeError):
    """The benchmark is not running inside a full source checkout."""


def check_checkout() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no program source at {SRC / 'repro'}; run the "
                            f"benchmark from a full checkout")


def source_tag() -> str:
    """Hash of the program source: builds are kept per source tree."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def load_reference() -> dict[str, dict[str, str]]:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


# -- children -----------------------------------------------------------------

def child_env(scratch: Path, cache_dir: Path, native_dir: Path,
              passthrough: tuple[str, ...] = ()) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") or k in passthrough}
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    path = [str(SRC), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env.update(PYTHONPATH=os.pathsep.join(path), TMPDIR=str(tmp),
               REPRO_CACHE_DIR=str(cache_dir),
               REPRO_RUNS_DIR=str(scratch / "runs"),
               REPRO_HISTORY=str(scratch / "runs" / "history.ndjson"),
               REPRO_NATIVE_DIR=str(native_dir))
    return env


def spawn(spec: dict, env: dict[str, str], scratch: Path,
          timeout: float) -> tuple[dict | None, float, str | None]:
    """Run one child; returns (result, spawn time, error)."""
    result_path = scratch / f"result-{time.monotonic_ns()}.json"
    spec = {**spec, "result": str(result_path)}
    log_path = scratch / "child.log"
    spawned_at = time.time()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.child", json.dumps(spec)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log,
            stderr=log)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, spawned_at, f"child timed out after {timeout:.0f} s"
    if code != 0 or not result_path.is_file():
        tail = log_path.read_text(errors="replace")[-2000:]
        return None, spawned_at, f"child exited with {code}:\n{tail}"
    return json.loads(result_path.read_text()), spawned_at, None


# -- build --------------------------------------------------------------------

def ensure_native(tag: str) -> Path:
    """Compile the program's C kernels for this source tree (once)."""
    native = BUILD / tag / "native"
    stamp = native / ".built"
    if stamp.is_file():
        return native
    for old in BUILD.glob("*"):
        if old.name != tag:
            shutil.rmtree(old, ignore_errors=True)
    native.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BUILD) as scratch:
        env = child_env(Path(scratch), Path(scratch) / "cache", native)
        subprocess.run(
            [sys.executable, "-c",
             "from repro.core import ipc_native\n"
             "from repro.spice.backends import native\n"
             "ipc_native.load_kernel(); native.load_kernel()"],
            cwd=ROOT, env=env, check=True, timeout=600,
            stdin=subprocess.DEVNULL)
    stamp.write_text(tag)
    return native


# -- one run ------------------------------------------------------------------

def _spec(workload: str, seed: int, seconds: float, scratch: Path,
          setup_only: bool = False, trace_path: Path | None = None) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "scratch": str(scratch), "setup_only": setup_only,
            "trace": trace_path is not None,
            "trace_path": str(trace_path) if trace_path else None}


class RunRecord:
    """Op accounting, digests and timings gathered from a run's children."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.simulated: dict[str, int] = {}
        self.iterations: list[float] = []
        #: Op name -> its time in each iteration, at reference speed.
        self.op_seconds: dict[str, list[float]] = {}
        self.setups: list[float] = []
        self.rss_mb: list[float] = []
        self.per_layer: dict[str, list] = {}
        self.kernels: str | None = None

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)

    def add(self, result: dict | None, error: str | None,
            reference: dict | None) -> None:
        """Score one child's ops and keep its timings.

        ``reference=None`` records digests without checking them."""
        if error is not None or result is None:
            self.fail(error or "no result")
            return
        self.kernels = f"{result['backend']}/{result['ipc_kernel']}"
        expected = None if reference is None else \
            reference.get(self.kernels, {})
        for iteration in result["iterations"]:
            self.iterations.append(iteration["seconds"])
            for op in iteration["ops"]:
                self.attempted += 1
                name, got = op["name"], op.get("digest")
                self.op_seconds.setdefault(name, []).append(
                    op["ref_seconds"])
                problem = op.get("error")
                if problem is None and expected is not None:
                    want = expected.get(name)
                    if want is None:
                        problem = f"no reference digest for {self.kernels}"
                    elif want != got:
                        problem = f"digest {got} != reference {want}"
                if problem is None and self.digests.get(name, got) != got:
                    problem = f"digest {got} differs between iterations"
                if problem is not None:
                    self.failed += 1
                    self.errors.append(f"{name}: {problem}")
                else:
                    self.digests[name] = got
        self.simulated.update(result.get("simulated", {}))
        self.rss_mb.append(result["peak_rss_kb"] / 1024.0)
        self.per_layer.update(result.get("per_layer", {}))

    def metrics(self) -> dict[str, tuple[float, str]]:
        if self.per_layer:
            return {k: (v[0], v[1]) for k, v in self.per_layer.items()}
        if not self.op_seconds:
            return {}
        return {"iteration_s": (sum_of_op_medians(self.op_seconds), "s"),
                "setup_s": (statistics.median(self.setups), "s"),
                "peak_rss_mb": (statistics.median(self.rss_mb), "MB")}


def run_once(workload: str, seed: int, seconds: float,
             trace_path: Path | None = None, check: bool = True,
             passthrough: tuple[str, ...] = ()) -> RunRecord:
    """One run of *workload*: set-up samples, then timed children.

    With ``check=False`` the output digests are recorded, not checked
    against ``reference.json``.
    """
    check_checkout()
    reference = load_reference() if check else None
    wl = WORKLOADS[workload]
    record = RunRecord()
    tag = source_tag()
    native = ensure_native(tag)
    deadline = time.monotonic() + RUN_DEADLINE_S
    with tempfile.TemporaryDirectory(dir=BUILD / tag,
                                     prefix="run-") as run_dir:
        run_dir = Path(run_dir)
        count = 0

        def child(setup_only: bool) -> None:
            nonlocal count
            count += 1
            scratch = run_dir / f"child-{count}"
            spec = _spec(workload, seed, seconds - sum(record.iterations),
                         scratch, setup_only,
                         None if setup_only else trace_path)
            env = child_env(scratch, scratch / "cache", native, passthrough)
            result, spawned_at, error = spawn(
                spec, env, scratch, deadline - time.monotonic())
            if result is not None:
                record.setups.append(at_reference_speed(
                    result["ready_at"] - spawned_at, result["setup_probe_s"]))
            if not setup_only:
                record.add(result, error, reference)
            elif error is not None:
                record.fail(f"set-up: {error}")
            shutil.rmtree(scratch, ignore_errors=True)

        if trace_path is None and not wl.one_per_process:
            for _ in range(SETUP_SAMPLES - 1):
                child(setup_only=True)
        while True:
            before = len(record.iterations)
            child(setup_only=False)
            done = (sum(record.iterations) >= seconds
                    and len(record.iterations) >= MIN_ITERATIONS)
            if (trace_path is not None or not wl.one_per_process
                    or len(record.iterations) == before or done
                    or time.monotonic() >= deadline):
                break
    return record
