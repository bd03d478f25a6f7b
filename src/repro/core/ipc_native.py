"""The fast IPC timing kernel, compiled.

The timing recurrence (:func:`repro.core.superscalar._simulate_reference`)
is a few dozen integer operations per dynamic instruction; at sweep scale
(millions of instructions per figure) the CPython interpreter dominates
its runtime.  This module compiles the identical recurrence as a tiny C
function with whatever system compiler is already present (``cc`` /
``gcc`` / ``clang``) and calls it through :mod:`ctypes` on the trace's
packed arrays.

The kernel is strictly optional and silently gated:

- no compiler, a failed compile, or ``REPRO_NATIVE=0`` -> the reference
  loop runs instead (same results, just slower);
- the shared object is cached under ``REPRO_NATIVE_DIR`` (default
  ``~/.cache/repro/native``) keyed by a hash of the C source, so the
  compile cost is paid once per machine, not per run;
- the compiled kernel is checked cycle-exact against the reference loop
  (``tests/core/test_kernel_equivalence.py``).

Nothing is installed and no third-party build system is involved: the
source below is written to the cache directory and compiled with
``cc -O2 -shared -fPIC`` in one subprocess call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.core.isa import (
    CODE_LOAD,
    CODE_BRANCH,
    EXEC_LATENCY_BY_CODE,
    PIPE_OCCUPANCY_BY_CODE,
)
from repro.runtime import telemetry
from repro.runtime.log import get_logger

logger = get_logger(__name__)

#: Set to ``0`` to run the reference loop in place of the compiled kernel.
NATIVE_ENV = "REPRO_NATIVE"

#: Override the directory where compiled kernels are cached.
NATIVE_DIR_ENV = "REPRO_NATIVE_DIR"

_C_SOURCE = """
#include <stdint.h>

/* Cycle count of the greedy out-of-order schedule; the recurrence of
 * the reference loop in repro/core/superscalar.py (_simulate_reference)
 * over packed arrays, with the ROB/IQ/LSQ windows as rings.  Scratch
 * rings are allocated (zeroed) by the caller.
 *
 * stats (nullable, written on return):
 *   [0] applied fetch redirects (mispredicted branches whose resolve
 *       actually moved the fetch cursor) — same counting as the
 *       reference loop's ipc.fetch_redirects.
 */
long long repro_ipc_cycles(
    long long n,
    const int8_t *codes, const int8_t *src0, const int8_t *src1,
    const int8_t *dst, const uint8_t *miss, const uint8_t *mflags,
    long long front_width, long long frontend_depth,
    long long rob_size, long long iq_size, long long lsq_size,
    long long n_alu, long long code_load, long long code_branch,
    const long long *comp_add, const long long *occ, long long miss_extra,
    long long *retire_ring, long long *issue_ring, long long *mem_ring,
    long long *alu_free, long long *stats)
{
    long long redirects = 0;
    long long reg_ready[32] = {0};
    long long mem_free = 0, branch_free = 0;
    long long rp = 0, qp = 0, mp = 0;
    long long fetch_cycle = 0, fetch_fill = 0;
    long long last_retire = 0, retire_fill = 0, retire_cycle = -1;
    long long branch_idx = 0;

    for (long long i = 0; i < n; i++) {
        long long code = codes[i];

        /* fetch / front end + occupancy windows */
        if (fetch_fill >= front_width) { fetch_cycle += 1; fetch_fill = 0; }
        fetch_fill += 1;
        long long dispatch = fetch_cycle + frontend_depth;
        long long t = retire_ring[rp] + 1;
        if (t > dispatch) dispatch = t;
        t = issue_ring[qp] + 1;
        if (t > dispatch) dispatch = t;

        /* source readiness */
        long long ready = dispatch;
        long long s = src0[i];
        if (s >= 0 && reg_ready[s] > ready) ready = reg_ready[s];
        s = src1[i];
        if (s >= 0 && reg_ready[s] > ready) ready = reg_ready[s];

        /* structural issue + completion */
        long long issue, completion;
        if (code < code_load) {                    /* ALU / MUL / DIV */
            long long best = 0, best_free = alu_free[0];
            for (long long p = 1; p < n_alu; p++)
                if (alu_free[p] < best_free) { best = p; best_free = alu_free[p]; }
            issue = ready >= best_free ? ready : best_free;
            alu_free[best] = issue + occ[code];
            completion = issue + comp_add[code];
        } else if (code < code_branch) {           /* LOAD / STORE */
            t = mem_ring[mp] + 1;
            if (t > ready) ready = t;
            issue = ready >= mem_free ? ready : mem_free;
            mem_free = issue + 1;
            mem_ring[mp] = issue;
            if (++mp == lsq_size) mp = 0;
            completion = issue + comp_add[code] + (miss[i] ? miss_extra : 0);
        } else {                                   /* BRANCH */
            issue = ready >= branch_free ? ready : branch_free;
            branch_free = issue + 1;
            completion = issue + comp_add[code_branch];
            if (mflags[branch_idx]) {
                long long redirect = completion + 1;
                if (redirect > fetch_cycle) {
                    fetch_cycle = redirect; fetch_fill = 0; redirects++;
                }
            }
            branch_idx += 1;
        }

        long long d = dst[i];
        if (d >= 0) reg_ready[d] = completion;

        /* in-order retirement */
        long long retire = completion + 1;
        if (retire < last_retire) retire = last_retire;
        if (retire == retire_cycle && retire_fill >= front_width) {
            retire += 1;
            retire_fill = 0;
        }
        if (retire != retire_cycle) { retire_cycle = retire; retire_fill = 0; }
        retire_fill += 1;
        last_retire = retire;

        retire_ring[rp] = retire;
        issue_ring[qp] = issue;
        if (++rp == rob_size) rp = 0;
        if (++qp == iq_size) qp = 0;
    }
    if (stats) stats[0] = redirects;
    return last_retire + 1;
}
"""

# Load state: "unset" until the first request, then the bound ctypes
# function or None (unavailable).  Never retried within a process.
_STATE: list = ["unset"]


def native_dir() -> Path:
    """Directory holding compiled kernel objects."""
    override = os.environ.get(NATIVE_DIR_ENV)
    if override:
        return Path(override)
    try:
        return Path.home() / ".cache" / "repro" / "native"
    except RuntimeError:                           # no resolvable home
        return Path(tempfile.gettempdir()) / "repro-native"


def _find_compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _compile() -> Path | None:
    """Compile (or reuse) the kernel shared object; None on any failure."""
    tag = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    directory = native_dir()
    so_path = directory / f"ipc_kernel_{tag}.so"
    if so_path.exists():
        return so_path

    compiler = _find_compiler()
    if compiler is None:
        logger.warning(
            "no C compiler found; IPC simulation runs the reference "
            "loop (correct, but much slower)")
        return None
    try:
        directory.mkdir(parents=True, exist_ok=True)
        src_path = directory / f"ipc_kernel_{tag}.c"
        src_path.write_text(_C_SOURCE)
        with tempfile.NamedTemporaryFile(
                dir=directory, suffix=".so", delete=False) as tmp:
            tmp_path = Path(tmp.name)
        result = subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", str(tmp_path),
             str(src_path)],
            capture_output=True, text=True, timeout=120)
        if result.returncode != 0:
            logger.warning(
                "IPC kernel compile failed (%s); falling back to the "
                "reference loop:\n%s", compiler, result.stderr.strip())
            tmp_path.unlink(missing_ok=True)
            return None
        os.replace(tmp_path, so_path)              # atomic publish
        return so_path
    except OSError as exc:
        logger.warning(
            "IPC kernel build unavailable (%s); falling back to the "
            "reference loop", exc)
        return None


def _bind(so_path: Path):
    lib = ctypes.CDLL(str(so_path))
    fn = lib.repro_ipc_cycles
    ll = ctypes.c_longlong
    p_i8 = ctypes.POINTER(ctypes.c_int8)
    p_u8 = ctypes.POINTER(ctypes.c_uint8)
    p_ll = ctypes.POINTER(ll)
    fn.restype = ll
    fn.argtypes = [ll, p_i8, p_i8, p_i8, p_i8, p_u8, p_u8,
                   ll, ll, ll, ll, ll, ll, ll, ll,
                   p_ll, p_ll, ll, p_ll, p_ll, p_ll, p_ll, p_ll]
    return fn


def load_kernel():
    """The bound C kernel, or None when disabled/unavailable (cached)."""
    if _STATE[0] != "unset":
        return _STATE[0]
    if os.environ.get(NATIVE_ENV, "1") == "0":
        _STATE[0] = None
        return None
    so_path = _compile()
    if so_path is None:
        _STATE[0] = None
        return None
    try:
        _STATE[0] = _bind(so_path)
    except OSError as exc:                         # stale/foreign object
        logger.warning(
            "IPC kernel load failed (%s); falling back to the reference "
            "loop", exc)
        _STATE[0] = None
    return _STATE[0]


def native_available() -> bool:
    """True when the compiled kernel is (or can be made) loadable."""
    return load_kernel() is not None


def reset(state: str = "unset") -> None:
    """Forget the cached load state (tests toggle REPRO_NATIVE around this)."""
    _STATE[0] = state


_P_I8 = ctypes.POINTER(ctypes.c_int8)
_P_U8 = ctypes.POINTER(ctypes.c_uint8)
_P_LL = ctypes.POINTER(ctypes.c_longlong)
_OCC = np.asarray(PIPE_OCCUPANCY_BY_CODE, dtype=np.int64)


def native_cycles(config, trace) -> int | None:
    """Cycle count via the compiled kernel, or None when unavailable.

    Reads the trace's packed arrays and the mispredict flags
    precomputed per ``(trace, predictor_bits)``.  Scratch ring buffers
    for the ROB/IQ/LSQ occupancy windows are allocated zeroed here: an
    unwarmed slot reads as ``t = 1``, and ``dispatch >= frontend_depth
    >= 4`` makes that comparison a no-op, so the reference loop's
    ``idx >= window`` warm-up guards can be dropped.
    """
    kernel = load_kernel()
    if kernel is None:
        return None

    codes, src0, src1, dsts, miss = trace.packed_arrays()
    mflags = trace.mispredict_array(config.predictor_bits)

    base = config.issue_to_execute + config.execute_latency - 1
    comp_add = np.asarray(
        [base + lat for lat in EXEC_LATENCY_BY_CODE], dtype=np.int64)
    comp_add[CODE_LOAD] += config.l1_hit_latency
    miss_extra = config.l1_miss_latency - config.l1_hit_latency

    retire_ring = np.zeros(config.rob_size, dtype=np.int64)
    issue_ring = np.zeros(config.iq_size, dtype=np.int64)
    mem_ring = np.zeros(config.lsq_size, dtype=np.int64)
    alu_free = np.zeros(config.alu_pipes, dtype=np.int64)
    stats = np.zeros(1, dtype=np.int64)

    cycles = int(kernel(
        len(codes),
        codes.ctypes.data_as(_P_I8), src0.ctypes.data_as(_P_I8),
        src1.ctypes.data_as(_P_I8), dsts.ctypes.data_as(_P_I8),
        miss.ctypes.data_as(_P_U8), mflags.ctypes.data_as(_P_U8),
        config.front_width, config.frontend_depth,
        config.rob_size, config.iq_size, config.lsq_size,
        config.alu_pipes, CODE_LOAD, CODE_BRANCH,
        comp_add.ctypes.data_as(_P_LL), _OCC.ctypes.data_as(_P_LL),
        miss_extra,
        retire_ring.ctypes.data_as(_P_LL), issue_ring.ctypes.data_as(_P_LL),
        mem_ring.ctypes.data_as(_P_LL), alu_free.ctypes.data_as(_P_LL),
        stats.ctypes.data_as(_P_LL)))
    if telemetry.ENABLED and stats[0]:
        telemetry.count("ipc.fetch_redirects", int(stats[0]))
    return cycles
