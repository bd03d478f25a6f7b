"""Instruction traces, stored structure-of-arrays.

A :class:`Trace` is canonically a set of packed NumPy arrays (class
codes, source/destination registers, branch outcomes and pattern keys,
L1-miss flags).  The array form is what the fast timing kernel and the
branch-predictor precomputation consume; the classic list-of-
:class:`~repro.core.isa.Instruction` view is materialised lazily for the
cycle-exact reference oracle and for tests that build tiny traces by
hand.

Traces are content-addressed: :meth:`Trace.fingerprint` hashes the
packed arrays, and the persistent result cache
(:mod:`repro.runtime.cache`) keys simulation results on it, so a sweep
re-run with identical traces skips simulation entirely.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Sequence

import numpy as np

from repro.core.isa import (
    CLASS_CODES,
    CODE_BRANCH,
    CODE_LOAD,
    CODE_TO_CLASS,
    NUM_ARCH_REGS,
    Instruction,
    InstrClass,
)
from repro.errors import ConfigError


class Trace:
    """A dynamic instruction stream plus provenance metadata.

    Construct either from a list of :class:`Instruction` (the historic
    API, used by tests and hand-built micro-traces) or from packed
    arrays via :meth:`from_arrays` (the trace generator's path).  Both
    views stay available; whichever was not supplied is derived lazily.
    """

    __slots__ = ("name", "_n", "_klass", "_src0", "_src1", "_dst",
                 "_taken", "_pattern_key", "_is_miss", "_instructions",
                 "_class_mix", "_branch_count", "_l1_miss_count",
                 "_fingerprint", "_packed_arrays",
                 "_branch_keys_taken", "_mispredict_flags",
                 "_mispredict_arrays")

    def __init__(self, name: str,
                 instructions: Sequence[Instruction] | None = None) -> None:
        self.name = name
        instructions = list(instructions) if instructions else []
        n = len(instructions)
        self._n = n
        self._instructions: list[Instruction] | None = instructions
        self._klass = np.fromiter(
            (CLASS_CODES[i.klass] for i in instructions),
            dtype=np.int8, count=n)
        self._src0 = np.fromiter((i.srcs[0] for i in instructions),
                                 dtype=np.int8, count=n)
        self._src1 = np.fromiter((i.srcs[1] for i in instructions),
                                 dtype=np.int8, count=n)
        self._dst = np.fromiter((i.dst for i in instructions),
                                dtype=np.int8, count=n)
        self._taken = np.fromiter((i.taken for i in instructions),
                                  dtype=bool, count=n)
        self._pattern_key = np.fromiter(
            (i.pattern_key for i in instructions), dtype=np.int64, count=n)
        self._is_miss = np.fromiter((i.is_miss for i in instructions),
                                    dtype=bool, count=n)
        self._init_caches()

    def _init_caches(self) -> None:
        self._class_mix: dict[InstrClass, float] | None = None
        self._branch_count: int | None = None
        self._l1_miss_count: int | None = None
        self._fingerprint: str | None = None
        self._packed_arrays: tuple | None = None
        self._branch_keys_taken: tuple[np.ndarray, np.ndarray] | None = None
        self._mispredict_flags: dict[int, list[bool]] = {}
        self._mispredict_arrays: dict[int, np.ndarray] = {}

    @classmethod
    def from_arrays(cls, name: str, *, klass: np.ndarray, src0: np.ndarray,
                    src1: np.ndarray, dst: np.ndarray, taken: np.ndarray,
                    pattern_key: np.ndarray, is_miss: np.ndarray) -> "Trace":
        """Build a trace directly from packed arrays (no Instruction list).

        Arrays must share one length; registers are validated against the
        architectural register file the way ``Instruction`` validates them.
        """
        trace = cls.__new__(cls)
        trace.name = name
        klass = np.asarray(klass, dtype=np.int8)
        n = len(klass)
        arrays = {
            "_src0": np.asarray(src0, dtype=np.int8),
            "_src1": np.asarray(src1, dtype=np.int8),
            "_dst": np.asarray(dst, dtype=np.int8),
            "_taken": np.asarray(taken, dtype=bool),
            "_pattern_key": np.asarray(pattern_key, dtype=np.int64),
            "_is_miss": np.asarray(is_miss, dtype=bool),
        }
        for attr, arr in arrays.items():
            if len(arr) != n:
                raise ConfigError(
                    f"trace {name!r}: array {attr[1:]!r} has length "
                    f"{len(arr)}, expected {n}")
        if n:
            if klass.min() < 0 or klass.max() >= len(CODE_TO_CLASS):
                raise ConfigError(f"trace {name!r}: bad class codes")
            for reg_attr in ("_src0", "_src1", "_dst"):
                arr = arrays[reg_attr]
                if arr.min() < -1 or arr.max() >= NUM_ARCH_REGS:
                    raise ConfigError(
                        f"trace {name!r}: register out of range in "
                        f"{reg_attr[1:]!r}")
        trace._n = n
        trace._klass = klass
        for attr, arr in arrays.items():
            setattr(trace, attr, arr)
        trace._instructions = None
        trace._init_caches()
        return trace

    # -- views ---------------------------------------------------------------

    @property
    def instructions(self) -> list[Instruction]:
        """The instruction-object view (materialised on first access)."""
        if self._instructions is None:
            self._instructions = [
                Instruction(klass=CODE_TO_CLASS[k],
                            srcs=(int(s0), int(s1)), dst=int(d),
                            taken=bool(t), pattern_key=int(pk),
                            is_miss=bool(m))
                for k, s0, s1, d, t, pk, m in zip(
                    self._klass.tolist(), self._src0.tolist(),
                    self._src1.tolist(), self._dst.tolist(),
                    self._taken.tolist(), self._pattern_key.tolist(),
                    self._is_miss.tolist())
            ]
        return self._instructions

    @property
    def klass_codes(self) -> np.ndarray:
        return self._klass

    @property
    def src0(self) -> np.ndarray:
        return self._src0

    @property
    def src1(self) -> np.ndarray:
        return self._src1

    @property
    def dst(self) -> np.ndarray:
        return self._dst

    @property
    def taken(self) -> np.ndarray:
        return self._taken

    @property
    def pattern_key(self) -> np.ndarray:
        return self._pattern_key

    @property
    def is_miss(self) -> np.ndarray:
        return self._is_miss

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    # -- cached statistics ---------------------------------------------------

    def class_mix(self) -> dict[InstrClass, float]:
        """Fraction of each instruction class (for trace validation).

        O(n) on first call, cached afterwards — validation layers call
        this repeatedly on the same trace.
        """
        if self._class_mix is None:
            if self._n == 0:
                self._class_mix = {}
            else:
                counts = np.bincount(self._klass,
                                     minlength=len(CODE_TO_CLASS))
                self._class_mix = {
                    CODE_TO_CLASS[code]: int(c) / self._n
                    for code, c in enumerate(counts.tolist()) if c
                }
        return dict(self._class_mix)

    def branch_count(self) -> int:
        """Number of dynamic branches (cached)."""
        if self._branch_count is None:
            self._branch_count = int((self._klass == CODE_BRANCH).sum())
        return self._branch_count

    def l1_miss_count(self) -> int:
        """Number of load L1 misses (cached).

        Only loads can miss; a stray ``is_miss`` flag on a non-load (a
        hand-built trace) is ignored, matching the timing model.
        """
        if self._l1_miss_count is None:
            self._l1_miss_count = int(
                (self._is_miss & (self._klass == CODE_LOAD)).sum())
        return self._l1_miss_count

    # -- content addressing ---------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash of the packed arrays (hex, 16 chars).

        Identifies the dynamic instruction stream — not the trace's
        display name — so caches keyed on it survive renames and process
        restarts but never conflate different streams.
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(str(self._n).encode())
            for arr in (self._klass, self._src0, self._src1, self._dst,
                        self._taken, self._pattern_key, self._is_miss):
                h.update(b"\x00")
                h.update(np.ascontiguousarray(arr).tobytes())
            self._fingerprint = h.hexdigest()[:16]
        return self._fingerprint

    # -- kernel-facing packed views -------------------------------------------

    def packed_arrays(self) -> tuple[np.ndarray, ...]:
        """(codes, src0, src1, dst, load_miss) as contiguous arrays.

        The compiled timing kernel reads these buffers directly (int8
        registers/codes, uint8 miss flags); built once per trace and
        shared by every config simulated on it.  ``load_miss`` is
        pre-masked to loads.
        """
        if self._packed_arrays is None:
            load_miss = (self._is_miss & (self._klass == CODE_LOAD))
            self._packed_arrays = tuple(
                np.ascontiguousarray(a) for a in (
                    self._klass, self._src0, self._src1, self._dst,
                    load_miss.astype(np.uint8)))
        return self._packed_arrays

    def mispredict_array(self, index_bits: int) -> np.ndarray:
        """:meth:`mispredict_flags` as a contiguous uint8 array (cached)."""
        arr = self._mispredict_arrays.get(index_bits)
        if arr is None:
            arr = np.asarray(self.mispredict_flags(index_bits),
                             dtype=np.uint8)
            self._mispredict_arrays[index_bits] = arr
        return arr

    def branch_stream(self) -> tuple[np.ndarray, np.ndarray]:
        """(pattern_keys, taken) restricted to branches, in trace order."""
        if self._branch_keys_taken is None:
            mask = self._klass == CODE_BRANCH
            self._branch_keys_taken = (self._pattern_key[mask],
                                       self._taken[mask])
        return self._branch_keys_taken

    def mispredict_flags(self, index_bits: int) -> list[bool]:
        """Gshare mispredict flags per branch, cached per predictor size.

        The predictor's outcome stream depends only on the trace and the
        table size — never on core timing — so it is computed once per
        ``(trace, index_bits)`` and reused by every configuration of a
        sweep (see :func:`repro.core.branch.gshare_mispredict_flags`).
        """
        flags = self._mispredict_flags.get(index_bits)
        if flags is None:
            from repro.core.branch import gshare_mispredict_flags
            keys, taken = self.branch_stream()
            flags = gshare_mispredict_flags(keys, taken, index_bits)
            self._mispredict_flags[index_bits] = flags
        return flags
