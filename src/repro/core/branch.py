"""Branch predictors.

The mispredict penalty is the depth experiment's central IPC mechanism
("higher branch mispredict penalties", Section 5.3), so branches are
predicted by a real predictor rather than a fixed rate: mispredict rates
emerge from each workload's branch-pattern structure meeting the
predictor's capacity.
"""

from __future__ import annotations

from repro.errors import ConfigError


class _CounterTable:
    """A table of 2-bit saturating counters."""

    def __init__(self, index_bits: int) -> None:
        if not 4 <= index_bits <= 24:
            raise ConfigError(f"index_bits out of range: {index_bits}")
        self.index_bits = index_bits
        self.mask = (1 << index_bits) - 1
        self.table = bytearray([2] * (1 << index_bits))  # weakly taken

    def predict(self, index: int) -> bool:
        return self.table[index & self.mask] >= 2

    def update(self, index: int, taken: bool) -> None:
        i = index & self.mask
        c = self.table[i]
        if taken:
            if c < 3:
                self.table[i] = c + 1
        else:
            if c > 0:
                self.table[i] = c - 1


class GsharePredictor:
    """Global-history XOR PC indexed 2-bit counters (McFarling gshare)."""

    def __init__(self, index_bits: int = 12) -> None:
        self._table = _CounterTable(index_bits)
        self._history = 0
        self._history_mask = (1 << index_bits) - 1

    def predict_and_update(self, pc_key: int, taken: bool) -> bool:
        """Returns True if the prediction was CORRECT; updates state."""
        index = (pc_key ^ self._history) & self._history_mask
        pred = self._table.predict(index)
        self._table.update(index, taken)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        return pred == taken


def gshare_mispredict_flags(pattern_keys, taken, index_bits: int = 12
                            ) -> list[bool]:
    """Mispredict flag per branch for a whole branch stream, in order.

    The gshare outcome stream is a pure function of ``(pattern_keys,
    taken, index_bits)`` — core timing never feeds back into the
    predictor — so sweeps precompute it once per trace and reuse it
    across every configuration (see :meth:`repro.core.trace.Trace.
    mispredict_flags`).  Bit-identical to driving
    :class:`GsharePredictor` branch by branch.

    ``pattern_keys`` / ``taken`` accept any sequence (NumPy arrays
    included); returns a plain list for fast indexing from the timing
    kernel.
    """
    if not 4 <= index_bits <= 24:
        raise ConfigError(f"index_bits out of range: {index_bits}")
    mask = (1 << index_bits) - 1
    table = bytearray([2] * (1 << index_bits))  # weakly taken
    history = 0
    flags: list[bool] = []
    append = flags.append
    keys = pattern_keys.tolist() if hasattr(pattern_keys, "tolist") \
        else list(pattern_keys)
    outcomes = taken.tolist() if hasattr(taken, "tolist") else list(taken)
    for key, t in zip(keys, outcomes):
        index = (key ^ history) & mask
        counter = table[index]
        if t:
            if counter < 3:
                table[index] = counter + 1
            history = ((history << 1) | 1) & mask
            append(counter < 2)      # predicted not-taken -> mispredict
        else:
            if counter > 0:
                table[index] = counter - 1
            history = (history << 1) & mask
            append(counter >= 2)     # predicted taken -> mispredict
    return flags
