"""Both stock libraries, built from scratch, against the recorded digests.

``benchmarks/e2e/reference.json`` records, per solver key, the digest of
every operation of the end-to-end benchmark, including the organic and
silicon library builds.  These tests rebuild both libraries with no
cache and compare their canonical digests, so any change to a single bit
of any NLDM table (combinational arcs, the flip-flop's clk->q grid and
setup time, leakage) fails tier-1 on the key the host resolves to.

The native key runs in tier-1.  The numpy key takes ~30 s and is marked
``slow``; CI runs it under ``REPRO_NATIVE=0``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e.canon import digest
from repro.cells.library_def import (organic_library_definition,
                                     silicon_library_definition)
from repro.characterization.harness import characterize_library
from repro.devices.tft_level61 import StackedTftParams
from repro.spice.backends import get_backend

REFERENCE = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" \
    / "reference.json"

LIBRARIES = {"organic_library": organic_library_definition,
             "silicon_library": silicon_library_definition}


def _check(backend: str, key: str) -> None:
    if get_backend().name != backend:
        pytest.skip(f"the {key} digests need the {backend} backend")
    recorded = json.loads(REFERENCE.read_text())[key]
    for op, definition in LIBRARIES.items():
        library = characterize_library(definition(), use_cache=False)
        assert digest(library) == recorded[op], op


def test_libraries_match_native_reference():
    _check("native", "native/fast-native")


@pytest.mark.slow
def test_libraries_match_numpy_reference():
    _check("numpy", "numpy/fast-python")


def test_native_parameter_tables_stack_every_device(monkeypatch):
    """Each ensemble's native parameter table, one member packed and
    tiled when every member shares it, equals the stack of all B x n
    devices' parameters, bit for bit, over both stock-library builds."""
    if get_backend().name != "native":
        pytest.skip("the parameter tables belong to the native backend")
    from repro.spice.backends import native

    tiled = []
    real_init = native._NativePrep.__init__

    def checked_init(self, es):
        real_init(self, es)
        batch = es.fet_batch
        stacked = np.ascontiguousarray(np.stack(
            [getattr(batch.params, f) for f in StackedTftParams._FIELDS],
            axis=1), dtype=np.float64)
        assert self.par.tobytes() == stacked.tobytes()
        tiled.append(batch.member_params is not None)

    monkeypatch.setattr(native._NativePrep, "__init__", checked_init)
    for definition in LIBRARIES.values():
        characterize_library(definition(), use_cache=False)
    assert tiled and any(tiled)
