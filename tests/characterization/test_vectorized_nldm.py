"""Acceptance check: NLDM tables from the forced-vectorized MNA path match
the scalar path to 1e-9 relative.

Both runs use the same transient controller settings, so any divergence
would come from the batched device evaluation / stamping itself.
"""

from __future__ import annotations

import numpy as np

from repro.cells.library_def import organic_library_definition
from repro.characterization import harness
from repro.spice import mna


def _characterize_inv(monkeypatch, min_fets: int):
    # The auto cutoff decides every MnaSystem built without an explicit
    # ``vectorized=``: 1 batches every model group, a huge value none.
    monkeypatch.setattr(mna, "VECTORIZE_MIN_FETS", min_fets)
    defn = organic_library_definition()
    grid = harness.default_grid(defn)
    return harness.characterize_cell(defn.cell("inv"), grid,
                                     area=defn.cell_area("inv"))


def test_nldm_vectorized_matches_scalar(monkeypatch):
    scalar = _characterize_inv(monkeypatch, 10**9)
    batched = _characterize_inv(monkeypatch, 1)

    assert scalar.leakage != 0
    np.testing.assert_allclose(batched.leakage, scalar.leakage, rtol=1e-9)
    for arc_s, arc_b in zip(scalar.arcs, batched.arcs):
        assert arc_s.input_pin == arc_b.input_pin
        assert arc_s.output_transition == arc_b.output_transition
        np.testing.assert_allclose(arc_b.delay.values, arc_s.delay.values,
                                   rtol=1e-9, err_msg="delay table")
        np.testing.assert_allclose(arc_b.transition.values,
                                   arc_s.transition.values,
                                   rtol=1e-9, err_msg="slew table")
