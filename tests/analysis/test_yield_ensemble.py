"""Batched Monte Carlo (VTC ensembles) vs the scalar per-sample path.

The sample set is drawn up front from the seeded generator and chunks
are sized by ``runtime.ENSEMBLE_BATCH`` alone, so the yield numbers must
be independent of both the worker count and whether batching is on.
"""

import numpy as np
import pytest

from repro import runtime
from repro.analysis.yield_mc import noise_margin_yield, perturb_cell
from repro.cells.topologies import pseudo_e_inverter
from repro.cells.vtc import compute_vtc, compute_vtc_batch
from repro.devices.pentacene import PENTACENE
from repro.devices.variation import VariationModel


@pytest.fixture(scope="module")
def base_cell():
    return pseudo_e_inverter(PENTACENE, vdd=15.0, vss=-15.0,
                             w_drive=100e-6, w_shift_load=10e-6,
                             l_shift_load=100e-6, w_up=100e-6,
                             w_down=50e-6)


def test_vtc_batch_matches_scalar(base_cell):
    rng = np.random.default_rng(7)
    cells = [perturb_cell(base_cell, VariationModel(), rng)
             for _ in range(5)]
    curves = compute_vtc_batch(cells, n_points=41)
    for cell, curve in zip(cells, curves):
        assert curve is not None
        scalar = compute_vtc(cell, n_points=41)
        np.testing.assert_allclose(curve.vout, scalar.vout,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(curve.power, scalar.power,
                                   rtol=1e-9, atol=1e-18)


def test_yield_matches_scalar_path(base_cell, monkeypatch):
    monkeypatch.setattr(runtime, "ENSEMBLE", False)
    scalar = noise_margin_yield(base_cell, n_samples=10, seed=3)
    monkeypatch.setattr(runtime, "ENSEMBLE", True)
    batched = noise_margin_yield(base_cell, n_samples=10, seed=3)
    assert batched.n_converged == scalar.n_converged
    np.testing.assert_allclose(batched.noise_margins,
                               scalar.noise_margins, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(batched.vm_values, scalar.vm_values,
                               rtol=1e-9, atol=1e-12)


def test_yield_deterministic_across_worker_counts(base_cell, monkeypatch):
    monkeypatch.setattr(runtime, "ENSEMBLE_BATCH", 4)
    monkeypatch.setenv("REPRO_WORKERS", "1")
    serial = noise_margin_yield(base_cell, n_samples=12, seed=5)
    monkeypatch.setenv("REPRO_WORKERS", "3")
    fanned = noise_margin_yield(base_cell, n_samples=12, seed=5)
    np.testing.assert_array_equal(serial.noise_margins,
                                  fanned.noise_margins)
    np.testing.assert_array_equal(serial.vm_values, fanned.vm_values)
    assert serial.n_converged == fanned.n_converged
