"""Batched Monte Carlo (VTC ensembles) vs the scalar per-sample path.

The sample set is drawn up front from the seeded generator and chunks
are sized by ``runtime.ENSEMBLE_BATCH`` alone, so the yield numbers must
be independent of the worker count and match a per-sample scalar
``compute_vtc`` of the same instances.
"""

import numpy as np
import pytest

from repro import runtime
from repro.analysis.yield_mc import noise_margin_yield, perturb_cell
from repro.cells.topologies import pseudo_e_inverter
from repro.cells.vtc import (
    compute_vtc,
    compute_vtc_batch,
    noise_margin_mec,
    switching_threshold,
)
from repro.devices.pentacene import PENTACENE
from repro.devices.variation import VariationModel
from repro.errors import AnalysisError, ConvergenceError


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


def _scalar_yield_samples(base_cell, n_samples, seed):
    """Per-sample scalar VTCs of the instances ``noise_margin_yield``
    draws: (noise margins with losses as 0, VMs of converged samples)."""
    rng = np.random.default_rng(seed)
    instances = [perturb_cell(base_cell, VariationModel(), rng)
                 for _ in range(n_samples)]
    margins, vms = [], []
    for instance in instances:
        try:
            curve = compute_vtc(instance, n_points=61)
            vm, margin = switching_threshold(curve), noise_margin_mec(curve)
        except (ConvergenceError, AnalysisError):
            margins.append(0.0)     # a non-inverting instance is a loss
            continue
        vms.append(vm)
        margins.append(margin)
    return np.asarray(margins), np.asarray(vms)


def test_yield_matches_scalar_path(base_cell):
    margins, vms = _scalar_yield_samples(base_cell, n_samples=10, seed=3)
    batched = noise_margin_yield(base_cell, n_samples=10, seed=3)
    assert batched.n_converged == len(vms)
    np.testing.assert_allclose(batched.noise_margins, margins,
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(batched.vm_values, vms,
                               rtol=1e-9, atol=1e-12)


def test_yield_deterministic_across_worker_counts(base_cell, monkeypatch):
    monkeypatch.setattr(runtime, "ENSEMBLE_BATCH", 4)
    serial = noise_margin_yield(base_cell, n_samples=12, seed=5, workers=1)
    fanned = noise_margin_yield(base_cell, n_samples=12, seed=5, workers=3)
    np.testing.assert_array_equal(serial.noise_margins,
                                  fanned.noise_margins)
    np.testing.assert_array_equal(serial.vm_values, fanned.vm_values)
    assert serial.n_converged == fanned.n_converged
