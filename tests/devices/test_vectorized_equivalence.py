"""Array kernel (`StackedTftParams.evaluate`) vs scalar (`ids`) equivalence.

The ensemble engine's batched stamping is only sound if the array-valued
model evaluation agrees with the scalar reference everywhere the solver
can visit — subthreshold, triode, saturation, the knee, and the
leakage-floor region, on both device polarities — and if one batch that
mixes models, and any subset gathered from it, keeps each lane on its
own device's equations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.devices.pentacene import PENTACENE
from repro.devices.silicon import silicon_nmos_45, silicon_pmos_45
from repro.devices.tft_level61 import StackedTftParams, UnifiedTft

# Both polarities, organic and silicon parameter corners, plus a no-leak
# no-DIBL corner where several model terms collapse to zero.
TFT_MODELS = [
    PENTACENE,                     # p-type organic
    silicon_nmos_45(),             # n-type, gamma < 0 (alpha-power)
    silicon_pmos_45(),
    UnifiedTft(polarity=+1, mu_band=1e-5, ci=1e-4, vt0=1.0,
               vt_dibl=0.0, lambda_=0.0, i_off_w=0.0, name="bare"),
]

#: (vgs, vds) points that exercise each guarded branch of the kernel.
EDGE_POINTS = [
    (5.0, 0.0),      # vds = 0: zero channel term, exact gds limit
    (-25.0, 10.0),   # deep subthreshold: tiny vgte, huge vds/vsat
    (25.0, 0.01),    # hard triode
    (2.0, 25.0),     # deep saturation + leakage-dominated
]


def _assert_triplet_close(scalar, batched, what):
    for s, b, name in zip(scalar, batched, ("ids", "gm", "gds")):
        assert np.isclose(b, s, rtol=1e-9, atol=1e-280), \
            f"{what}: {name} scalar={s!r} array={b!r}"


def _assert_lanes_match_scalar(models, w, l, vgs, vds, out, what):
    ids_v, gm_v, gds_v = out
    assert np.all(np.isfinite(ids_v))
    assert np.all(np.isfinite(gm_v))
    assert np.all(np.isfinite(gds_v))
    for k, model in enumerate(models):
        _assert_triplet_close(
            model.ids(float(vgs[k]), float(vds[k]), float(w[k]), float(l[k])),
            (float(ids_v[k]), float(gm_v[k]), float(gds_v[k])),
            f"{what} lane {k} {model.name} vgs={vgs[k]} vds={vds[k]}")


def _mixed_batch():
    """Every corner at every edge point plus seeded random biases, in one
    interleaved batch (lane k holds model k % 4)."""
    rng = np.random.default_rng(0)
    biases = EDGE_POINTS + [(float(g), float(d)) for g, d in zip(
        rng.uniform(-30.0, 30.0, 8), rng.uniform(0.0, 30.0, 8))]
    models = [m for _ in biases for m in TFT_MODELS]
    vgs = np.array([g for g, _ in biases for _ in TFT_MODELS])
    vds = np.array([d for _, d in biases for _ in TFT_MODELS])
    w = rng.uniform(1e-6, 1e-3, len(models))
    l = rng.uniform(1e-6, 1e-4, len(models))
    return models, w, l, vgs, vds


@pytest.mark.parametrize("model", TFT_MODELS, ids=lambda m: m.name)
@settings(max_examples=150, deadline=None)
@given(
    vgs=st.floats(-30.0, 30.0),
    vds=st.floats(0.0, 30.0),
    w=st.floats(1e-6, 1e-3),
    l=st.floats(1e-6, 1e-4),
)
def test_tft_array_matches_scalar(model, vgs, vds, w, l):
    scalar = model.ids(vgs, vds, w, l)
    batched = StackedTftParams([model], np.array([w]), np.array([l])
                               ).evaluate(np.array([vgs]), np.array([vds]))
    _assert_triplet_close(scalar, [float(v[0]) for v in batched],
                          f"{model.name} vgs={vgs} vds={vds}")


@pytest.mark.parametrize("model", TFT_MODELS, ids=lambda m: m.name)
def test_tft_edge_cases(model):
    """vds = 0, deep subthreshold, and deep saturation lanes stay finite
    and equal to the scalar branch results."""
    n = len(EDGE_POINTS)
    w, l = np.full(n, 100e-6), np.full(n, 10e-6)
    vgs = np.array([p[0] for p in EDGE_POINTS])
    vds = np.array([p[1] for p in EDGE_POINTS])
    out = StackedTftParams([model] * n, w, l).evaluate(vgs, vds)
    _assert_lanes_match_scalar([model] * n, w, l, vgs, vds, out,
                               f"{model.name} edge")


def test_mixed_batch_matches_scalar():
    """Organic p-type, silicon n and p, and a no-leak device in one
    object: every lane follows its own model's scalar equations."""
    models, w, l, vgs, vds = _mixed_batch()
    params = StackedTftParams(models, w, l)
    assert len(params) == len(models)
    _assert_lanes_match_scalar(models, w, l, vgs, vds,
                               params.evaluate(vgs, vds), "mixed")


def test_subset_matches_scalar():
    """``subset`` re-narrows every per-device array, by boolean mask (as
    the ensemble's active set does) and by index array."""
    models, w, l, vgs, vds = _mixed_batch()
    params = StackedTftParams(models, w, l)
    rng = np.random.default_rng(1)
    mask = rng.random(len(models)) < 0.5
    for sel in (mask, np.flatnonzero(~mask)[::-1]):
        sub = params.subset(sel)
        picked = [models[k] for k in np.arange(len(models))[sel]]
        assert len(sub) == len(picked)
        _assert_lanes_match_scalar(
            picked, w[sel], l[sel], vgs[sel], vds[sel],
            sub.evaluate(vgs[sel], vds[sel]), "subset")
    # A subset of leak-free devices drops the leakage term entirely.
    bare = np.array([m.i_off_w == 0.0 for m in models])
    _assert_lanes_match_scalar(
        [m for m in models if m.i_off_w == 0.0], w[bare], l[bare],
        vgs[bare], vds[bare],
        params.subset(bare).evaluate(vgs[bare], vds[bare]), "no-leak subset")
