"""Tests for the channel-recurrence fast path.

The fast kernels replace one sincos per (pixel, visibility) with one sincos
pair per (pixel, timestep) plus per-channel complex multiplies — valid for
evenly spaced channels.  These tests pin agreement with the direct-sum
kernels on single work items (``G = 1``) and on buckets whose items start at
different channels of one ladder (``G > 1``).
"""

import numpy as np
import pytest

from repro.constants import SPEED_OF_LIGHT
from repro.core.degridder import degridder_bucket, degridder_bucket_fast
from repro.core.gridder import gridder_bucket, gridder_bucket_fast, subgrid_lmn
from repro.core.reference import relative_uvw_wavelengths
from repro.kernels.spheroidal import spheroidal_taper

N = 12
IMAGE_SIZE = 0.08
G, T, C = 2, 7, 8


@pytest.fixture(scope="module")
def setup():
    """A bucket of ``G`` items; item ``k`` covers channels ``k*C .. (k+1)*C``
    of one evenly spaced ladder."""
    rng = np.random.default_rng(0)
    lmn = subgrid_lmn(N, IMAGE_SIZE)
    taper = spheroidal_taper(N)
    uvw_m = rng.standard_normal((G, T, 3)) * 40.0
    freqs = (150e6 + 200e3 * np.arange(G * C)).reshape(G, C)
    vis = (rng.standard_normal((G, T, C, 2, 2))
           + 1j * rng.standard_normal((G, T, C, 2, 2))).astype(np.complex64)
    offsets = np.array([[3.7, -1.2, 0.4], [-2.1, 0.8, -0.3]])
    return lmn, taper, uvw_m, freqs, vis, offsets


def _relative(uvw_m, freqs, offsets):
    """``(G, T*C, 3)`` relative uvw of every item."""
    return np.stack([
        relative_uvw_wavelengths(uvw_m[k], freqs[k], *offsets[k])
        for k in range(len(uvw_m))
    ])


def _ladder(freqs):
    """``(scale0, ds)`` of the items' ``f/c`` ladder."""
    scales = freqs / SPEED_OF_LIGHT
    ds = float(scales[0, 1] - scales[0, 0]) if freqs.shape[1] > 1 else 0.0
    return scales[:, 0], ds


def _grid_both(vis, uvw_m, freqs, offsets, lmn, taper, a_p=None, a_q=None):
    g, t, c = vis.shape[:3]
    scale0, ds = _ladder(freqs)
    direct = gridder_bucket(
        vis.reshape(g, t * c, 4).astype(np.complex128),
        _relative(uvw_m, freqs, offsets), lmn, taper, aterm_p=a_p, aterm_q=a_q,
    ).copy()
    fast = gridder_bucket_fast(
        vis.reshape(g, t, c, 4).astype(np.complex128), uvw_m, scale0, ds,
        offsets, lmn, taper, aterm_p=a_p, aterm_q=a_q,
    ).copy()
    return direct, fast


def _degrid_both(sub, uvw_m, freqs, offsets, lmn, taper):
    g, c = sub.shape[0], freqs.shape[1]
    scale0, ds = _ladder(freqs)
    direct = degridder_bucket(sub, _relative(uvw_m, freqs, offsets), lmn, taper)
    direct = direct.reshape(g, -1, c, 4).copy()
    fast = degridder_bucket_fast(sub, uvw_m, scale0, ds, c, offsets, lmn, taper).copy()
    return direct, fast


def test_fast_gridder_matches_direct(setup):
    lmn, taper, uvw_m, freqs, vis, offsets = setup
    for g in (1, G):
        direct, fast = _grid_both(
            vis[:g], uvw_m[:g], freqs[:g], offsets[:g], lmn, taper
        )
        np.testing.assert_allclose(fast, direct, rtol=2e-4, atol=2e-4)


def test_fast_gridder_with_aterms(setup):
    lmn, taper, uvw_m, freqs, vis, offsets = setup
    rng = np.random.default_rng(1)
    shape = (G, N, N, 2, 2)
    a_p = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a_q = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    direct, fast = _grid_both(vis, uvw_m, freqs, offsets, lmn, taper, a_p, a_q)
    np.testing.assert_allclose(fast, direct, rtol=1e-3, atol=1e-3)


def test_fast_degridder_matches_direct(setup):
    lmn, taper, uvw_m, freqs, vis, offsets = setup
    rng = np.random.default_rng(2)
    sub = (rng.standard_normal((G, N, N, 2, 2))
           + 1j * rng.standard_normal((G, N, N, 2, 2))).astype(np.complex64)
    for g in (1, G):
        direct, fast = _degrid_both(
            sub[:g], uvw_m[:g], freqs[:g], offsets[:g], lmn, taper
        )
        np.testing.assert_allclose(fast, direct, rtol=2e-4, atol=2e-4)


def test_single_channel_works(setup):
    lmn, taper, uvw_m, freqs, vis, offsets = setup
    direct, fast = _grid_both(
        vis[:, :, :1], uvw_m, freqs[:, :1], offsets, lmn, taper
    )
    np.testing.assert_allclose(fast, direct, rtol=2e-4, atol=2e-4)


def test_pipeline_fast_matches_slow(small_obs, small_baselines, single_source_vis,
                                    small_idg, monkeypatch):
    """End to end: the recurrence kernels (chosen for the evenly spaced
    channels) and the direct-sum kernels (forced here) produce the same grid
    and the same predictions."""
    from repro.imaging.image import model_image_to_grid
    from repro.parallel import bucketing

    plan = small_idg.make_plan(
        small_obs.uvw_m, small_obs.frequencies_hz, small_baselines
    )
    g = small_idg.gridspec.grid_size
    model = np.ones((4, g, g), dtype=np.complex128) * 0.001
    mgrid = model_image_to_grid(model, small_idg.gridspec)

    def run():
        return (
            small_idg.grid(plan, small_obs.uvw_m, single_source_vis),
            small_idg.degrid(plan, small_obs.uvw_m, mgrid),
        )

    grid_fast, pred_fast = run()
    monkeypatch.setattr(bucketing, "uniform_channel_step", lambda freqs: None)
    grid_slow, pred_slow = run()
    scale = np.abs(grid_slow).max()
    assert np.abs(grid_fast - grid_slow).max() < 1e-5 * scale
    np.testing.assert_allclose(pred_fast, pred_slow, atol=1e-4)


def test_recurrence_drift_bounded():
    """The recurrence multiplies C-1 unit phasors; verify the accumulated
    float drift stays tiny even for many channels."""
    rng = np.random.default_rng(4)
    lmn = subgrid_lmn(8, 0.05)
    taper = spheroidal_taper(8)
    t, c = 3, 64
    uvw_m = rng.standard_normal((1, t, 3)) * 30.0
    freqs = (150e6 + 200e3 * np.arange(c))[np.newaxis]
    vis = (rng.standard_normal((1, t, c, 2, 2)) + 0j).astype(np.complex64)
    direct, fast = _grid_both(vis, uvw_m, freqs, np.zeros((1, 3)), lmn, taper)
    scale = np.abs(direct).max()
    assert np.abs(fast - direct).max() < 1e-4 * scale
