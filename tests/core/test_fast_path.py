"""Tests for the channel phasor recurrence against one channel per row.

The bucket kernels replace one sincos per (pixel, visibility) with one
sincos pair per (pixel, timestep) plus per-channel complex multiplies when a
row holds evenly spaced channels; the same kernels with one channel per row
(``C = 1``, no step) are the direct sum, which the drivers run on any other
channel ladder.  These tests pin the two layouts against each other on
single work items (``G = 1``) and on buckets of two (``G = 2``), at
``C = 8``, where the items start at different channels of one ladder, and
at ``C = 512``.  At hundreds of channels the recurrence multiplies hundreds
of unit phasors together, so its rounding error compounds multiplicatively;
the kernels renormalise the phasor magnitude every
:data:`repro.core.gridder.PHASOR_RENORM_INTERVAL` channel steps, and
``C = 512`` is eight intervals deep.  The layouts must agree to ``1e-5`` of
the peak: the differential harness's budget.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.constants import SPEED_OF_LIGHT
from repro.core.degridder import degridder_bucket
from repro.core.gridder import PHASOR_RENORM_INTERVAL, gridder_bucket, subgrid_lmn
from repro.core.reference import relative_uvw_wavelengths
from repro.kernels.spheroidal import spheroidal_taper

G = 2
BUDGET = 1e-5


@dataclass(frozen=True)
class Band:
    """One bucket of ``G`` items and its channel ladder."""

    n_channels: int
    subgrid_size: int
    image_size: float
    n_times: int
    uvw_scale_m: float
    first_hz: float
    width_hz: float
    offsets: tuple[tuple[float, float, float], ...]
    #: Item ``k`` covers channels ``k*C .. (k+1)*C`` of one ladder; else
    #: both items cover the same ``C`` channels.
    consecutive: bool
    seed: int
    #: Seed of the degridder's random subgrids.
    subgrid_seed: int


NARROW = Band(8, 12, 0.08, 7, 40.0, 150e6, 200e3,
              ((3.7, -1.2, 0.4), (-2.1, 0.8, -0.3)), True, seed=0, subgrid_seed=2)
WIDE = Band(512, 10, 0.06, 3, 50.0, 120e6, 150e3,
            ((2.1, -0.8, 0.3), (-1.4, 0.6, -0.2)), False, seed=7, subgrid_seed=8)


def _setup(band):
    rng = np.random.default_rng(band.seed)
    n, t, c = band.subgrid_size, band.n_times, band.n_channels
    lmn = subgrid_lmn(n, band.image_size)
    taper = spheroidal_taper(n)
    uvw_m = rng.standard_normal((G, t, 3)) * band.uvw_scale_m
    first = c * np.arange(G)[:, np.newaxis] if band.consecutive else np.zeros((G, 1))
    freqs = band.first_hz + band.width_hz * (first + np.arange(c))
    vis = (rng.standard_normal((G, t, c, 2, 2))
           + 1j * rng.standard_normal((G, t, c, 2, 2))).astype(np.complex64)
    return lmn, taper, uvw_m, freqs, vis, np.array(band.offsets)


@pytest.fixture(params=[NARROW, WIDE], ids=lambda b: f"C{b.n_channels}")
def band(request):
    return request.param


def _layouts(uvw_m, freqs, offsets):
    """``(start, step, rel)``: each item's ``(T, 3)`` first-channel
    coordinates and ``f/c`` step per timestep, and its ``(T*C, 3)``
    relative uvw, one row per sample."""
    scales = freqs / SPEED_OF_LIGHT
    start = uvw_m * scales[:, :1, np.newaxis] - offsets[:, np.newaxis]
    ds = scales[0, 1] - scales[0, 0] if freqs.shape[1] > 1 else 0.0
    rel = np.stack([
        relative_uvw_wavelengths(uvw_m[k], freqs[k], *offsets[k])
        for k in range(len(uvw_m))
    ])
    return start, uvw_m * ds, rel


def _grid_both(vis, uvw_m, freqs, offsets, lmn, taper, a_p=None, a_q=None):
    """The gridder's ``(recurrence, one channel per row)`` subgrids."""
    g, t, c = vis.shape[:3]
    start, step, rel = _layouts(uvw_m, freqs, offsets)
    fast = gridder_bucket(
        vis.reshape(g, t, c, 4).astype(np.complex128), start, step,
        lmn, taper, aterm_p=a_p, aterm_q=a_q,
    ).copy()
    direct = gridder_bucket(
        vis.reshape(g, t * c, 1, 4).astype(np.complex128), rel, None,
        lmn, taper, aterm_p=a_p, aterm_q=a_q,
    ).copy()
    return fast, direct


def _degrid_both(sub, uvw_m, freqs, offsets, lmn, taper):
    """The degridder's ``(recurrence, one channel per row)`` predictions."""
    g, c = sub.shape[0], freqs.shape[1]
    start, step, rel = _layouts(uvw_m, freqs, offsets)
    fast = degridder_bucket(sub, start, step, c, lmn, taper).copy()
    direct = degridder_bucket(sub, rel, None, 1, lmn, taper).reshape(g, -1, c, 4)
    return fast, direct.copy()


def _assert_agree(fast, direct, budget=BUDGET):
    scale = np.abs(direct).max()
    assert np.abs(fast - direct).max() < budget * scale


def test_the_wide_band_spans_several_renorm_intervals():
    assert WIDE.n_channels >= 8 * PHASOR_RENORM_INTERVAL


def test_recurrence_gridder_matches_one_channel_rows(band):
    lmn, taper, uvw_m, freqs, vis, offsets = _setup(band)
    for g in (1, G):
        _assert_agree(*_grid_both(vis[:g], uvw_m[:g], freqs[:g], offsets[:g], lmn, taper))


def test_recurrence_degridder_matches_one_channel_rows(band):
    lmn, taper, uvw_m, freqs, vis, offsets = _setup(band)
    rng = np.random.default_rng(band.subgrid_seed)
    shape = (G, band.subgrid_size, band.subgrid_size, 2, 2)
    sub = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)
    for g in (1, G):
        _assert_agree(*_degrid_both(sub[:g], uvw_m[:g], freqs[:g], offsets[:g], lmn, taper))


def test_recurrence_gridder_with_aterms():
    lmn, taper, uvw_m, freqs, vis, offsets = _setup(NARROW)
    rng = np.random.default_rng(1)
    n = NARROW.subgrid_size
    shape = (G, n, n, 2, 2)
    a_p = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a_q = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    _assert_agree(*_grid_both(vis, uvw_m, freqs, offsets, lmn, taper, a_p, a_q))


def test_single_channel_works():
    lmn, taper, uvw_m, freqs, vis, offsets = _setup(NARROW)
    _assert_agree(*_grid_both(vis[:, :, :1], uvw_m, freqs[:, :1], offsets, lmn, taper))


def test_renorm_interval_boundary_exact():
    """Channel counts at and just past the renormalisation interval agree
    with one channel per row — the modulo boundary must not skip or double
    a channel's contribution."""
    lmn, taper, uvw_m, freqs, vis, offsets = _setup(WIDE)
    for c in (PHASOR_RENORM_INTERVAL, PHASOR_RENORM_INTERVAL + 1):
        _assert_agree(*_grid_both(vis[:, :, :c], uvw_m, freqs[:, :c], offsets, lmn, taper))


def test_pipeline_fast_matches_slow(small_obs, small_baselines, single_source_vis,
                                    small_idg, monkeypatch):
    """End to end: a row per timestep (chosen for the evenly spaced
    channels) and a row per sample (forced here) produce the same grid and
    the same predictions."""
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
    _assert_agree(*_grid_both(vis, uvw_m, freqs, np.zeros((1, 3)), lmn, taper), 1e-4)
