"""Wide-band regression for the channel-recurrence fast path.

At hundreds of channels the recurrence multiplies hundreds of unit phasors
together, so its rounding error compounds multiplicatively; the fast kernels
renormalise the phasor magnitude every
:data:`repro.core.gridder.PHASOR_RENORM_INTERVAL` channel steps to keep the
drift at single-precision levels.  These tests pin fast-vs-direct agreement
at 512 channels — eight renormalisation intervals deep — for a single work
item (``G = 1``) and a bucket of two (``G = 2``).
"""

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.core.degridder import degridder_bucket, degridder_bucket_fast
from repro.core.gridder import (
    PHASOR_RENORM_INTERVAL,
    gridder_bucket,
    gridder_bucket_fast,
    subgrid_lmn,
)
from repro.core.reference import relative_uvw_wavelengths
from repro.kernels.spheroidal import spheroidal_taper

N = 10
IMAGE_SIZE = 0.06
G, T, C = 2, 3, 512


def _setup():
    rng = np.random.default_rng(7)
    lmn = subgrid_lmn(N, IMAGE_SIZE)
    taper = spheroidal_taper(N)
    uvw_m = rng.standard_normal((G, T, 3)) * 50.0
    freqs = 120e6 + 150e3 * np.arange(C)
    vis = (
        rng.standard_normal((G, T, C, 2, 2)) + 1j * rng.standard_normal((G, T, C, 2, 2))
    ).astype(np.complex64)
    offsets = np.array([[2.1, -0.8, 0.3], [-1.4, 0.6, -0.2]])
    return lmn, taper, uvw_m, freqs, vis, offsets


def _relative(uvw_m, freqs, offsets):
    return np.stack([
        relative_uvw_wavelengths(uvw_m[k], freqs, *offsets[k])
        for k in range(len(uvw_m))
    ])


def _ladder(freqs, g):
    scales = freqs / SPEED_OF_LIGHT
    return np.full(g, scales[0]), float(scales[1] - scales[0])


def _grid_both(vis, uvw_m, freqs, offsets, lmn, taper):
    g, t, c = vis.shape[:3]
    direct = gridder_bucket(
        vis.reshape(g, t * c, 4).astype(np.complex128),
        _relative(uvw_m, freqs, offsets), lmn, taper,
    ).copy()
    scale0, ds = _ladder(freqs, g)
    fast = gridder_bucket_fast(
        vis.reshape(g, t, c, 4).astype(np.complex128), uvw_m, scale0, ds,
        offsets, lmn, taper,
    ).copy()
    return direct, fast


def test_wideband_spans_several_renorm_intervals():
    assert C >= 8 * PHASOR_RENORM_INTERVAL


def test_wideband_gridder_fast_matches_direct():
    lmn, taper, uvw_m, freqs, vis, offsets = _setup()
    for g in (1, G):
        direct, fast = _grid_both(vis[:g], uvw_m[:g], freqs, offsets[:g], lmn, taper)
        scale = np.abs(direct).max()
        assert np.abs(fast - direct).max() < 1e-5 * scale


def test_wideband_degridder_fast_matches_direct():
    lmn, taper, uvw_m, freqs, vis, offsets = _setup()
    rng = np.random.default_rng(8)
    sub = (
        rng.standard_normal((G, N, N, 2, 2)) + 1j * rng.standard_normal((G, N, N, 2, 2))
    ).astype(np.complex64)
    for g in (1, G):
        direct = degridder_bucket(
            sub[:g], _relative(uvw_m[:g], freqs, offsets[:g]), lmn, taper
        ).reshape(g, T, C, 4).copy()
        scale0, ds = _ladder(freqs, g)
        fast = degridder_bucket_fast(
            sub[:g], uvw_m[:g], scale0, ds, C, offsets[:g], lmn, taper
        )
        scale = np.abs(direct).max()
        assert np.abs(fast - direct).max() < 1e-5 * scale


def test_renorm_interval_boundary_exact():
    """Channel counts at and just past the renormalisation interval agree
    with the direct kernel — the modulo boundary must not skip or double a
    channel's contribution."""
    lmn, taper, uvw_m, freqs, vis, offsets = _setup()
    for c in (PHASOR_RENORM_INTERVAL, PHASOR_RENORM_INTERVAL + 1):
        direct, fast = _grid_both(vis[:, :, :c], uvw_m, freqs[:c], offsets, lmn, taper)
        scale = np.abs(direct).max()
        assert np.abs(fast - direct).max() < 1e-5 * scale
