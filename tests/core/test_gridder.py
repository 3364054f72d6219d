"""Unit tests for the vectorised gridder kernel vs the literal Algorithm 1.

The kernels grid a bucket of ``G`` identically shaped work items at once;
each test runs a single item (``G = 1``) and, where it checks a per-item
property, a stacked bucket (``G > 1``) as well.  The kernel runs with one
channel per row (``C = 1``, no step): the direct sum over the item's
relative uvw, as the work-group drivers run it on an uneven channel ladder.
"""

import numpy as np
import pytest

from repro.constants import COMPLEX_DTYPE
from repro.core.gridder import gridder_bucket, raster_factors, raster_phasor, subgrid_lmn
from repro.core.reference import reference_gridder, relative_uvw_wavelengths
from repro.core.scratch import ScratchArena
from repro.kernels.spheroidal import spheroidal_taper
from repro.kernels.wkernel import n_term
from repro.parallel.bucketing import call_tables, grid_work_group


N = 8
IMAGE_SIZE = 0.08


@pytest.fixture(scope="module")
def lmn():
    return subgrid_lmn(N, IMAGE_SIZE)


@pytest.fixture(scope="module")
def taper():
    return spheroidal_taper(N)


def _random_block(m, seed=0, uv_scale=20.0):
    rng = np.random.default_rng(seed)
    vis = (rng.standard_normal((m, 2, 2)) + 1j * rng.standard_normal((m, 2, 2))).astype(
        np.complex64
    )
    uvw = rng.standard_normal((m, 3)) * np.array([uv_scale, uv_scale, uv_scale / 4])
    return vis, uvw


def _grid(vis, uvw, lmn, taper, aterm_p=None, aterm_q=None):
    """Grid one ``(M, 2, 2)`` block as a bucket of one item, one channel
    per row."""
    m = uvw.shape[0]
    return gridder_bucket(
        vis.reshape(1, m, 1, 4).astype(np.complex128), uvw[np.newaxis], None,
        lmn, taper,
        aterm_p=None if aterm_p is None else aterm_p[np.newaxis],
        aterm_q=None if aterm_q is None else aterm_q[np.newaxis],
    )[0].copy()


def test_subgrid_lmn_structure(lmn):
    assert lmn.shape == (N * N, 3)
    centre = (N // 2) * N + N // 2
    np.testing.assert_allclose(lmn[centre], [0.0, 0.0, 0.0], atol=1e-15)
    # n column equals n_term of the l, m columns
    np.testing.assert_allclose(lmn[:, 2], n_term(lmn[:, 0], lmn[:, 1]))
    # the cached separable factors rebuild every raster bit for bit: l tiled
    # across rows, m repeated along each row, n gathered from its distinct
    # values (n depends on l**2 + m**2 only, so symmetric pixels share one)
    for size in (8, 9, 24, 32):
        raster = subgrid_lmn(size, IMAGE_SIZE)
        factors = raster_factors(raster)
        assert raster_factors(raster) is factors
        np.testing.assert_array_equal(raster[:, 0], np.tile(factors.l, size))
        np.testing.assert_array_equal(raster[:, 1], np.repeat(factors.m, size))
        np.testing.assert_array_equal(raster[:, 2], factors.n_values[factors.n_index])
        assert factors.n_values.size == np.unique(raster[:, 2]).size
    assert raster_factors(subgrid_lmn(24, IMAGE_SIZE)).n_values.size == 83


@pytest.mark.parametrize("g_total", [1, 3])
@pytest.mark.parametrize(
    "sign, dtype, rtol",
    [
        (1.0, np.complex128, 1e-13),
        (-1.0, np.complex128, 1e-13),
        # the kernels' complex64: each factor-row phase (up to ~40 rad here)
        # is rounded once to float32, an error of at most 2**-24 of it, then
        # float32 sin/cos and two complex64 products (measured: 8.6e-7)
        (1.0, COMPLEX_DTYPE, 3e-6),
        (-1.0, COMPLEX_DTYPE, 3e-6),
    ],
    ids=["1.0", "-1.0", "1.0-complex64", "-1.0-complex64"],
)
def test_raster_phasor_matches_the_pixel_exponential(lmn, g_total, sign, dtype, rtol):
    """The phasor assembled from l-, m- and n-factor rows equals the direct
    per-pixel exponential of the full phase, at the precision of ``out``."""
    rng = np.random.default_rng(17)
    coords = rng.standard_normal((g_total, 11, 3)) * np.array([40.0, 40.0, 10.0])
    out = np.empty((g_total, N * N, 11), dtype=dtype)
    phasor = raster_phasor(raster_factors(lmn), coords, sign, out, ScratchArena())
    assert phasor is out and phasor.dtype == dtype
    expected = np.exp(sign * 2j * np.pi * (lmn @ np.swapaxes(coords, 1, 2)))
    np.testing.assert_allclose(phasor, expected, rtol=rtol, atol=0)


def test_raster_factors_reject_a_non_raster_lmn(lmn):
    swapped = lmn.copy()
    swapped[[0, 1]] = swapped[[1, 0]]  # two pixels out of raster order
    with pytest.raises(ValueError, match="not a subgrid raster"):
        raster_factors(swapped)
    with pytest.raises(ValueError):
        raster_factors(lmn[:10])  # not (N**2, 3)
    vis, uvw = _random_block(5, seed=12)
    with pytest.raises(ValueError):
        _grid(vis, uvw, swapped, spheroidal_taper(N))


def test_relative_uvw_layout():
    uvw_m = np.array([[10.0, 20.0, 30.0], [40.0, 50.0, 60.0]])
    freqs = np.array([1e8, 2e8])
    rel = relative_uvw_wavelengths(uvw_m, freqs, u_mid=1.0, v_mid=2.0, w_offset=3.0)
    assert rel.shape == (4, 3)
    from repro.constants import SPEED_OF_LIGHT

    # time-major, channel fastest: row 1 is (t=0, c=1)
    np.testing.assert_allclose(
        rel[1], uvw_m[0] * 2e8 / SPEED_OF_LIGHT - np.array([1.0, 2.0, 3.0])
    )


def test_gridder_matches_reference_no_aterms(lmn, taper):
    blocks = [_random_block(12, seed=s) for s in (1, 11, 21)]
    slow = [reference_gridder(vis, uvw, N, IMAGE_SIZE, taper) for vis, uvw in blocks]
    np.testing.assert_allclose(
        _grid(*blocks[0], lmn, taper), slow[0], rtol=2e-4, atol=2e-4
    )
    stacked = gridder_bucket(
        np.stack([vis.reshape(12, 1, 4) for vis, _ in blocks]).astype(np.complex128),
        np.stack([uvw for _, uvw in blocks]), None, lmn, taper,
    )
    np.testing.assert_allclose(stacked, np.stack(slow), rtol=2e-4, atol=2e-4)


def test_gridder_matches_reference_with_aterms(lmn, taper):
    rng = np.random.default_rng(2)
    vis, uvw = _random_block(6, seed=3)
    a_p = rng.standard_normal((N, N, 2, 2)) + 1j * rng.standard_normal((N, N, 2, 2))
    a_q = rng.standard_normal((N, N, 2, 2)) + 1j * rng.standard_normal((N, N, 2, 2))
    fast = _grid(vis, uvw, lmn, taper, aterm_p=a_p, aterm_q=a_q)
    slow = reference_gridder(vis, uvw, N, IMAGE_SIZE, taper, aterm_p=a_p, aterm_q=a_q)
    np.testing.assert_allclose(fast, slow, rtol=1e-3, atol=1e-3)


def test_gridder_batching_invariance(lmn, taper):
    """Gridding items stacked in one bucket equals gridding each alone."""
    blocks = [_random_block(33, seed=s) for s in (4, 14, 24, 34)]
    alone = np.stack([_grid(vis, uvw, lmn, taper) for vis, uvw in blocks])
    stacked = gridder_bucket(
        np.stack([vis.reshape(33, 1, 4) for vis, _ in blocks]).astype(np.complex128),
        np.stack([uvw for _, uvw in blocks]), None, lmn, taper,
    )
    np.testing.assert_allclose(stacked, alone, rtol=1e-12, atol=1e-12)


def test_gridder_linearity_in_visibilities(lmn, taper):
    vis1, uvw = _random_block(10, seed=5)
    vis2, _ = _random_block(10, seed=6)
    s1 = _grid(vis1, uvw, lmn, taper)
    s2 = _grid(vis2, uvw, lmn, taper)
    s12 = _grid(vis1 + vis2, uvw, lmn, taper)
    np.testing.assert_allclose(s12, s1 + s2, rtol=1e-3, atol=1e-4)


def test_zero_uvw_accumulates_plain_sum(lmn, taper):
    """With all uvw = 0 the phasor is 1: the subgrid is taper * sum(V)."""
    vis, _ = _random_block(7, seed=7)
    uvw = np.zeros((7, 3))
    out = _grid(vis, uvw, lmn, taper)
    expected = taper[:, :, np.newaxis, np.newaxis] * vis.sum(axis=0)
    np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-5)


def test_single_polarization_isolation(lmn, taper):
    """A visibility with only XY set must populate only the XY plane."""
    vis = np.zeros((3, 2, 2), dtype=np.complex64)
    vis[:, 0, 1] = 1.0 + 2.0j
    _, uvw = _random_block(3, seed=8)
    out = _grid(vis, uvw, lmn, taper)
    assert np.abs(out[..., 0, 0]).max() == 0
    assert np.abs(out[..., 1, 0]).max() == 0
    assert np.abs(out[..., 1, 1]).max() == 0
    assert np.abs(out[..., 0, 1]).max() > 0


def test_gridder_shape_validation(lmn, taper):
    vis, uvw = _random_block(4, seed=9)
    with pytest.raises(ValueError):
        _grid(vis, uvw[:3], lmn, taper)
    with pytest.raises(ValueError):
        _grid(vis, uvw, lmn[: N * N - 3], taper)


def test_grid_work_group_end_to_end(small_plan, small_obs, single_source_vis, small_idg):
    """The work-group driver must agree with calling the kernel manually."""
    out = grid_work_group(
        small_plan, 0, 3, small_obs.uvw_m, single_source_vis, small_idg.taper,
        call_tables(small_plan, small_idg.lmn, None, 4),
    )
    assert out.shape == (3, 24, 24, 2, 2)
    item = small_plan.work_item(1)
    u_mid, v_mid = small_plan.subgrid_centre_uv(1)
    freqs = small_plan.frequencies_hz[item.channel_start : item.channel_end]
    rel = relative_uvw_wavelengths(
        small_obs.uvw_m[item.baseline, item.time_start : item.time_end],
        freqs, u_mid, v_mid,
    )
    vis_block = single_source_vis[
        item.baseline, item.time_start : item.time_end,
        item.channel_start : item.channel_end,
    ].reshape(-1, 2, 2)
    manual = _grid(vis_block, rel, small_idg.lmn, small_idg.taper)
    # the driver's recurrence and one channel per row round differently in
    # complex64 (paper Section VI-A precision): the differential harness's
    # budget, 1e-5 of the peak
    np.testing.assert_allclose(out[1], manual, atol=1e-5 * np.abs(manual).max())
