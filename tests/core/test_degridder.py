"""Unit tests for the vectorised degridder kernel vs the literal Algorithm 2.

The kernels degrid a bucket of ``G`` identically shaped work items at once;
each test runs a single item (``G = 1``) and, where it checks a per-item
property, a stacked bucket (``G > 1``) as well.  The kernels run with one
channel per row (``C = 1``, no step): the direct sum over the item's
relative uvw.
"""

import numpy as np
import pytest

from repro.core.degridder import degridder_bucket
from repro.core.gridder import gridder_bucket, subgrid_lmn
from repro.core.reference import reference_degridder
from repro.kernels.spheroidal import spheroidal_taper


N = 8
IMAGE_SIZE = 0.08


@pytest.fixture(scope="module")
def lmn():
    return subgrid_lmn(N, IMAGE_SIZE)


@pytest.fixture(scope="module")
def taper():
    return spheroidal_taper(N)


def _random_subgrid(seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((N, N, 2, 2)) + 1j * rng.standard_normal((N, N, 2, 2))
    ).astype(np.complex64)


def _random_uvw(m, seed=1, uv_scale=20.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, 3)) * np.array([uv_scale, uv_scale, uv_scale / 4])


def _degrid(sub, uvw, lmn, taper, aterm_p=None, aterm_q=None):
    """Degrid one subgrid as a bucket of one item, one channel per row:
    ``(M, 2, 2)``."""
    out = degridder_bucket(
        sub[np.newaxis], uvw[np.newaxis], None, 1, lmn, taper,
        aterm_p=None if aterm_p is None else aterm_p[np.newaxis],
        aterm_q=None if aterm_q is None else aterm_q[np.newaxis],
    )
    return out[0].reshape(-1, 2, 2).copy()


def test_degridder_matches_reference_no_aterms(lmn, taper):
    subs = [_random_subgrid(s) for s in (0, 20, 30)]
    uvws = [_random_uvw(10, seed=s) for s in (1, 21, 31)]
    slow = [reference_degridder(s, u, IMAGE_SIZE, taper) for s, u in zip(subs, uvws)]
    np.testing.assert_allclose(
        _degrid(subs[0], uvws[0], lmn, taper), slow[0], rtol=2e-4, atol=2e-4
    )
    stacked = degridder_bucket(np.stack(subs), np.stack(uvws), None, 1, lmn, taper)
    np.testing.assert_allclose(
        stacked.reshape(3, 10, 2, 2), np.stack(slow), rtol=2e-4, atol=2e-4
    )


def test_degridder_matches_reference_with_aterms(lmn, taper):
    rng = np.random.default_rng(2)
    sub = _random_subgrid(3)
    uvw = _random_uvw(5, seed=4)
    a_p = rng.standard_normal((N, N, 2, 2)) + 1j * rng.standard_normal((N, N, 2, 2))
    a_q = rng.standard_normal((N, N, 2, 2)) + 1j * rng.standard_normal((N, N, 2, 2))
    fast = _degrid(sub, uvw, lmn, taper, aterm_p=a_p, aterm_q=a_q)
    slow = reference_degridder(sub, uvw, IMAGE_SIZE, taper, aterm_p=a_p, aterm_q=a_q)
    np.testing.assert_allclose(fast, slow, rtol=1e-3, atol=1e-3)


def test_degridder_batching_invariance(lmn, taper):
    """Degridding items stacked in one bucket equals degridding each alone."""
    subs = [_random_subgrid(s) for s in (5, 15, 25)]
    uvws = [_random_uvw(29, seed=s) for s in (6, 16, 26)]
    alone = np.stack([_degrid(s, u, lmn, taper) for s, u in zip(subs, uvws)])
    stacked = degridder_bucket(np.stack(subs), np.stack(uvws), None, 1, lmn, taper)
    np.testing.assert_allclose(
        stacked.reshape(alone.shape), alone, rtol=1e-12, atol=1e-12
    )


def test_degridder_linearity_in_subgrid(lmn, taper):
    s1, s2 = _random_subgrid(7), _random_subgrid(8)
    uvw = _random_uvw(6, seed=9)
    v1 = _degrid(s1, uvw, lmn, taper)
    v2 = _degrid(s2, uvw, lmn, taper)
    v12 = _degrid(s1 + s2, uvw, lmn, taper)
    np.testing.assert_allclose(v12, v1 + v2, rtol=1e-3, atol=1e-4)


def test_zero_uvw_sums_pixels(lmn, taper):
    sub = _random_subgrid(10)
    uvw = np.zeros((4, 3))
    out = _degrid(sub, uvw, lmn, taper)
    expected = (sub * taper[:, :, np.newaxis, np.newaxis]).sum(axis=(0, 1))
    for k in range(4):
        np.testing.assert_allclose(out[k], expected, rtol=1e-4)


def test_gridder_degridder_adjoint_identity(lmn, taper):
    """<gridder(V), S> == <V, degridder(S)> — kernel-level adjointness,
    over a bucket of three items with per-item A-terms."""
    rng = np.random.default_rng(11)
    g, m = 3, 9
    vis = rng.standard_normal((g, m, 1, 4)) + 1j * rng.standard_normal((g, m, 1, 4))
    sub = rng.standard_normal((g, N, N, 2, 2)) + 1j * rng.standard_normal((g, N, N, 2, 2))
    a_p = rng.standard_normal((g, N, N, 2, 2)) + 1j * rng.standard_normal((g, N, N, 2, 2))
    a_q = rng.standard_normal((g, N, N, 2, 2)) + 1j * rng.standard_normal((g, N, N, 2, 2))
    uvw = np.stack([_random_uvw(m, seed=12 + k) for k in range(g)])
    gridded = gridder_bucket(vis, uvw, None, lmn, taper, aterm_p=a_p, aterm_q=a_q)
    lhs = np.vdot(gridded, sub)
    degridded = degridder_bucket(sub, uvw, None, 1, lmn, taper, aterm_p=a_p, aterm_q=a_q)
    rhs = np.vdot(vis, degridded)
    # the kernels' phasors and products are complex64 (paper Section VI-A),
    # so the two sides agree to single precision, not to float64 rounding:
    # held to the differential harness's 1e-5 relative budget
    assert lhs == pytest.approx(rhs, rel=1e-5)


def test_degridder_shape_validation(lmn, taper):
    sub = _random_subgrid(13)
    with pytest.raises(ValueError):
        _degrid(sub[:4], _random_uvw(3), lmn, taper)
    with pytest.raises(ValueError):
        _degrid(sub, _random_uvw(3), lmn[:10], taper)
