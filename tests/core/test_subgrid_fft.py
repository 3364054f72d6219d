"""Unit tests for the batched subgrid FFTs."""

import numpy as np
import pytest

from repro.core.subgrid_fft import subgrids_to_fourier, subgrids_to_image
from repro.kernels.fft import centered_fft2


def _random_subgrids(k=3, n=16, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((k, n, n, 2, 2)) + 1j * rng.standard_normal((k, n, n, 2, 2))
    ).astype(np.complex64)


def test_forward_matches_per_pol_fft():
    subs = _random_subgrids()
    out = subgrids_to_fourier(subs)
    n = subs.shape[1]
    for k in range(subs.shape[0]):
        for p in range(2):
            for q in range(2):
                np.testing.assert_allclose(
                    out[k, :, :, p, q],
                    (centered_fft2(subs[k, :, :, p, q].astype(np.complex128)) / n**2).astype(
                        np.complex64
                    ),
                    atol=1e-5,
                )


def test_constant_image_becomes_central_delta():
    """A constant image (on-centre visibility) transforms to a single uv cell
    holding exactly the constant — the flux-preservation convention."""
    n = 16
    subs = np.zeros((1, n, n, 2, 2), dtype=np.complex64)
    subs[0, :, :, 0, 0] = 2.5
    out = subgrids_to_fourier(subs)
    assert out[0, n // 2, n // 2, 0, 0] == pytest.approx(2.5)
    mask = np.ones((n, n), dtype=bool)
    mask[n // 2, n // 2] = False
    assert np.abs(out[0, :, :, 0, 0][mask]).max() < 1e-6


def test_adjoint_identity():
    """<F x, y> == <x, F^H y> with F^H = subgrids_to_image."""
    x = _random_subgrids(1, 8, seed=1).astype(np.complex128)
    y = _random_subgrids(1, 8, seed=2).astype(np.complex128)
    lhs = np.vdot(subgrids_to_fourier(x.astype(np.complex64)).astype(np.complex128), y)
    rhs = np.vdot(x, subgrids_to_image(y.astype(np.complex64)).astype(np.complex128))
    assert lhs == pytest.approx(rhs, rel=1e-5)


def test_composition_scale():
    """to_image(to_fourier(x)) = x / N**2 (adjoint pair, not inverse)."""
    subs = _random_subgrids(2, 8, seed=3)
    back = subgrids_to_image(subgrids_to_fourier(subs))
    np.testing.assert_allclose(back, subs / 64.0, atol=1e-6)


def test_preserves_dtype_and_shape():
    subs = _random_subgrids(4, 12, seed=4)
    out = subgrids_to_fourier(subs)
    assert out.shape == subs.shape
    assert out.dtype == subs.dtype
    back = subgrids_to_image(out)
    assert back.shape == subs.shape
    assert back.dtype == subs.dtype


@pytest.mark.parametrize("a", [1, 2], ids=["one-correlation", "four-correlations"])
def test_forward_norm_matches_the_divided_transform(a):
    """The 1/N**2 folded into the transform (``norm="forward"``) gives the
    old default-norm ``fft2`` followed by a division by N**2, to 1e-6
    relative to the peak, on both correlation counts."""
    rng = np.random.default_rng(5)
    shape = (32, 24, 24, a, a)
    subs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        np.complex64
    )
    moved = np.moveaxis(subs, (-2, -1), (0, 1))
    divided = np.moveaxis(
        centered_fft2(moved, axes=(-2, -1)) / (24 * 24), (0, 1), (-2, -1)
    )
    out = subgrids_to_fourier(subs)
    assert out.shape == shape and out.dtype == np.complex64
    peak = np.abs(divided).max()
    assert np.abs(out - divided).max() <= 1e-6 * peak


def test_one_correlation_round_trip():
    """The transforms act on each correlation plane alone, so a (k, N, N,
    1, 1) stack is the XX plane of a (k, N, N, 2, 2) one."""
    subs = _random_subgrids(3, 12, seed=6)
    one = subs[..., :1, :1].copy()
    np.testing.assert_array_equal(
        subgrids_to_fourier(one)[..., 0, 0], subgrids_to_fourier(subs)[..., 0, 0]
    )
    np.testing.assert_array_equal(
        subgrids_to_image(one)[..., 0, 0], subgrids_to_image(subs)[..., 0, 0]
    )
