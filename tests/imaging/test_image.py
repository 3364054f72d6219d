"""Unit tests for grid <-> image conversions."""

import numpy as np
import pytest

from repro.gridspec import GridSpec
from repro.imaging.image import (
    dirty_image_from_grid,
    find_peak,
    model_image_to_grid,
    stokes_i_image,
)


@pytest.fixture
def gs():
    return GridSpec(grid_size=64, image_size=0.05)


def test_flat_grid_is_central_point_source(gs):
    """A constant grid is the transform of a delta at the image centre."""
    grid = np.ones((4, 64, 64), dtype=np.complex64)
    image = dirty_image_from_grid(grid, gs, weight_sum=64 * 64, correct_taper=False)
    peak = np.abs(image[0]).max()
    assert image[0, 32, 32].real == pytest.approx(peak)
    assert image[0, 32, 32].real == pytest.approx(1.0)


def test_weight_sum_normalises(gs):
    grid = np.ones((4, 64, 64), dtype=np.complex64)
    a = dirty_image_from_grid(grid, gs, weight_sum=100.0, correct_taper=False)
    b = dirty_image_from_grid(grid, gs, weight_sum=200.0, correct_taper=False)
    np.testing.assert_allclose(a, 2 * b, atol=1e-6)


def test_weight_sum_validation(gs):
    with pytest.raises(ValueError):
        dirty_image_from_grid(np.ones((4, 64, 64), np.complex64), gs, weight_sum=0.0)


def test_taper_correction_no_nans(gs):
    grid = np.ones((4, 64, 64), dtype=np.complex64)
    image = dirty_image_from_grid(grid, gs, weight_sum=1.0, correct_taper=True)
    assert np.all(np.isfinite(image) | (image == 0))


def test_model_image_to_grid_is_corrected_fft(gs):
    """model_image_to_grid = centered_fft2(model / grid_correction)."""
    from repro.kernels.fft import centered_fft2
    from repro.kernels.spheroidal import grid_correction

    model = np.zeros((4, 64, 64), dtype=np.complex128)
    model[0, 40, 20] = 3.0
    grid = model_image_to_grid(model, gs)
    expected = centered_fft2(model / grid_correction(64), axes=(-2, -1))
    np.testing.assert_allclose(grid, expected.astype(np.complex64), atol=1e-3)


def test_fft_roundtrip_without_corrections(gs):
    """grid -> image with matching normalisation inverts a plain FFT."""
    from repro.kernels.fft import centered_fft2

    model = np.zeros((4, 64, 64), dtype=np.complex128)
    model[0, 40, 20] = 3.0
    model[3, 10, 50] = -1.0
    grid = centered_fft2(model, axes=(-2, -1))
    image = dirty_image_from_grid(grid, gs, weight_sum=64 * 64, correct_taper=False)
    np.testing.assert_allclose(image, model, atol=1e-9)


def test_model_image_to_grid_shape_validation(gs):
    with pytest.raises(ValueError):
        model_image_to_grid(np.zeros((4, 32, 32)), gs)


def test_stokes_i_combines_xx_yy():
    img = np.zeros((4, 8, 8), dtype=np.complex128)
    img[0] = 2.0 + 1.0j
    img[3] = 4.0 - 1.0j
    out = stokes_i_image(img)
    np.testing.assert_allclose(out, 3.0)
    assert out.dtype.kind == "f"


def test_stokes_i_validation():
    with pytest.raises(ValueError):
        stokes_i_image(np.zeros((2, 8, 8)))


def test_find_peak():
    img = np.zeros((16, 16))
    img[3, 12] = -5.0  # absolute peak, negative
    img[8, 8] = 4.0
    row, col, val = find_peak(img)
    assert (row, col) == (3, 12)
    assert val == -5.0

