"""Unit tests for Hogbom CLEAN."""

import numpy as np
import pytest

from repro.imaging.clean import clean_window, hogbom_clean, peak_normalised_psf


def _gaussian_psf(g=64, sigma=2.0):
    y, x = np.mgrid[0:g, 0:g]
    c = g // 2
    psf = np.exp(-((x - c) ** 2 + (y - c) ** 2) / (2 * sigma**2))
    # add a sidelobe ring to make deconvolution non-trivial
    r = np.hypot(x - c, y - c)
    psf += 0.1 * np.exp(-((r - 8.0) ** 2) / 4.0)
    return psf / psf[c, c]


@pytest.fixture(scope="module")
def psf():
    return _gaussian_psf()


def _dirty_from_components(psf, components):
    g = psf.shape[0]
    c = g // 2
    dirty = np.zeros_like(psf)
    for row, col, flux in components:
        shifted = np.roll(np.roll(psf, row - c, axis=0), col - c, axis=1)
        dirty += flux * shifted
    return dirty


def test_single_source_recovered(psf):
    dirty = _dirty_from_components(psf, [(40, 22, 5.0)])
    res = hogbom_clean(dirty, psf, gain=0.2, threshold=0.05, max_iterations=500)
    assert res.converged
    peak = np.unravel_index(np.argmax(res.model_image), res.model_image.shape)
    assert peak == (40, 22)
    assert res.component_flux() == pytest.approx(5.0, rel=0.05)
    assert np.abs(res.residual).max() <= 0.05 + 1e-9


def test_two_sources_fluxes(psf):
    dirty = _dirty_from_components(psf, [(20, 20, 4.0), (44, 40, 2.0)])
    res = hogbom_clean(dirty, psf, gain=0.2, threshold=0.05, max_iterations=2000)
    # flux in a small box around each source
    def box_flux(img, r, c, half=3):
        return img[r - half : r + half + 1, c - half : c + half + 1].sum()

    assert box_flux(res.model_image, 20, 20) == pytest.approx(4.0, rel=0.1)
    assert box_flux(res.model_image, 44, 40) == pytest.approx(2.0, rel=0.1)


def test_negative_source_cleaned(psf):
    dirty = _dirty_from_components(psf, [(30, 30, -3.0)])
    res = hogbom_clean(dirty, psf, gain=0.2, threshold=0.05, max_iterations=500)
    assert res.component_flux() == pytest.approx(-3.0, rel=0.05)


def test_window_restricts_components(psf):
    dirty = _dirty_from_components(psf, [(10, 10, 5.0), (50, 50, 4.0)])
    window = np.zeros_like(dirty, dtype=bool)
    window[40:60, 40:60] = True
    res = hogbom_clean(dirty, psf, gain=0.2, threshold=0.1, max_iterations=500, window=window)
    rows = res.components[:, 0]
    cols = res.components[:, 1]
    assert np.all((rows >= 40) & (rows < 60) & (cols >= 40) & (cols < 60))


def test_zero_image_converges_immediately(psf):
    res = hogbom_clean(np.zeros_like(psf), psf, threshold=0.01)
    assert res.converged
    assert res.n_iterations == 0
    assert len(res.components) == 0


def test_iteration_cap_reported(psf):
    dirty = _dirty_from_components(psf, [(32, 32, 10.0)])
    res = hogbom_clean(dirty, psf, gain=0.05, threshold=1e-6, max_iterations=10)
    assert res.n_iterations == 10
    assert not res.converged


def test_model_plus_residual_consistency(psf):
    """dirty == model (*) psf + residual, by construction of the subtraction."""
    dirty = _dirty_from_components(psf, [(25, 35, 3.0)])
    res = hogbom_clean(dirty, psf, gain=0.3, threshold=0.02, max_iterations=1000)
    reconstructed = _dirty_from_components(
        psf, [(int(r), int(c), f) for r, c, f in res.components]
    )
    np.testing.assert_allclose(reconstructed + res.residual, dirty, atol=1e-9)


def test_validation(psf):
    dirty = np.zeros_like(psf)
    with pytest.raises(ValueError):
        hogbom_clean(dirty[:32], psf)
    with pytest.raises(ValueError):
        hogbom_clean(dirty, psf[:32, :32])
    with pytest.raises(ValueError):
        hogbom_clean(dirty, psf, gain=0.0)
    with pytest.raises(ValueError):
        hogbom_clean(dirty, psf * 0.5)  # peak not 1
    with pytest.raises(ValueError, match="selects no pixel"):
        hogbom_clean(dirty, psf, window=np.zeros_like(dirty, dtype=bool))
    with pytest.raises(ValueError, match="window shape"):
        hogbom_clean(dirty, psf, window=np.ones((32, 32), dtype=bool))


def _full_image_clean(dirty, psf, gain, threshold, max_iterations, window):
    """The plain Hogbom loop: argmax of ``|residual|`` over the whole image,
    unselected pixels masked with -inf."""
    g = dirty.shape[0]
    centre = g // 2
    residual = dirty.astype(np.float64).copy()
    model = np.zeros_like(residual)
    components = []
    for _ in range(max_iterations):
        row, col = divmod(int(np.argmax(np.where(window, np.abs(residual), -np.inf))), g)
        peak = residual[row, col]
        if abs(peak) <= threshold:
            break
        flux = gain * peak
        shifted = np.roll(np.roll(psf, row - centre, axis=0), col - centre, axis=1)
        # np.roll wraps; mask the wrapped part so the subtraction is clipped
        rows = np.arange(g)[:, np.newaxis] - row + centre
        cols = np.arange(g)[np.newaxis, :] - col + centre
        inside = (rows >= 0) & (rows < g) & (cols >= 0) & (cols < g)
        residual -= np.where(inside, flux * shifted, 0.0)
        model[row, col] += flux
        components.append((row, col, flux))
    return np.array(components, dtype=np.float64).reshape(-1, 3), model, residual


def test_windowed_search_matches_a_full_image_loop_with_tied_peaks(psf):
    """A disc window with exactly tied peaks: searching only the window's
    bounding box picks the same pixel as a full-image argmax every time."""
    g = psf.shape[0]
    y, x = np.mgrid[0:g, 0:g]
    window = (y - 30) ** 2 + (x - 34) ** 2 <= 14**2
    # two equal sources point-symmetric about the disc centre tie bit for
    # bit, and row-major order (row 24 first) picks another one than
    # column-major order (column 28 first) would; the brightest pixel of
    # all lies outside the disc
    dirty = _dirty_from_components(psf, [(24, 40, 4.0), (36, 28, 4.0), (5, 5, 9.0)])
    assert dirty[24, 40] == dirty[36, 28] == np.abs(dirty[window]).max()
    res = hogbom_clean(dirty, psf, gain=0.2, threshold=0.02, max_iterations=120, window=window)
    components, model, residual = _full_image_clean(dirty, psf, 0.2, 0.02, 120, window)
    assert tuple(components[0, :2]) == (24, 40)
    assert len(res.components) > 10
    np.testing.assert_array_equal(res.components, components)
    np.testing.assert_array_equal(res.model_image, model)
    np.testing.assert_array_equal(res.residual, residual)


def test_clean_window_is_the_central_box():
    window = clean_window(64, 0.5)
    assert window.sum() == 32 * 32
    assert window[16:48, 16:48].all()
    assert clean_window(64, 0.0) is None
    assert clean_window(64, 1.0) is None


def test_clean_window_rejects_a_fraction_that_selects_no_pixel():
    with pytest.raises(ValueError, match="selects no pixel"):
        clean_window(64, 0.01)


def test_peak_normalised_psf_divides_by_the_centre():
    def dirty_image(unit):
        assert unit.shape == (3, 4, 5, 2, 2)
        assert np.array_equal(unit[..., 0, 0], unit[..., 1, 1])
        image = np.ones((8, 8))
        image[4, 4] = 4.0
        return image

    psf = peak_normalised_psf(dirty_image, (3, 4, 5))
    assert psf[4, 4] == 1.0
    assert psf[0, 0] == 0.25
    with pytest.raises(RuntimeError, match="PSF centre is zero"):
        peak_normalised_psf(lambda unit: np.zeros((8, 8)), (3, 4, 5))
