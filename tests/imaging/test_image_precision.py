"""The single-precision image plane against float64 references.

Every FT processor transforms, corrects and CLEANs at the precision of its
``COMPLEX_DTYPE`` grids.  These tests hold that image plane to the repo's
budgets: each reference below is built here in float64 from the same grids
(complex128 transforms, the 2-D ``grid_correction`` array, ``np.exp``
screens), so a difference is the image plane's own rounding and nothing
else.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.constants import COMPLEX_DTYPE, FLOAT_DTYPE
from repro.core.pipeline import IDG, IDGConfig
from repro.core.wstack import split_plan_by_w
from repro.gridspec import GridSpec
from repro.imaging import image as image_module
from repro.imaging.clean import hogbom_clean, peak_normalised_psf
from repro.imaging.image import (
    apply_grid_correction,
    dirty_image_from_grid,
    model_image_to_grid,
)
from repro.imaging.pipeline import ImagingContext, make_ftprocessor, plan_coverage
from repro.kernels.fft import centered_fft2, centered_ifft2
from repro.kernels.spheroidal import grid_correction, grid_correction_window
from repro.kernels.wkernel import n_term
from repro.sky.model import SkyModel, brightness_unpolarized_unit
from repro.sky.simulate import predict_visibilities
from repro.telescope.observation import ska1_low_observation

GRID = 128
N_W_PLANES = 4
KINDS = ("2d", "wstack", "facets", "wstack_facets")

#: CLEAN residuals against a float64 run: fraction of the dirty peak.
IMAGE_BUDGET = 1e-6
#: Dirty images against float64 transforms, inside the central 75%: the
#: correction amplifies the transform's rounding towards the edge, 149x at
#: the corners of that box, where this fixture measures 8.7e-7 (2-D) and
#: 1.07e-6 (w-stack) of the peak; inside the central half, 1.4e-7.
DIRTY_BUDGET = 2e-6
#: Predictions against the float64 transform path: the kernels' budget
#: (``tests/core/test_precision.py``).
PREDICT_BUDGET = 1e-5


@pytest.fixture(scope="module")
def field():
    """A wide field (w-terms matter) with four sources of mixed flux."""
    obs = ska1_low_observation(
        n_stations=8, n_times=16, n_channels=2, integration_time_s=120.0,
        max_radius_m=2000.0, seed=1,
    )
    gridspec = obs.fitting_gridspec(GRID, fill_factor=1.2)
    idg = IDG(gridspec, IDGConfig(subgrid_size=16, kernel_support=6, time_max=8))
    baselines = obs.array.baselines()
    dl = gridspec.pixel_scale
    pixels = np.array([(20, -14), (-9, 5), (3, 24), (-25, -20)], dtype=np.float64)
    flux = np.array([5.0, 3.0, 2.0, 1.5])
    sky = SkyModel(
        l=pixels[:, 0] * dl, m=pixels[:, 1] * dl,
        brightness=np.stack([brightness_unpolarized_unit(f) for f in flux]),
    )
    vis = predict_visibilities(obs.uvw_m, obs.frequencies_hz, sky, baselines=baselines)
    context = ImagingContext(
        idg=idg, uvw_m=obs.uvw_m, frequencies_hz=obs.frequencies_hz,
        baselines=baselines,
    )
    return context, vis


def _stokes_i(vis: np.ndarray) -> np.ndarray:
    """``0.5 (XX + YY)`` as ``(n_bl, T, C, 1, 1)`` complex64, rounded as
    the processors round it."""
    out = np.empty(vis.shape[:3] + (1, 1), dtype=COMPLEX_DTYPE)
    np.add(vis[..., 0, 0], vis[..., 1, 1], out=out[..., 0, 0])
    out *= 0.5
    return out


def _layers(context: ImagingContext, plan):
    return split_plan_by_w(plan, context.uvw_m, N_W_PLANES)


def _screens64(context: ImagingContext, layers) -> np.ndarray:
    """The complex128 definition ``exp(+2πi w_p n) / grid_correction``."""
    gs = context.idg.gridspec
    g = gs.grid_size
    coords = (np.arange(g) - g // 2) * (gs.image_size / g)
    n = n_term(coords[np.newaxis, :], coords[:, np.newaxis])
    w = np.array([layer.w_centre for layer in layers])
    return np.exp(2.0j * np.pi * w[:, np.newaxis, np.newaxis] * n) / grid_correction(g)


def _central(g: int) -> slice:
    margin = int(round(g * 0.125))
    return slice(margin, g - margin)


def _assert_close_in_centre(image: np.ndarray, reference: np.ndarray) -> None:
    inner = _central(reference.shape[0])
    difference = np.abs(image.astype(np.float64) - reference)[inner, inner]
    assert difference.max() <= DIRTY_BUDGET * np.abs(reference[inner, inner]).max()


# ----------------------------------------------------------- the correction


@pytest.mark.parametrize("taper", ("spheroidal", "kaiser-bessel"))
def test_separable_correction_matches_the_2d_array(taper):
    g = 96
    rng = np.random.default_rng(0)
    image = rng.standard_normal((2, g, g)) + 1j * rng.standard_normal((2, g, g))
    reference = image * 7.0 / grid_correction(g, taper=taper)
    window = grid_correction_window(g, taper=taper)
    assert np.array_equal(np.outer(window, window), grid_correction(g, taper=taper))
    corrected = apply_grid_correction(image.copy(), window, scale=7.0)
    np.testing.assert_allclose(corrected, reference, rtol=1e-15, atol=0)
    # complex64 is corrected in complex64, to single-precision rounding
    single = apply_grid_correction(image.astype(COMPLEX_DTYPE), window, scale=7.0)
    assert single.dtype == COMPLEX_DTYPE
    np.testing.assert_allclose(single, reference, rtol=3e-7, atol=0)
    # a real image, and a complex one whose pixel axis is strided
    real = apply_grid_correction(image.real.copy(), window, scale=7.0)
    np.testing.assert_allclose(real, reference.real, rtol=1e-15, atol=0)
    strided = np.asfortranarray(image[0])
    np.testing.assert_allclose(
        apply_grid_correction(strided, window, scale=7.0), reference[0], rtol=1e-15, atol=0
    )


def test_zero_window_entries_zero_their_rows_and_columns():
    g = 16
    taper = np.linspace(0.5, 1.0, g)
    taper[[0, 5]] = 0.0
    window = np.where(taper == 0.0, np.inf, taper)
    two_d = np.outer(taper, taper)
    two_d[two_d == 0.0] = np.inf  # what grid_correction does
    image = np.full((g, g), 3.0 - 2.0j, dtype=COMPLEX_DTYPE)
    reference = image.astype(np.complex128) / two_d
    corrected = apply_grid_correction(image, window)
    zeroed = reference == 0
    assert zeroed[[0, 5]].all() and zeroed[:, [0, 5]].all()
    assert np.array_equal(corrected == 0, zeroed)
    assert np.isfinite(corrected).all()
    np.testing.assert_allclose(corrected, reference, rtol=3e-7, atol=0)


# --------------------------------------------------------------- the dtypes


def test_precision_follows_the_grid():
    gs = GridSpec(grid_size=32, image_size=0.05)
    rng = np.random.default_rng(1)
    grid = (rng.standard_normal((1, 32, 32)) + 1j * rng.standard_normal((1, 32, 32)))
    double = dirty_image_from_grid(grid, gs, weight_sum=10.0)
    single = dirty_image_from_grid(grid.astype(COMPLEX_DTYPE), gs, weight_sum=10.0)
    assert double.dtype == np.float64
    assert single.dtype == FLOAT_DTYPE
    np.testing.assert_allclose(single, double, rtol=0, atol=1e-6 * np.abs(double).max())


@pytest.mark.parametrize("kind", KINDS)
def test_every_processor_images_in_float_dtype(field, kind):
    context, vis = field
    processor = make_ftprocessor(context, kind=kind)
    assert processor.invert(vis).image.dtype == FLOAT_DTYPE
    psf = peak_normalised_psf(lambda unit: processor.invert(unit).image, vis.shape[:3])
    assert psf.dtype == FLOAT_DTYPE


# ---------------------------------------------------- the real transforms


def _oracle_image(grid: np.ndarray, weight_sum: float, correct: bool) -> np.ndarray:
    """The float64 definition: the real part of the shifted complex inverse
    transform, scaled and divided by the 2-D correction."""
    g = grid.shape[-1]
    axes = (-2, -1)
    image = np.fft.fftshift(
        np.fft.ifft2(np.fft.ifftshift(grid.astype(np.complex128), axes=axes), axes=axes),
        axes=axes,
    ).real * (g * g / weight_sum)
    return image / grid_correction(g) if correct else image


def _oracle_grid(model: np.ndarray) -> np.ndarray:
    """The float64 definition of a model grid: the shifted complex forward
    transform of the model divided by the 2-D correction."""
    g = model.shape[-1]
    axes = (-2, -1)
    return np.fft.fftshift(
        np.fft.fft2(np.fft.ifftshift(model / grid_correction(g), axes=axes), axes=axes),
        axes=axes,
    )


def _random(shape, rng) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# G = 6 and 130 have an odd G/2, G = 10 and 64 an even one
@pytest.mark.parametrize("g", (6, 10, 64, 130))
@pytest.mark.parametrize("planes", (1, 4))
@pytest.mark.parametrize("dtype", (COMPLEX_DTYPE, np.complex128))
@pytest.mark.parametrize("correct", (True, False))
def test_dirty_image_matches_the_shifted_complex_transform(g, planes, dtype, correct):
    gs = GridSpec(grid_size=g, image_size=0.05)
    grid = _random((planes, g, g), np.random.default_rng(g)).astype(dtype)
    image = dirty_image_from_grid(grid, gs, weight_sum=37.0, correct_taper=correct)
    reference = _oracle_image(grid, 37.0, correct)
    assert image.shape == grid.shape
    assert image.dtype == np.finfo(dtype).dtype
    for plane, expected in zip(image, reference):
        if correct:
            _assert_close_in_centre(plane, expected)
        else:
            difference = np.abs(plane.astype(np.float64) - expected)
            assert difference.max() <= IMAGE_BUDGET * np.abs(expected).max()


@pytest.mark.parametrize("g", (6, 10, 64, 130))
@pytest.mark.parametrize("planes", (1, 4))
@pytest.mark.parametrize("dtype", (np.float64, FLOAT_DTYPE, np.complex128, COMPLEX_DTYPE))
def test_model_grid_matches_the_shifted_complex_transform(g, planes, dtype):
    gs = GridSpec(grid_size=g, image_size=0.05)
    model = _random((planes, g, g), np.random.default_rng(g))
    model = (model if np.dtype(dtype).kind == "c" else model.real).astype(dtype)
    grid = model_image_to_grid(model, gs)
    reference = _oracle_grid(model.astype(np.complex128))
    assert grid.shape == model.shape
    assert grid.dtype == COMPLEX_DTYPE
    assert np.abs(grid - reference).max() <= IMAGE_BUDGET * np.abs(reference).max()


def test_a_real_plane_gives_the_same_model_grid_alone_or_in_a_complex_stack():
    g = 64
    gs = GridSpec(grid_size=g, image_size=0.05)
    model = np.random.default_rng(5).standard_normal((g, g))
    stack = np.zeros((4, g, g), dtype=np.complex128)
    stack[0] = stack[3] = model
    one, four = model_image_to_grid(model, gs), model_image_to_grid(stack, gs)
    assert np.array_equal(four[0], one) and np.array_equal(four[3], one)
    assert not four[1].any() and not four[2].any()


def test_zero_taper_rows_and_columns_come_out_exactly_zero(monkeypatch):
    """Where the taper is zero (``inf`` in the window, here on an even and
    an odd row so both signs of the folded checkerboard occur), the dirty
    image is exactly zero and a model's pixels never reach its grid."""
    g = 64
    gs = GridSpec(grid_size=g, image_size=0.05)
    window = np.linspace(0.5, 1.0, g)
    window[[0, 5]] = np.inf  # what grid_correction_window makes of zeros
    monkeypatch.setattr(
        image_module, "grid_correction_window", lambda n, taper, beta: window.copy()
    )
    rng = np.random.default_rng(6)
    image = dirty_image_from_grid(_random((4, g, g), rng).astype(COMPLEX_DTYPE), gs, 9.0)
    assert np.isfinite(image).all()
    assert not image[:, [0, 5], :].any() and not image[:, :, [0, 5]].any()
    model = rng.standard_normal((g, g))
    grid = model_image_to_grid(model, gs)
    assert np.isfinite(grid.view(FLOAT_DTYPE)).all()
    cut = model.copy()
    cut[[0, 5]] = 0.0
    cut[:, [0, 5]] = 0.0
    assert np.array_equal(grid, model_image_to_grid(cut, gs))


def _peak_allocation(fn) -> int:
    fn()  # warm: the FFT plan caches and the window
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak


def test_1024_transforms_allocate_half_of_a_complex_transform():
    """At 1024² the complex path allocated 24 MiB for a dirty image (the
    complex64 image, a shifted copy and the transform's output) and 32 MiB
    for a model grid; the real transforms need at most 12 and 16 MiB,
    their results included."""
    g = 1024
    gs = GridSpec(grid_size=g, image_size=0.05)
    rng = np.random.default_rng(7)
    grid = _random((g, g), rng).astype(COMPLEX_DTYPE)
    model = rng.standard_normal((g, g))
    mib = 1 << 20
    assert _peak_allocation(lambda: dirty_image_from_grid(grid, gs, 1.0)) <= 12 * mib
    assert _peak_allocation(lambda: model_image_to_grid(model, gs)) <= 16 * mib


# ------------------------------------------------------- transforms, screens


def test_2d_dirty_image_matches_a_float64_transform(field):
    context, vis = field
    processor = make_ftprocessor(context, kind="2d")
    image = processor.invert(vis).image
    g = GRID
    weight_sum = processor.plan.statistics.n_visibilities_gridded
    grid = context.idg.grid(processor.plan, context.uvw_m, _stokes_i(vis))
    reference = np.real(
        centered_ifft2(grid[0].astype(np.complex128)) * (g * g / weight_sum)
        / grid_correction(g)
    )
    _assert_close_in_centre(image, reference)


def test_wstack_dirty_image_matches_a_float64_transform(field):
    context, vis = field
    processor = make_ftprocessor(context, kind="wstack", n_w_planes=N_W_PLANES)
    image = processor.invert(vis).image
    g = GRID
    layers = _layers(context, processor.plan)
    accum = np.zeros((g, g), dtype=np.complex128)
    for layer, screen in zip(layers, _screens64(context, layers)):
        grid = context.idg.grid(layer.plan, context.uvw_m, _stokes_i(vis))
        accum += centered_ifft2(grid[0].astype(np.complex128)) * screen
    weight_sum = processor.plan.statistics.n_visibilities_gridded
    reference = accum.real * (g * g / weight_sum)
    _assert_close_in_centre(image, reference)


def test_screens_match_the_complex128_definition(field):
    context, _ = field
    processor = make_ftprocessor(context, kind="wstack", n_w_planes=N_W_PLANES)
    screens = processor._field._layer_screens()
    reference = _screens64(context, processor._field.layers)
    assert screens.dtype == COMPLEX_DTYPE
    assert screens.shape == (N_W_PLANES, GRID, GRID)
    assert np.array_equal(screens == 0, reference == 0)
    assert (np.abs(screens - reference) / np.abs(reference)).max() <= 1e-6


# -------------------------------------------------------------- predictions


def _model(context: ImagingContext) -> np.ndarray:
    model = np.zeros((GRID, GRID))
    for row, col, flux in ((50, 84, 5.0), (69, 55, 3.0), (88, 67, 2.0)):
        model[row, col] = flux
    return model


def _degrid_one(context, plan, plane: np.ndarray) -> np.ndarray:
    """Degrid a float64-transformed plane, rounded once to complex64."""
    grid = plane.astype(COMPLEX_DTYPE)[np.newaxis]
    return context.idg.degrid(plan, context.uvw_m, grid)[..., 0, 0]


def test_2d_prediction_matches_the_float64_transform(field):
    context, _ = field
    processor = make_ftprocessor(context, kind="2d")
    model = _model(context)
    reference = _degrid_one(
        context, processor.plan, centered_fft2(model / grid_correction(GRID))
    )
    predicted = processor.predict(model)[..., 0, 0]
    covered = plan_coverage(processor.plan)
    peak = np.abs(reference[covered]).max()
    assert np.abs(predicted - reference)[covered].max() <= PREDICT_BUDGET * peak


def test_wstack_prediction_matches_the_float64_transform(field):
    context, _ = field
    processor = make_ftprocessor(context, kind="wstack", n_w_planes=N_W_PLANES)
    model = _model(context)
    layers = _layers(context, processor.plan)
    reference = np.zeros(context.uvw_m.shape[:2] + (context.frequencies_hz.size,),
                         dtype=np.complex128)
    for layer, screen in zip(layers, _screens64(context, layers)):
        reference += _degrid_one(context, layer.plan, centered_fft2(model * np.conj(screen)))
    predicted = processor.predict(model)[..., 0, 0]
    covered = plan_coverage(processor.plan)
    peak = np.abs(reference[covered]).max()
    assert np.abs(predicted - reference)[covered].max() <= PREDICT_BUDGET * peak


# -------------------------------------------------------------------- CLEAN


def test_float32_clean_matches_a_float64_run(field):
    context, vis = field
    processor = make_ftprocessor(context, kind="2d")
    dirty = processor.invert(vis).image
    psf = peak_normalised_psf(lambda unit: processor.invert(unit).image, vis.shape[:3])
    window = np.zeros((GRID, GRID), dtype=bool)
    window[_central(GRID), _central(GRID)] = True
    options = dict(gain=0.1, threshold=0.05, max_iterations=300, window=window)
    single = hogbom_clean(dirty, psf, **options)
    double = hogbom_clean(dirty.astype(np.float64), psf.astype(np.float64), **options)
    assert single.residual.dtype == FLOAT_DTYPE
    assert double.residual.dtype == np.float64
    assert single.components.dtype == single.model_image.dtype == np.float64
    assert len(single.components) > 50
    np.testing.assert_array_equal(single.components[:, :2], double.components[:, :2])
    np.testing.assert_allclose(
        single.components[:, 2], double.components[:, 2], rtol=1e-5, atol=0
    )
    peak = np.abs(dirty).max()
    assert np.abs(single.residual - double.residual).max() <= IMAGE_BUDGET * peak
