"""FTProcessor variants: 2-D, w-stacked, faceted, and their predict duals."""

from __future__ import annotations

import numpy as np
import pytest

import repro.imaging.pipeline as pipeline
from repro.core.pipeline import IDG, IDGConfig
from repro.imaging.cycle import ImagingCycle
from repro.imaging.image import model_image_to_grid
from repro.imaging.pipeline import (
    ImagingContext,
    invert_2d,
    invert_facets,
    invert_wstack,
    invert_wstack_facets,
    make_ftprocessor,
    plan_coverage,
    predict_2d,
    predict_facets,
    predict_wstack,
    predict_wstack_facets,
)
from repro.kernels.wkernel import n_term
from repro.sky.model import SkyModel
from repro.sky.simulate import predict_visibilities
from repro.telescope.observation import ska1_low_observation

GRID = 128
KINDS = ("2d", "wstack", "facets", "wstack_facets")


@pytest.fixture(scope="module")
def setup():
    obs = ska1_low_observation(
        n_stations=8, n_times=16, n_channels=2, integration_time_s=120.0,
        max_radius_m=2000.0, seed=1,
    )
    gridspec = obs.fitting_gridspec(GRID, fill_factor=1.2)
    idg = IDG(gridspec, IDGConfig(subgrid_size=16, kernel_support=6, time_max=8))
    baselines = obs.array.baselines()
    dl = gridspec.pixel_scale
    # off-centre so the source sits in a non-central facet
    sky = SkyModel.single(20 * dl, -14 * dl, flux=5.0)
    vis = predict_visibilities(obs.uvw_m, obs.frequencies_hz, sky,
                               baselines=baselines)
    return obs, idg, baselines, sky, vis


def _context(setup, zero_w: bool = False) -> ImagingContext:
    obs, idg, baselines, _, _ = setup
    uvw = obs.uvw_m
    if zero_w:
        uvw = np.array(uvw, copy=True)
        uvw[:, :, 2] = 0.0
    return ImagingContext(
        idg=idg, uvw_m=uvw, frequencies_hz=obs.frequencies_hz,
        baselines=baselines,
    )


def _source_pixel(setup):
    _, idg, _, sky, _ = setup
    dl = idg.gridspec.pixel_scale
    row = int(round(sky.m[0] / dl)) + GRID // 2
    col = int(round(sky.l[0] / dl)) + GRID // 2
    return row, col


INVERTS = {
    "2d": invert_2d,
    "wstack": invert_wstack,
    "facets": invert_facets,
    "wstack_facets": invert_wstack_facets,
}
PREDICTS = {
    "2d": predict_2d,
    "wstack": predict_wstack,
    "facets": predict_facets,
    "wstack_facets": predict_wstack_facets,
}


@pytest.mark.parametrize("kind", KINDS)
def test_invert_recovers_source_flux(setup, kind):
    ctx = _context(setup)
    result = INVERTS[kind](ctx, setup[4])
    # every kind returns the real (G, G) Stokes-I image; stokes_i aliases it
    assert result.image.shape == (GRID, GRID)
    assert result.image.dtype == np.float64
    assert result.stokes_i is result.image
    image = result.stokes_i
    row, col = _source_pixel(setup)
    peak = image[row, col]
    assert peak == pytest.approx(5.0, rel=0.05)
    # the source pixel is the image maximum
    assert np.unravel_index(np.argmax(image), image.shape) == (row, col)


@pytest.mark.parametrize("kind", ("wstack", "facets", "wstack_facets"))
def test_invert_agrees_with_2d_at_zero_w(setup, kind):
    """All wide-field decompositions degenerate to plain IDG when w == 0.

    The w-stack screen is unity at w = 0, so that variant matches the master
    image everywhere.  Faceted dirty images wrap sidelobes that fall outside
    the (smaller) facet field — inherent to mosaicing dirty images — so the
    facet variants are held to tight agreement in the signal region around
    the source and loose agreement globally.
    """
    ctx = _context(setup, zero_w=True)
    reference = invert_2d(ctx, setup[4]).stokes_i
    image = INVERTS[kind](ctx, setup[4]).stokes_i
    peak = float(np.abs(reference).max())
    difference = np.abs(image - reference)
    if kind == "wstack":
        assert difference.max() < 0.02 * peak
    else:
        row, col = _source_pixel(setup)
        assert difference[row - 10 : row + 10, col - 10 : col + 10].max() < 0.005 * peak
        assert difference.max() < 0.25 * peak


@pytest.mark.parametrize("kind", ("wstack", "facets", "wstack_facets"))
def test_predict_agrees_with_2d_at_zero_w(setup, kind):
    ctx = _context(setup, zero_w=True)
    row, col = _source_pixel(setup)
    model = np.zeros((GRID, GRID))
    model[row, col] = 5.0
    processor = make_ftprocessor(ctx, kind="2d")
    covered = plan_coverage(processor.plan)
    reference = processor.predict(model)[..., 0, 0][covered]
    predicted = PREDICTS[kind](ctx, model)[..., 0, 0][covered]
    assert np.abs(predicted - reference).max() < 0.02 * np.abs(reference).max()


@pytest.mark.parametrize("kind", KINDS)
def test_predict_matches_direct_evaluation(setup, kind):
    """Degridding a point-source model reproduces Eq.-1 visibilities on the
    samples the plan covers."""
    ctx = _context(setup)
    row, col = _source_pixel(setup)
    model = np.zeros((GRID, GRID))
    model[row, col] = 5.0
    processor = make_ftprocessor(ctx, kind=kind)
    covered = plan_coverage(processor.plan)
    predicted = processor.predict(model)[..., 0, 0][covered]
    truth = setup[4][..., 0, 0][covered]
    err = np.abs(predicted - truth).max() / np.abs(truth).max()
    assert err < 0.02
    # predict takes a (G, G) Stokes-I model only
    with pytest.raises(ValueError, match="Stokes-I"):
        processor.predict(np.zeros((4, GRID, GRID)))


def test_2d_predict_equals_the_four_plane_model_grid(setup):
    """Transforming the Stokes-I model once and writing it into XX and YY
    gives the grid of the four-plane XX = YY = I model, bit for bit."""
    ctx = _context(setup)
    idg = ctx.idg
    processor = make_ftprocessor(ctx, kind="2d")
    model = np.random.default_rng(3).standard_normal((GRID, GRID))  # dense
    model4 = np.zeros((4, GRID, GRID), dtype=np.complex128)
    model4[0] = model4[3] = model
    grid = model_image_to_grid(
        model4, idg.gridspec, taper=idg.config.taper, taper_beta=idg.config.taper_beta
    )
    reference = idg.degrid(processor.plan, ctx.uvw_m, grid)
    assert np.array_equal(processor.predict(model), reference)


def test_wstack_screens_are_built_once(setup, monkeypatch):
    """Each w-layer's screen is computed on first use and reused by every
    later invert and predict of the processor."""
    calls = []

    def counting_n_term(l, m):
        calls.append(1)
        return n_term(l, m)

    monkeypatch.setattr(pipeline, "n_term", counting_n_term)
    processor = make_ftprocessor(_context(setup), kind="wstack")
    row, col = _source_pixel(setup)
    model = np.zeros((GRID, GRID))
    model[row, col] = 5.0
    first = processor.invert(setup[4]).image
    processor.predict(model)
    again = processor.invert(setup[4]).image
    assert len(calls) == 1
    assert np.array_equal(first, again)


def test_invert_matches_imaging_cycle_dirty_path(setup):
    """The 2-D processor is the same math as ImagingCycle's direct path."""
    obs, idg, baselines, _, vis = setup
    ctx = _context(setup)
    cycle = ImagingCycle(idg, obs.uvw_m, obs.frequencies_hz, baselines)
    direct = cycle.make_dirty_image(vis)
    result = invert_2d(ctx, vis)
    np.testing.assert_allclose(result.stokes_i, direct, atol=1e-6)
    assert result.weight_sum == pytest.approx(
        float(cycle.plan.statistics.n_visibilities_gridded)
    )


def test_imaging_cycle_delegates_to_processor(setup):
    obs, idg, baselines, _, vis = setup
    ctx = _context(setup)
    processor = make_ftprocessor(ctx, kind="2d")
    cycle = ImagingCycle(
        idg, obs.uvw_m, obs.frequencies_hz, baselines, processor=processor
    )
    np.testing.assert_array_equal(
        cycle.make_dirty_image(vis), processor.invert(vis).stokes_i
    )
    row, col = _source_pixel(setup)
    model = np.zeros((GRID, GRID))
    model[row, col] = 5.0
    np.testing.assert_array_equal(cycle.predict(model), processor.predict(model))


def test_uniform_weights_cancel_in_normalisation(setup):
    ctx = _context(setup)
    vis = setup[4]
    plain = invert_2d(ctx, vis)
    weights = np.full(vis.shape[:3], 2.0)
    weighted = invert_2d(ctx, vis, weights=weights)
    np.testing.assert_allclose(
        weighted.stokes_i, plain.stokes_i, atol=1e-6
    )
    assert weighted.weight_sum == pytest.approx(2.0 * plain.weight_sum)


def test_flags_exclude_samples(setup):
    ctx = _context(setup)
    vis = np.array(setup[4], copy=True)
    flags = np.zeros(vis.shape[:3], dtype=bool)
    flags[0] = True
    # corrupt the flagged block: it must not leak into the image
    vis[0] = 1e6
    image = invert_2d(ctx, vis, flags=flags).stokes_i
    row, col = _source_pixel(setup)
    assert image[row, col] == pytest.approx(5.0, rel=0.05)


def test_make_ftprocessor_rejects_unknown_kind(setup):
    ctx = _context(setup)
    with pytest.raises(ValueError, match="kind"):
        make_ftprocessor(ctx, kind="chirp-z")


def test_context_rejects_unknown_executor(setup):
    obs, idg, baselines, _, _ = setup
    with pytest.raises(ValueError, match="executor"):
        ImagingContext(
            idg=idg, uvw_m=obs.uvw_m, frequencies_hz=obs.frequencies_hz,
            baselines=baselines, executor="gpu",
        )
