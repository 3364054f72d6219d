"""FTProcessor variants: 2-D, w-stacked, faceted, and their predict duals."""

from __future__ import annotations

import numpy as np
import pytest

import repro.imaging.pipeline as pipeline
from repro.aterms.generators import GainATerm, GaussianBeamATerm, LeakageATerm
from repro.aterms.schedule import ATermSchedule
from repro.constants import FLOAT_DTYPE
from repro.core.pipeline import IDG, IDGConfig
from repro.imaging.cycle import ImagingCycle
from repro.imaging.image import dirty_image_from_grid, model_image_to_grid
from repro.imaging.pipeline import ImagingContext, make_ftprocessor, plan_coverage
from repro.kernels.spheroidal import grid_correction
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


@pytest.mark.parametrize("kind", KINDS)
def test_invert_recovers_source_flux(setup, kind):
    ctx = _context(setup)
    result = make_ftprocessor(ctx, kind).invert(setup[4])
    # every kind returns the real (G, G) Stokes-I image at the grids'
    # single precision
    image = result.image
    assert image.shape == (GRID, GRID)
    assert image.dtype == FLOAT_DTYPE
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
    reference = make_ftprocessor(ctx, "2d").invert(setup[4]).image
    image = make_ftprocessor(ctx, kind).invert(setup[4]).image
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
    predicted = make_ftprocessor(ctx, kind).predict(model)[..., 0, 0][covered]
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
    """Transforming the Stokes-I model once onto one plane and degridding
    that one correlation predicts the four-plane XX = YY = I model grid's
    visibilities to single-precision rounding (the one-column products
    round differently from the four-column ones), so the comparison is the
    kernels' precision budget, 1e-5 of peak, not bit for bit."""
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
    predicted = processor.predict(model)
    peak = np.abs(reference).max()
    assert np.abs(predicted - reference).max() <= 1e-5 * peak
    assert not predicted[..., 0, 1].any() and not predicted[..., 1, 0].any()
    assert np.array_equal(predicted[..., 0, 0], predicted[..., 1, 1])


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
    result = make_ftprocessor(ctx, "2d").invert(vis)
    np.testing.assert_allclose(result.image, direct, atol=1e-6)
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
        cycle.make_dirty_image(vis), processor.invert(vis).image
    )
    row, col = _source_pixel(setup)
    model = np.zeros((GRID, GRID))
    model[row, col] = 5.0
    np.testing.assert_array_equal(cycle.predict(model), processor.predict(model))


def test_uniform_weights_cancel_in_normalisation(setup):
    ctx = _context(setup)
    vis = setup[4]
    processor = make_ftprocessor(ctx, "2d")
    plain = processor.invert(vis)
    weights = np.full(vis.shape[:3], 2.0)
    weighted = processor.invert(vis, weights=weights)
    np.testing.assert_allclose(weighted.image, plain.image, atol=1e-6)
    assert weighted.weight_sum == pytest.approx(2.0 * plain.weight_sum)


def test_flags_exclude_samples(setup):
    ctx = _context(setup)
    vis = np.array(setup[4], copy=True)
    flags = np.zeros(vis.shape[:3], dtype=bool)
    flags[0] = True
    # corrupt the flagged block: it must not leak into the image
    vis[0] = 1e6
    image = make_ftprocessor(ctx, "2d").invert(vis, flags=flags).image
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


# ------------------------------------- Stokes I on one correlation


def _gain_aterm(setup):
    obs = setup[0]
    rng = np.random.default_rng(8)
    n_stations = obs.array.n_stations
    gains = (1.0 + 0.2 * rng.standard_normal((2, n_stations))) * np.exp(
        1j * rng.uniform(-0.5, 0.5, (2, n_stations))
    )
    return GainATerm(gains, mode="calibrate")


def _beam_aterm(setup):
    return GaussianBeamATerm(
        fwhm=1.5 * setup[1].gridspec.image_size, gain_drift_rms=0.05
    )


ATERMS = {
    "none": lambda setup: None,
    "gain": _gain_aterm,
    "beam": _beam_aterm,
    "leakage": lambda setup: LeakageATerm(
        0.05, field_of_view=setup[1].gridspec.image_size
    ),
}


def _aterm_context(setup, aterms) -> ImagingContext:
    obs, idg, baselines, _, _ = setup
    return ImagingContext(
        idg=idg, uvw_m=obs.uvw_m, frequencies_hz=obs.frequencies_hz,
        baselines=baselines, aterms=aterms, aterm_schedule=ATermSchedule(8),
    )


@pytest.fixture
def correlations(monkeypatch):
    """The correlation count of every serial grid and degrid call."""
    seen = []
    grid, degrid = IDG.grid, IDG.degrid

    def recording_grid(self, plan, uvw_m, visibilities, *args, **kwargs):
        seen.append(visibilities.shape[-1] ** 2)
        return grid(self, plan, uvw_m, visibilities, *args, **kwargs)

    def recording_degrid(self, plan, uvw_m, model_grid, *args, **kwargs):
        seen.append(model_grid.shape[0])
        return degrid(self, plan, uvw_m, model_grid, *args, **kwargs)

    monkeypatch.setattr(IDG, "grid", recording_grid)
    monkeypatch.setattr(IDG, "degrid", recording_degrid)
    return seen


@pytest.mark.parametrize("aterm", ["none", "gain", "beam"])
def test_one_correlation_invert_and_predict_match_four(setup, aterm, correlations):
    """With no A-terms or scalar fields the 2-D processor grids and degrids
    the one correlation 0.5 (XX + YY).  Its image differs from the
    four-correlation grid's Stokes I by single-precision rounding: within
    1e-6 of peak once the taper correction is undone (the correction
    divides by a taper of 0.08 at the edge of the central 75% of this
    grid, and amplifies the rounding there to about 1.2e-6 of peak with
    gains).  Its prediction is within 1e-5 of peak of the four-correlation
    XX = YY = I model's."""
    obs, idg, _, _, vis = setup
    aterms = ATERMS[aterm](setup)
    processor = make_ftprocessor(_aterm_context(setup, aterms), kind="2d")
    result = processor.invert(vis)
    row, col = _source_pixel(setup)
    model = np.zeros((GRID, GRID))
    model[row, col] = 5.0
    predicted = processor.predict(model)
    assert correlations == [1, 1]

    plan = processor.plan
    grid4 = idg.grid(plan, obs.uvw_m, vis, aterms=aterms)
    image4 = np.real(dirty_image_from_grid(
        0.5 * (grid4[0] + grid4[3]), idg.gridspec, weight_sum=result.weight_sum,
        taper=idg.config.taper, taper_beta=idg.config.taper_beta,
    ))
    correction = grid_correction(
        GRID, taper=idg.config.taper, beta=idg.config.taper_beta
    )
    peak = np.abs(image4).max()
    assert np.abs((result.image - image4) * correction).max() <= 1e-6 * peak

    model4 = np.zeros((4, GRID, GRID), dtype=np.complex64)
    model4[0] = model4[3] = model_image_to_grid(
        model, idg.gridspec, taper=idg.config.taper, taper_beta=idg.config.taper_beta
    )
    predicted4 = idg.degrid(plan, obs.uvw_m, model4, aterms=aterms)
    peak = np.abs(predicted4).max()
    assert np.abs(predicted - predicted4).max() <= 1e-5 * peak
    assert not predicted[..., 0, 1].any() and not predicted[..., 1, 0].any()
    assert np.array_equal(predicted[..., 0, 0], predicted[..., 1, 1])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("aterm", ["gain", "leakage"])
def test_scalar_aterms_take_one_correlation_and_leakage_four(
    setup, kind, aterm, correlations
):
    """Every processor kind grids and degrids one correlation under a
    scalar field; a leakage field mixes the correlations, so it keeps all
    four, with the same Stokes-I contract."""
    processor = make_ftprocessor(
        _aterm_context(setup, ATERMS[aterm](setup)), kind=kind
    )
    image = processor.invert(setup[4]).image
    predicted = processor.predict(np.zeros((GRID, GRID)))
    expected = 1 if aterm == "gain" else 4
    assert correlations and set(correlations) == {expected}
    assert image.shape == (GRID, GRID) and np.isfinite(image).all()
    assert predicted.shape == setup[4].shape
