"""Unit/integration tests for W-stacked IDG (paper Section IV).

The layer split lives in :mod:`repro.core.wstack`; the imaging tests run it
through :class:`repro.imaging.pipeline.WStackFTProcessor`.
"""

import numpy as np
import pytest

from repro.core.pipeline import IDG, IDGConfig
from repro.core.wstack import item_mean_w, split_plan_by_w
from repro.imaging.image import find_peak, stokes_i_image
from repro.imaging.pipeline import (
    ImagingContext,
    TwoDimFTProcessor,
    WStackFTProcessor,
    plan_coverage,
)
from repro.kernels.fft import centered_fft2, centered_ifft2
from repro.kernels.spheroidal import grid_correction
from repro.kernels.wkernel import n_term
from repro.sky.model import SkyModel
from repro.sky.simulate import predict_visibilities
from repro.telescope.observation import ska1_low_observation


@pytest.fixture(scope="module")
def wide_field():
    """A compact, wide-field observation where w-terms genuinely bite
    (w kernel support ~6 cells against a 16-pixel subgrid)."""
    obs = ska1_low_observation(
        n_stations=14, n_times=48, n_channels=4,
        integration_time_s=300.0, max_radius_m=600.0, seed=3,
    )
    gs = obs.fitting_gridspec(512)
    dl = gs.pixel_scale
    l0 = round(0.25 * gs.image_size / dl) * dl
    m0 = round(0.20 * gs.image_size / dl) * dl
    sky = SkyModel.single(l0, m0, flux=1.0)
    bl = obs.array.baselines()
    vis = predict_visibilities(obs.uvw_m, obs.frequencies_hz, sky, baselines=bl)
    idg = IDG(gs, IDGConfig(subgrid_size=16, kernel_support=4, time_max=8))
    g = gs.grid_size
    model = np.zeros((g, g))  # Stokes I
    model[round(m0 / dl) + g // 2, round(l0 / dl) + g // 2] = 1.0
    return obs, gs, idg, bl, vis, model, (l0, m0)


def _context(idg, obs, baselines):
    return ImagingContext(idg, obs.uvw_m, obs.frequencies_hz, baselines)


def _coverage(layers, shape):
    covered = np.zeros(shape, dtype=int)
    for layer in layers:
        for item in layer.plan:
            covered[
                item.baseline, item.time_start : item.time_end,
                item.channel_start : item.channel_end,
            ] += 1
    return covered


def _predict_rms(processor, vis, model):
    pred = processor.predict(model)
    sel = plan_coverage(processor.plan)[..., None, None] & np.ones_like(vis, bool)
    scale = np.sqrt((np.abs(vis[sel]) ** 2).mean())
    return np.sqrt((np.abs(pred[sel] - vis[sel]) ** 2).mean()) / scale


def test_layers_partition_work_items(wide_field):
    obs, gs, idg, bl, vis, model, _ = wide_field
    base_plan = idg.make_plan(obs.uvw_m, obs.frequencies_hz, bl)
    layers = split_plan_by_w(base_plan, obs.uvw_m, n_planes=6)
    assert sum(layer.n_subgrids for layer in layers) == base_plan.n_subgrids
    # every covered visibility is covered exactly once across layers
    covered = _coverage(layers, vis.shape[:3])
    assert np.all((covered == 1) | base_plan.flagged)


def test_items_assigned_to_nearest_plane(wide_field):
    obs, gs, idg, bl, *_ = wide_field
    plan = idg.make_plan(obs.uvw_m, obs.frequencies_hz, bl)
    layers = split_plan_by_w(plan, obs.uvw_m, n_planes=8)
    centres = np.array([layer.w_centre for layer in layers])
    for layer in layers:
        w_items = item_mean_w(layer.plan, obs.uvw_m)
        for w in w_items:
            assert np.abs(w - layer.w_centre) == pytest.approx(
                np.abs(w - centres).min(), abs=1e-9
            )
        assert layer.plan.w_offset == layer.w_centre


def test_more_planes_improve_prediction(wide_field):
    """The Section IV trade: more w planes -> smaller residual w per subgrid
    -> higher accuracy at fixed (small) subgrid size."""
    obs, gs, idg, bl, vis, model, _ = wide_field
    ctx = _context(idg, obs, bl)
    rms = {1: _predict_rms(TwoDimFTProcessor(ctx), vis, model)}
    for planes in (4, 16):
        rms[planes] = _predict_rms(
            WStackFTProcessor(ctx, n_w_planes=planes), vis, model
        )
    assert rms[4] < rms[1] / 3
    assert rms[16] < rms[4] / 2
    assert rms[16] < 1e-3


def test_larger_subgrids_substitute_for_planes(wide_field):
    """The other side of the trade (the paper's headline for Section IV):
    a larger subgrid with few planes matches a small subgrid with many."""
    obs, gs, idg, bl, vis, model, _ = wide_field
    small_many = WStackFTProcessor(_context(idg, obs, bl), n_w_planes=16)
    rms_small_many = _predict_rms(small_many, vis, model)

    big_idg = IDG(gs, IDGConfig(subgrid_size=48, kernel_support=12, time_max=8))
    big_few = WStackFTProcessor(_context(big_idg, obs, bl), n_w_planes=2)
    rms_big_few = _predict_rms(big_few, vis, model)
    assert rms_big_few < 3 * rms_small_many
    assert rms_big_few < 2e-3


def test_image_recovers_source(wide_field):
    obs, gs, idg, bl, vis, model, (l0, m0) = wide_field
    image = WStackFTProcessor(_context(idg, obs, bl), n_w_planes=8).invert(vis).stokes_i
    row, col, value = find_peak(image)
    g, dl = gs.grid_size, gs.pixel_scale
    assert (row, col) == (round(m0 / dl) + g // 2, round(l0 / dl) + g // 2)
    assert value == pytest.approx(1.0, rel=0.02)


def test_single_layer_split_is_the_whole_plan(wide_field):
    """One plane degenerates to the whole plan, shifted to the middle of
    its per-item w range."""
    obs, gs, idg, bl, *_ = wide_field
    plan = idg.make_plan(obs.uvw_m, obs.frequencies_hz, bl)
    (layer,) = split_plan_by_w(plan, obs.uvw_m, n_planes=1)
    assert layer.n_subgrids == plan.n_subgrids
    w_item = item_mean_w(plan, obs.uvw_m)
    assert layer.w_centre == pytest.approx(0.5 * (w_item.min() + w_item.max()))
    assert layer.plan.w_offset == layer.w_centre


def test_single_plane_matches_plain_idg_when_w_small(small_idg, small_obs,
                                                     small_baselines,
                                                     single_source_vis):
    """Asking for one plane gives the minimal stack, two layers (the
    one-layer split itself is checked above).  At small w it matches plain
    2-D IDG: each layer's w shift is exactly undone by its image-domain
    correction."""
    ctx = _context(small_idg, small_obs, small_baselines)
    stacked = WStackFTProcessor(ctx, n_w_planes=1).invert(single_source_vis).stokes_i
    plain = TwoDimFTProcessor(ctx).invert(single_source_vis).stokes_i
    g = small_idg.gridspec.grid_size
    inner = slice(g // 8, -g // 8)
    np.testing.assert_allclose(stacked[inner, inner], plain[inner, inner], atol=5e-3)


def test_validation(small_idg, small_obs, small_baselines, wide_field):
    obs, gs, idg, bl, vis, model, _ = wide_field
    with pytest.raises(ValueError):
        WStackFTProcessor(_context(small_idg, small_obs, small_baselines), n_w_planes=0)
    processor = WStackFTProcessor(_context(idg, obs, bl), n_w_planes=2)
    with pytest.raises(ValueError):
        processor.predict(np.zeros((4, 16, 16)))
    with pytest.raises(ValueError):
        split_plan_by_w(processor.plan, obs.uvw_m, 0)


# ------------------------------------- one Stokes-I plane per w-layer


def _four_plane_layers(idg, obs, processor, n_planes):
    """The processor's w-layers, their ``exp(2πi w n)`` screens and the
    taper correction, computed independently of the processor."""
    gs = idg.gridspec
    g = gs.grid_size
    coords = (np.arange(g) - g // 2) * (gs.image_size / g)
    n = n_term(coords[np.newaxis, :], coords[:, np.newaxis])
    layers = split_plan_by_w(processor.plan, obs.uvw_m, n_planes)
    w = np.array([layer.w_centre for layer in layers])
    screens = np.exp(2j * np.pi * w[:, np.newaxis, np.newaxis] * n)
    correction = grid_correction(g, taper=idg.config.taper, beta=idg.config.taper_beta)
    return layers, screens, correction


def _four_plane_invert(idg, obs, processor, vis, n_planes):
    """Stokes I of the w-stacked image of all four correlation planes."""
    layers, screens, correction = _four_plane_layers(idg, obs, processor, n_planes)
    g = idg.gridspec.grid_size
    accum = np.zeros((4, g, g), dtype=np.complex128)
    for layer, screen in zip(layers, screens):
        grid = idg.grid(layer.plan, obs.uvw_m, vis)
        accum += centered_ifft2(grid) * (g * g) * screen
    weight = processor.plan.statistics.n_visibilities_gridded
    return stokes_i_image(accum / weight / correction)


def _four_plane_predict(idg, obs, processor, model, n_planes):
    """w-stacked prediction of the XX = YY = I model with all four planes."""
    layers, screens, correction = _four_plane_layers(idg, obs, processor, n_planes)
    g = idg.gridspec.grid_size
    model4 = np.zeros((4, g, g), dtype=np.complex128)
    model4[0] = model4[3] = model
    pre = model4 / correction
    out = 0
    for layer, screen in zip(layers, screens):
        grid = centered_fft2(pre * np.conj(screen)).astype(np.complex64)
        out = out + idg.degrid(layer.plan, obs.uvw_m, grid)
    return out


def test_one_plane_invert_equals_four_planes_unpolarised(wide_field):
    obs, gs, idg, bl, vis, model, _ = wide_field
    processor = WStackFTProcessor(_context(idg, obs, bl), n_w_planes=4)
    reference = _four_plane_invert(idg, obs, processor, vis, 4)
    image = processor.invert(vis).image
    peak = np.abs(reference).max()
    assert np.abs(image - reference).max() <= 1e-12 * peak


def test_one_plane_invert_of_a_polarised_set(wide_field):
    """With XX != YY, 0.5 (XX + YY) is rounded to float32 before the FFT
    instead of after.  The taper correction amplifies that rounding at the
    edges, so compare inside the central 75%."""
    obs, gs, idg, bl, vis, model, _ = wide_field
    polarised = vis.copy()
    polarised[..., 1, 1] *= 0.3
    polarised[..., 0, 1] = 0.5j * vis[..., 0, 0]
    processor = WStackFTProcessor(_context(idg, obs, bl), n_w_planes=4)
    reference = _four_plane_invert(idg, obs, processor, polarised, 4)
    image = processor.invert(polarised).image
    g = gs.grid_size
    inner = slice(g // 8, g - g // 8)
    peak = np.abs(reference).max()
    assert np.abs(image - reference)[inner, inner].max() <= 1e-6 * peak


def test_one_plane_predict_equals_four_planes(wide_field):
    obs, gs, idg, bl, vis, model, _ = wide_field
    processor = WStackFTProcessor(_context(idg, obs, bl), n_w_planes=4)
    reference = _four_plane_predict(idg, obs, processor, model, 4)
    predicted = processor.predict(model)
    assert predicted.dtype == reference.dtype
    for part in (np.real, np.imag):
        np.testing.assert_array_max_ulp(part(predicted), part(reference), maxulp=1)
