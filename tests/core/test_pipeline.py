"""Integration tests for the IDG facade: accuracy against the oracle."""

import numpy as np
import pytest

from repro.aterms.generators import GaussianBeamATerm, IonosphereATerm
from repro.aterms.schedule import ATermSchedule
from repro.core.pipeline import IDG, IDGConfig
from repro.imaging.image import (
    dirty_image_from_grid,
    find_peak,
    model_image_to_grid,
    stokes_i_image,
)
from repro.sky.simulate import predict_visibilities


def test_config_validation():
    with pytest.raises(ValueError):
        IDGConfig(subgrid_size=23)
    with pytest.raises(ValueError):
        IDGConfig(kernel_support=24, subgrid_size=24)
    with pytest.raises(ValueError):
        IDGConfig(time_max=0)


def test_with_config_returns_modified_copy(small_idg):
    other = small_idg.with_config(subgrid_size=32)
    assert other.config.subgrid_size == 32
    assert small_idg.config.subgrid_size == 24
    assert other.taper.shape == (32, 32)


def test_grid_shape_and_dtype(small_idg, small_plan, small_obs, single_source_vis):
    grid = small_idg.grid(small_plan, small_obs.uvw_m, single_source_vis)
    g = small_idg.gridspec.grid_size
    assert grid.shape == (4, g, g)
    assert grid.dtype == np.complex64
    assert np.abs(grid).max() > 0


def test_grid_input_validation(small_idg, small_plan, small_obs, single_source_vis):
    with pytest.raises(ValueError):
        small_idg.grid(small_plan, small_obs.uvw_m, single_source_vis[:, :, :2])
    with pytest.raises(ValueError):
        small_idg.grid(small_plan, small_obs.uvw_m[..., :2], single_source_vis)
    # the trailing shape is the correlation count: (1, 1) or (2, 2) only
    for trailing in ((2, 1), (3, 3), (4,)):
        vis = np.zeros(single_source_vis.shape[:3] + trailing, dtype=np.complex64)
        with pytest.raises(ValueError):
            small_idg.grid(small_plan, small_obs.uvw_m, vis)


def test_one_correlation_grid_and_degrid_shapes(
    small_idg, small_plan, small_obs, single_source_vis
):
    """(..., 1, 1) visibilities grid onto a (1, G, G) grid, which is the
    Stokes-I plane of the four-correlation grid to single precision, and a
    (1, G, G) grid degrids into (..., 1, 1) visibilities."""
    stokes_i = 0.5 * (single_source_vis[..., 0, 0] + single_source_vis[..., 1, 1])
    vis = stokes_i[..., np.newaxis, np.newaxis].astype(np.complex64)
    grid = small_idg.grid(small_plan, small_obs.uvw_m, vis)
    g = small_idg.gridspec.grid_size
    assert grid.shape == (1, g, g) and grid.dtype == np.complex64
    four = small_idg.grid(small_plan, small_obs.uvw_m, single_source_vis)
    plane = 0.5 * (four[0] + four[3])
    assert np.abs(grid[0] - plane).max() <= 1e-5 * np.abs(plane).max()
    predicted = small_idg.degrid(small_plan, small_obs.uvw_m, grid)
    assert predicted.shape == vis.shape
    with pytest.raises(ValueError):
        small_idg.degrid(small_plan, small_obs.uvw_m, np.zeros((2, g, g), np.complex64))
    with pytest.raises(ValueError, match="out shape"):
        small_idg.degrid(
            small_plan, small_obs.uvw_m, grid, out=np.zeros_like(single_source_vis)
        )


def test_dirty_image_recovers_source_position_and_flux(
    small_idg, small_plan, small_obs, single_source_vis, snapped_source, small_gridspec
):
    l0, m0, flux = snapped_source
    grid = small_idg.grid(small_plan, small_obs.uvw_m, single_source_vis)
    image = stokes_i_image(
        dirty_image_from_grid(
            grid, small_gridspec,
            weight_sum=small_plan.statistics.n_visibilities_gridded,
        )
    )
    row, col, value = find_peak(image)
    g = small_gridspec.grid_size
    dl = small_gridspec.pixel_scale
    assert (row, col) == (round(m0 / dl) + g // 2, round(l0 / dl) + g // 2)
    assert value == pytest.approx(flux, rel=0.01)


def test_degrid_matches_direct_measurement_equation(
    small_idg, small_plan, small_obs, single_source_vis, snapped_source, small_gridspec
):
    """The headline accuracy test: IDG degridding of a point-source model must
    reproduce the analytic measurement equation to sub-percent error."""
    l0, m0, flux = snapped_source
    g = small_gridspec.grid_size
    dl = small_gridspec.pixel_scale
    model = np.zeros((4, g, g), dtype=np.complex128)
    model[0, round(m0 / dl) + g // 2, round(l0 / dl) + g // 2] = flux
    model[3, round(m0 / dl) + g // 2, round(l0 / dl) + g // 2] = flux
    mgrid = model_image_to_grid(model, small_gridspec)
    predicted = small_idg.degrid(small_plan, small_obs.uvw_m, mgrid)
    mask = ~small_plan.flagged
    err = np.abs(predicted[mask] - single_source_vis[mask])
    scale = np.abs(single_source_vis[mask]).max()
    assert err.max() / scale < 5e-3
    rms = np.sqrt((err**2).mean()) / np.sqrt((np.abs(single_source_vis[mask]) ** 2).mean())
    assert rms < 1e-3


def test_degrid_flagged_entries_zero(small_idg, small_obs, small_baselines, small_gridspec):
    config = IDGConfig(subgrid_size=4, kernel_support=2, time_max=4)
    idg = IDG(small_gridspec, config)
    plan = idg.make_plan(small_obs.uvw_m, small_obs.frequencies_hz, small_baselines)
    if not plan.flagged.any():
        pytest.skip("tiny subgrid produced no flagged visibilities")
    g = small_gridspec.grid_size
    grid = np.ones((4, g, g), dtype=np.complex64)
    out = idg.degrid(plan, small_obs.uvw_m, grid)
    assert np.all(out[plan.flagged] == 0)


def test_grid_accumulate_into_existing(small_idg, small_plan, small_obs, single_source_vis):
    g1 = small_idg.grid(small_plan, small_obs.uvw_m, single_source_vis)
    g2 = small_idg.grid(small_plan, small_obs.uvw_m, single_source_vis, grid=g1.copy())
    np.testing.assert_allclose(g2, 2 * g1, atol=1e-4)


def test_work_group_size_invariance(small_idg, small_plan, small_obs, single_source_vis):
    grid_a = small_idg.grid(small_plan, small_obs.uvw_m, single_source_vis)
    idg_b = small_idg.with_config(work_group_size=3)
    grid_b = idg_b.grid(small_plan, small_obs.uvw_m, single_source_vis)
    np.testing.assert_allclose(grid_a, grid_b, atol=1e-5)


def test_grid_with_beam_aterms_accuracy(small_obs, small_baselines, small_gridspec):
    """Degridding with a non-trivial A-term must match the corrupted oracle."""
    beam = GaussianBeamATerm(fwhm=1.2 * small_gridspec.image_size, gain_drift_rms=0.05, seed=9)
    schedule = ATermSchedule(8)
    gs = small_gridspec
    dl = gs.pixel_scale
    l0 = round(0.1 * gs.image_size / dl) * dl
    m0 = round(0.12 * gs.image_size / dl) * dl
    from repro.sky.model import SkyModel

    sky = SkyModel.single(l0, m0, flux=1.0)
    vis = predict_visibilities(
        small_obs.uvw_m, small_obs.frequencies_hz, sky,
        baselines=small_baselines, aterms=beam, schedule=schedule,
    )
    idg = IDG(gs, IDGConfig(subgrid_size=24, kernel_support=8, time_max=16))
    plan = idg.make_plan(
        small_obs.uvw_m, small_obs.frequencies_hz, small_baselines, aterm_schedule=schedule
    )
    g = gs.grid_size
    model = np.zeros((4, g, g), dtype=np.complex128)
    model[0, round(m0 / dl) + g // 2, round(l0 / dl) + g // 2] = 1.0
    model[3, round(m0 / dl) + g // 2, round(l0 / dl) + g // 2] = 1.0
    mgrid = model_image_to_grid(model, gs)
    predicted = idg.degrid(plan, small_obs.uvw_m, mgrid, aterms=beam)
    mask = ~plan.flagged
    err = np.abs(predicted[mask] - vis[mask])
    rms = np.sqrt((err**2).mean()) / np.sqrt((np.abs(vis[mask]) ** 2).mean())
    assert rms < 5e-3


def test_aterm_fields_cache_identity_fast_path(small_idg, small_plan):
    from repro.aterms.generators import IdentityATerm

    assert small_idg.aterm_fields(small_plan, None) is None
    assert small_idg.aterm_fields(small_plan, IdentityATerm()) is None


def test_aterm_fields_covers_all_plan_stations(small_idg, small_plan):
    beam = GaussianBeamATerm(fwhm=0.1)
    fields = small_idg.aterm_fields(small_plan, beam)
    needed = set()
    for row in small_plan.items:
        needed.add((int(row["station_p"]), int(row["aterm_interval"])))
        needed.add((int(row["station_q"]), int(row["aterm_interval"])))
    assert set(fields.keys()) == needed
    n = small_plan.subgrid_size
    for field in fields.values():
        assert field.shape == (n, n, 2, 2)


def test_grid_with_flags_zeros_samples(small_idg, small_plan, small_obs,
                                       single_source_vis):
    """Data flags (RFI) zero the flagged samples' contribution."""
    flags = np.zeros(single_source_vis.shape[:3], dtype=bool)
    flags[:, ::4, :] = True  # flag every 4th timestep
    flagged_grid = small_idg.grid(
        small_plan, small_obs.uvw_m, single_source_vis, flags=flags
    )
    zeroed = np.where(flags[..., None, None], 0, single_source_vis)
    manual_grid = small_idg.grid(small_plan, small_obs.uvw_m, zeroed)
    np.testing.assert_allclose(flagged_grid, manual_grid, atol=1e-6)
    # flagging removed flux
    plain = small_idg.grid(small_plan, small_obs.uvw_m, single_source_vis)
    assert np.abs(flagged_grid).sum() < np.abs(plain).sum()


def test_grid_flags_shape_validation(small_idg, small_plan, small_obs,
                                     single_source_vis):
    with pytest.raises(ValueError):
        small_idg.grid(
            small_plan, small_obs.uvw_m, single_source_vis,
            flags=np.zeros((2, 2), dtype=bool),
        )
