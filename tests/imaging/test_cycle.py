"""Integration tests for the imaging major cycle (paper Fig 2)."""

import numpy as np
import pytest

from repro.imaging.cycle import ImagingCycle
from repro.imaging.image import dirty_image_from_grid, find_peak, stokes_i_image
from repro.imaging.pipeline import ImagingContext, TwoDimFTProcessor
from repro.kernels.spheroidal import grid_correction
from repro.sky.model import SkyModel
from repro.sky.simulate import predict_visibilities


@pytest.fixture(scope="module")
def cycle(small_idg, small_obs, small_baselines):
    return ImagingCycle(
        small_idg, small_obs.uvw_m, small_obs.frequencies_hz, small_baselines
    )


def test_psf_properties(cycle, small_gridspec):
    psf = cycle.make_psf()
    g = small_gridspec.grid_size
    assert psf.shape == (g, g)
    assert psf[g // 2, g // 2] == pytest.approx(1.0)
    assert np.abs(psf).max() == pytest.approx(1.0)


def test_dirty_image_peak(cycle, single_source_vis, snapped_source, small_gridspec):
    l0, m0, flux = snapped_source
    dirty = cycle.make_dirty_image(single_source_vis)
    row, col, value = find_peak(dirty)
    g, dl = small_gridspec.grid_size, small_gridspec.pixel_scale
    assert (row, col) == (round(m0 / dl) + g // 2, round(l0 / dl) + g // 2)
    assert value == pytest.approx(flux, rel=0.01)


def test_predict_of_point_model_matches_oracle(cycle, snapped_source, small_obs,
                                               small_baselines, small_gridspec):
    l0, m0, flux = snapped_source
    g, dl = small_gridspec.grid_size, small_gridspec.pixel_scale
    model = np.zeros((g, g))
    model[round(m0 / dl) + g // 2, round(l0 / dl) + g // 2] = flux
    predicted = cycle.predict(model)
    oracle = predict_visibilities(
        small_obs.uvw_m, small_obs.frequencies_hz,
        SkyModel.single(l0, m0, flux=flux), baselines=small_baselines,
    )
    mask = ~cycle.plan.flagged
    rms = np.sqrt((np.abs(predicted[mask] - oracle[mask]) ** 2).mean())
    assert rms / np.sqrt((np.abs(oracle[mask]) ** 2).mean()) < 1e-3


def test_major_cycle_reduces_residual(cycle, single_source_vis):
    result = cycle.run(single_source_vis, n_major=3, minor_iterations=100)
    rms = result.residual_rms_history
    assert len(rms) >= 2
    assert rms[-1] < rms[0]
    assert result.n_major_cycles <= 3


def test_major_cycle_locates_source(cycle, single_source_vis, snapped_source, small_gridspec):
    l0, m0, _ = snapped_source
    result = cycle.run(single_source_vis, n_major=3, minor_iterations=100)
    row, col, _ = find_peak(result.model_image)
    g, dl = small_gridspec.grid_size, small_gridspec.pixel_scale
    assert abs(row - (round(m0 / dl) + g // 2)) <= 1
    assert abs(col - (round(l0 / dl) + g // 2)) <= 1


def test_major_cycle_recovers_most_flux(cycle, single_source_vis, snapped_source):
    _, _, flux = snapped_source
    result = cycle.run(
        single_source_vis, n_major=6, minor_iterations=300, threshold_factor=1.5
    )
    recovered = result.total_clean_flux()
    assert 0.7 * flux <= recovered <= 1.3 * flux


def test_noise_only_input_cleans_nothing_much(cycle, single_source_vis):
    rng = np.random.default_rng(0)
    noise = (
        0.001 * (rng.standard_normal(single_source_vis.shape)
                 + 1j * rng.standard_normal(single_source_vis.shape))
    ).astype(np.complex64)
    result = cycle.run(noise, n_major=2, minor_iterations=50)
    assert abs(result.total_clean_flux()) < 0.05


@pytest.mark.parametrize(
    "bad",
    [{"major_gain": 0.0}, {"gain": 0.0}, {"clean_window_fraction": 0.001}],
    ids=["major_gain", "gain", "empty_window"],
)
def test_run_rejects_bad_arguments_before_gridding(
    small_idg, small_obs, small_baselines, single_source_vis, counting_gridder, bad
):
    idg = counting_gridder(small_idg)
    cycle = ImagingCycle(idg, small_obs.uvw_m, small_obs.frequencies_hz, small_baselines)
    with pytest.raises(ValueError):
        cycle.run(single_source_vis, **bad)
    assert idg.grid_calls == 0


def test_restored_product(cycle, single_source_vis, snapped_source, small_gridspec):
    """MajorCycleResult.restored: peak reads the flux, beam is sane."""
    result = cycle.run(single_source_vis, n_major=3, minor_iterations=150,
                       threshold_factor=1.5)
    restored, beam = result.restored()
    l0, m0, flux = snapped_source
    g, dl = small_gridspec.grid_size, small_gridspec.pixel_scale
    row, col = round(m0 / dl) + g // 2, round(l0 / dl) + g // 2
    assert restored[row, col] == pytest.approx(flux, rel=0.1)
    assert beam.fwhm_major_px >= beam.fwhm_minor_px > 0


# ------------------------------------------- the one-plane Stokes-I path


def _four_plane_image(cycle, visibilities):
    """Stokes I of the dirty image of all four correlation planes."""
    idg = cycle.idg
    grid = idg.grid(cycle.plan, cycle.uvw_m, visibilities)
    image = dirty_image_from_grid(
        grid, idg.gridspec, weight_sum=float(cycle.plan.statistics.n_visibilities_gridded),
        taper=idg.config.taper, taper_beta=idg.config.taper_beta,
    )
    return grid, stokes_i_image(image)


def test_one_plane_predict_equals_the_four_plane_processor(
    cycle, small_idg, small_obs, small_baselines, small_gridspec
):
    g = small_gridspec.grid_size
    model = np.random.default_rng(3).standard_normal((g, g))  # dense, every pixel set
    context = ImagingContext(
        idg=small_idg, uvw_m=small_obs.uvw_m,
        frequencies_hz=small_obs.frequencies_hz, baselines=small_baselines,
    )
    one_plane = cycle.predict(model)
    assert np.array_equal(one_plane, TwoDimFTProcessor(context).predict(model))


def test_one_plane_dirty_image_is_exact_for_an_unpolarised_grid(cycle, single_source_vis):
    """The cycle grids the one correlation 0.5 (XX + YY), so its image
    matches the four-correlation grid's Stokes I to single-precision
    rounding, not bit for bit: the one-column products and subgrid FFTs
    round differently from the four-column ones.  Compared as the polarised
    test below is, to 1e-6 of peak inside the central 75% (the taper
    correction amplifies the rounding at the edges)."""
    grid, four_plane = _four_plane_image(cycle, single_source_vis)
    assert np.array_equal(grid[0], grid[3])  # XX == YY bit for bit
    one_plane = cycle.make_dirty_image(single_source_vis)
    g = cycle.idg.gridspec.grid_size
    inner = slice(g // 8, g - g // 8)
    peak = np.abs(four_plane).max()
    assert np.abs(one_plane - four_plane)[inner, inner].max() <= 1e-6 * peak


def test_one_plane_dirty_image_of_a_polarised_grid(cycle, single_source_vis):
    polarised = single_source_vis.copy()
    polarised[..., 1, 1] *= 0.3  # YY != XX
    polarised[..., 0, 1] = 0.5j * single_source_vis[..., 0, 0]  # XY, YX carry no I
    grid, four_plane = _four_plane_image(cycle, polarised)
    assert not np.array_equal(grid[0], grid[3])
    one_plane = cycle.make_dirty_image(polarised)
    # The two differ by float32 rounding: 0.5 (XX + YY) is rounded before
    # the FFT instead of after.  The grid correction divides edge pixels by
    # a taper down to ~1e-5 and amplifies that rounding there, so compare
    # with the correction undone.
    idg = cycle.idg
    correction = grid_correction(
        idg.gridspec.grid_size, taper=idg.config.taper, beta=idg.config.taper_beta
    )
    peak = np.abs(four_plane).max()
    assert np.abs((one_plane - four_plane) * correction).max() <= 1e-6 * peak
