"""Closed-loop self-calibration: gain recovery and the loop's contracts."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.calibration.gains import corrupt_with_gains, random_gains
from repro.calibration.selfcal import (
    SelfCalConfig,
    corrupt_with_interval_gains,
    gain_amplitude_error,
    self_calibrate,
    selfcal_schedule,
)
from repro.core.pipeline import IDG, IDGConfig
from repro.imaging.metrics import dynamic_range
from repro.imaging.pipeline import ImagingContext, invert_2d
from repro.sky.model import SkyModel
from repro.sky.simulate import predict_visibilities
from repro.telescope.observation import ska1_low_observation

N_STATIONS = 8
GRID = 128


@pytest.fixture(scope="module")
def harness():
    """A corrupted-gains observation with known truth.

    The injected gains are normalised to the loop's amplitude convention
    (reference station 0 has unit amplitude) — self-cal cannot determine the
    global flux scale, so that is the only scale it can recover.
    """
    obs = ska1_low_observation(
        n_stations=N_STATIONS, n_times=16, n_channels=2,
        integration_time_s=120.0, max_radius_m=2000.0, seed=1,
    )
    gridspec = obs.fitting_gridspec(GRID, fill_factor=1.2)
    idg = IDG(gridspec, IDGConfig(subgrid_size=16, kernel_support=6, time_max=8))
    baselines = obs.array.baselines()
    dl = gridspec.pixel_scale
    sky = SkyModel.single(20 * dl, -14 * dl, flux=5.0)
    vis = predict_visibilities(obs.uvw_m, obs.frequencies_hz, sky,
                               baselines=baselines)
    true_gains = random_gains(
        N_STATIONS, amplitude_rms=0.2, phase_rms_rad=0.6, seed=3
    )
    true_gains = true_gains / np.abs(true_gains[0])
    corrupted = corrupt_with_gains(vis, true_gains, baselines)
    context = ImagingContext(
        idg=idg, uvw_m=obs.uvw_m, frequencies_hz=obs.frequencies_hz,
        baselines=baselines,
    )
    return context, corrupted, true_gains


@pytest.fixture(scope="module")
def result(harness):
    context, corrupted, true_gains = harness
    return self_calibrate(
        context, corrupted, N_STATIONS, true_gains=true_gains
    )


def test_recovers_injected_gain_amplitudes(result, harness):
    """The ISSUE gate: < 1% worst-case amplitude error against the
    (reference-normalised) injected gains."""
    _, _, true_gains = harness
    assert result.converged
    assert gain_amplitude_error(result.gains, true_gains) < 0.01


def test_recovers_injected_gain_phases(result, harness):
    _, _, true_gains = harness
    relative = result.gains[0] * np.conj(true_gains)
    phase_error = np.abs(np.angle(relative * np.conj(relative[0])))
    assert phase_error.max() < 0.01


def test_telemetry_shows_contraction(result):
    errors = [h.gain_amplitude_error for h in result.history]
    assert all(e is not None for e in errors)
    # the loop must improve on its bootstrap by an order of magnitude
    assert errors[-1] < errors[0] / 10
    assert all(h.stefcal_converged for h in result.history)
    assert [h.cycle for h in result.history] == list(range(len(result.history)))


def test_calibration_beats_uncalibrated_dynamic_range(result, harness):
    context, corrupted, _ = harness
    uncalibrated = invert_2d(context, corrupted).stokes_i
    calibrated = result.model_image + result.residual_image
    assert dynamic_range(calibrated) > 3.0 * dynamic_range(uncalibrated)


def test_model_captures_source_flux(result):
    # CLEAN stops at ~3x the residual rms, so a few percent of the flux
    # legitimately stays in the residual
    assert result.model_image.sum() == pytest.approx(5.0, rel=0.1)
    assert result.n_cycles == len(result.history)


def test_empty_model_raises(harness):
    context, corrupted, _ = harness
    config = SelfCalConfig(threshold_factor=1e9, n_cycles=1)
    with pytest.raises(RuntimeError, match="empty model"):
        self_calibrate(context, corrupted, N_STATIONS, config=config)


def test_interval_solutions(harness):
    """Per-interval solving returns one gain row per interval, each
    recovering the (static) truth."""
    context, corrupted, true_gains = harness
    config = SelfCalConfig(solution_interval=8)
    res = self_calibrate(
        context, corrupted, N_STATIONS, config=config, true_gains=true_gains
    )
    assert res.gains.shape == (2, N_STATIONS)
    # each interval solves against half the data, so the error floor is
    # higher than the whole-observation solve's < 1%
    assert gain_amplitude_error(res.gains, true_gains) < 0.05


# ------------------------------------------------------------------- units


def test_corrupt_with_interval_gains_single_row(harness):
    context, corrupted, true_gains = harness
    direct = corrupt_with_gains(corrupted, true_gains, context.baselines)
    interval = corrupt_with_interval_gains(
        corrupted, true_gains, context.baselines, solution_interval=0
    )
    np.testing.assert_array_equal(interval, direct)


def test_corrupt_with_interval_gains_uses_row_per_interval(harness):
    context, corrupted, _ = harness
    n_times = corrupted.shape[1]
    rows = np.stack([
        np.full(N_STATIONS, 2.0 + 0.0j),
        np.full(N_STATIONS, 1.0 - 1.0j),
    ])
    out = corrupt_with_interval_gains(
        corrupted, rows, context.baselines, solution_interval=n_times // 2
    )
    half = n_times // 2
    np.testing.assert_array_equal(
        out[:, :half],
        corrupt_with_gains(corrupted[:, :half], rows[0], context.baselines),
    )
    np.testing.assert_array_equal(
        out[:, half:],
        corrupt_with_gains(corrupted[:, half:], rows[1], context.baselines),
    )


def test_gain_amplitude_error_broadcasts():
    true = np.array([1.0, 2.0, 0.5 + 0.5j])
    solved = np.stack([true, 1.1 * true])  # second interval 10% high
    assert gain_amplitude_error(solved, true) == pytest.approx(0.1)
    assert gain_amplitude_error(true, true) == 0.0
    # phase differences do not contribute
    assert gain_amplitude_error(true * np.exp(0.3j), true) == pytest.approx(
        0.0, abs=1e-12
    )


def test_selfcal_schedule_matches_solution_interval():
    schedule = selfcal_schedule(SelfCalConfig(solution_interval=4))
    assert schedule.n_intervals(16) == 4
    whole = selfcal_schedule(SelfCalConfig(solution_interval=0))
    assert whole.n_intervals(16) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        SelfCalConfig(n_cycles=0)
    with pytest.raises(ValueError):
        SelfCalConfig(n_major_per_cycle=0)
    with pytest.raises(ValueError):
        SelfCalConfig(solution_interval=-1)
    with pytest.raises(ValueError):
        SelfCalConfig(major_gain=0.0)
    with pytest.raises(ValueError, match="clean_gain"):
        SelfCalConfig(clean_gain=0.0)
    with pytest.raises(ValueError, match="bootstrap_major_gain"):
        SelfCalConfig(bootstrap_major_gain=0.0)


def test_empty_clean_window_raises_before_gridding(harness, counting_gridder):
    context, corrupted, _ = harness
    idg = counting_gridder(context.idg)
    with pytest.raises(ValueError, match="selects no pixel"):
        self_calibrate(
            replace(context, idg=idg), corrupted, N_STATIONS,
            config=SelfCalConfig(clean_window_fraction=0.001),
        )
    assert idg.grid_calls == 0


def test_rejects_wrong_visibility_shape(harness):
    context, corrupted, _ = harness
    with pytest.raises(ValueError, match="n_bl"):
        self_calibrate(context, corrupted[..., 0, 0], N_STATIONS)
