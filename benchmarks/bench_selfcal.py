"""End-to-end self-calibration: gain recovery and dynamic-range gates.

A simulated observation is corrupted with known per-station gains
(log-normal amplitudes, ~0.6 rad phases) and handed to
:func:`repro.calibration.self_calibrate`, which closes the loop the paper's
architecture implies: CLEAN model -> degrid (predict) -> StEFCal gain solve
-> gains folded into the gridder as :class:`~repro.aterms.GainATerm`
A-terms -> re-grid.  Gates asserted here and re-checked by the CI
``selfcal`` job from ``benchmarks/results/BENCH_selfcal.json``:

* worst-case gain **amplitude error < 1%** against the injected gains
  (normalised to the reference-station convention — self-cal cannot
  determine the global flux scale, see the amplitude-convention note in
  :func:`repro.calibration.self_calibrate`);
* calibrated **dynamic range >= ``DR_GATE`` x** the uncalibrated dirty
  image's;
* the loop reports convergence within the cycle budget.
"""

import json
import os
import platform
import time

import numpy as np

from _util import RESULTS_DIR, print_series

from repro.calibration.gains import corrupt_with_gains, random_gains
from repro.calibration.selfcal import (
    SelfCalConfig,
    gain_amplitude_error,
    self_calibrate,
)
from repro.core.pipeline import IDG, IDGConfig
from repro.imaging.metrics import dynamic_range
from repro.imaging.pipeline import ImagingContext, make_ftprocessor
from repro.sky.model import SkyModel
from repro.sky.simulate import predict_visibilities
from repro.telescope.observation import ska1_low_observation

N_STATIONS = 8
N_TIMES = 16
N_CHANNELS = 2
GRID_SIZE = 128

#: Acceptance gates (re-checked by CI from BENCH_selfcal.json).
AMPLITUDE_ERROR_GATE = 0.01
DR_GATE = 5.0

IDG_CONFIG = IDGConfig(subgrid_size=16, kernel_support=6, time_max=8)


def test_bench_selfcal():
    obs = ska1_low_observation(
        n_stations=N_STATIONS, n_times=N_TIMES, n_channels=N_CHANNELS,
        integration_time_s=120.0, max_radius_m=2000.0, seed=1,
    )
    gridspec = obs.fitting_gridspec(GRID_SIZE, fill_factor=1.2)
    idg = IDG(gridspec, IDG_CONFIG)
    baselines = obs.array.baselines()
    dl = gridspec.pixel_scale
    sky = SkyModel.single(20 * dl, -14 * dl, flux=5.0)
    vis = predict_visibilities(
        obs.uvw_m, obs.frequencies_hz, sky, baselines=baselines
    )
    true_gains = random_gains(
        N_STATIONS, amplitude_rms=0.2, phase_rms_rad=0.6, seed=3
    )
    # the loop pins the flux scale to |g[reference_station]| = 1; the truth
    # must be normalised identically to be comparable
    true_gains = true_gains / np.abs(true_gains[0])
    corrupted = corrupt_with_gains(vis, true_gains, baselines)

    context = ImagingContext(
        idg=idg, uvw_m=obs.uvw_m, frequencies_hz=obs.frequencies_hz,
        baselines=baselines,
    )
    uncalibrated = make_ftprocessor(context, "2d").invert(corrupted).image
    uncalibrated_dr = float(dynamic_range(uncalibrated))

    start = time.perf_counter()
    result = self_calibrate(
        context, corrupted, N_STATIONS, config=SelfCalConfig(),
        true_gains=true_gains,
    )
    elapsed = time.perf_counter() - start

    amplitude_error = gain_amplitude_error(result.gains, true_gains)
    calibrated_dr = float(
        dynamic_range(result.model_image + result.residual_image)
    )
    dr_improvement = calibrated_dr / uncalibrated_dr

    assert result.converged, "self-cal did not converge in the cycle budget"
    assert amplitude_error < AMPLITUDE_ERROR_GATE, amplitude_error
    assert dr_improvement >= DR_GATE, (calibrated_dr, uncalibrated_dr)

    payload = {
        "benchmark": "selfcal",
        "generated_by": "benchmarks/bench_selfcal.py",
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "n_stations": N_STATIONS,
            "n_times": N_TIMES,
            "n_channels": N_CHANNELS,
            "grid_size": GRID_SIZE,
            "subgrid_size": IDG_CONFIG.subgrid_size,
            "amplitude_error_gate": AMPLITUDE_ERROR_GATE,
            "dr_gate": DR_GATE,
        },
        "converged": result.converged,
        "n_cycles": result.n_cycles,
        "elapsed_s": elapsed,
        "gain_amplitude_error": amplitude_error,
        "uncalibrated_dynamic_range": uncalibrated_dr,
        "calibrated_dynamic_range": calibrated_dr,
        "dr_improvement": dr_improvement,
        "history": [
            {
                "cycle": h.cycle,
                "residual_rms": h.residual_rms,
                "dynamic_range": h.dynamic_range,
                "clean_flux": h.clean_flux,
                "gain_change": h.gain_change,
                "gain_amplitude_error": h.gain_amplitude_error,
                "stefcal_iterations": h.stefcal_iterations,
            }
            for h in result.history
        ],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_selfcal.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")

    print_series(
        "Self-cal: corrupted-gains recovery (stefcal + GainATerm loop)",
        ["cycle", "resid rms", "DR", "amp err %", "gain change"],
        [
            (
                h.cycle,
                h.residual_rms,
                h.dynamic_range,
                100.0 * h.gain_amplitude_error,
                h.gain_change,
            )
            for h in result.history
        ],
    )
    print(
        f"\nconverged in {result.n_cycles} cycles ({elapsed:.2f} s); "
        f"amplitude error {100 * amplitude_error:.4f}% "
        f"(gate {100 * AMPLITUDE_ERROR_GATE:.0f}%); "
        f"dynamic range {uncalibrated_dr:.1f} -> {calibrated_dr:.1f} "
        f"({dr_improvement:.1f}x, gate {DR_GATE:.0f}x)"
    )
