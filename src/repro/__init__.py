"""repro — Image-Domain Gridding (IDG) for radio interferometry.

A full reproduction of *Image-Domain Gridding on Graphics Processors*
(Veenboer, Petschow & Romein, IPDPS 2017): the IDG gridder/degridder with
execution plans, subgrid FFTs and adder/splitter; the telescope, sky and
A-term substrates needed to generate realistic workloads; W-projection /
W-stacking / AW-projection baselines; a CLEAN-based imaging major cycle; and
the hardware performance & energy model that regenerates the paper's
evaluation figures.

Quickstart::

    import numpy as np
    import repro

    obs = repro.ska1_low_observation(n_stations=20, n_times=128, n_channels=8)
    gridspec = obs.fitting_gridspec(grid_size=512)
    sky = repro.random_sky(5, gridspec.image_size, seed=1)
    vis = repro.predict_visibilities(
        obs.uvw_m, obs.frequencies_hz, sky, baselines=obs.array.baselines())

    idg = repro.IDG(gridspec)
    plan = idg.make_plan(obs.uvw_m, obs.frequencies_hz, obs.array.baselines())
    grid = idg.grid(plan, obs.uvw_m, vis)
    image = repro.stokes_i_image(repro.dirty_image_from_grid(
        grid, gridspec, weight_sum=plan.statistics.n_visibilities_gridded))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.gridspec import GridSpec
from repro.core.pipeline import IDG, IDGConfig
from repro.core.plan import Plan, PlanStatistics, WorkItem
from repro.telescope.observation import (
    Observation,
    ska1_low_observation,
    subband_frequencies,
)
from repro.telescope.array import StationArray, baseline_pairs
from repro.sky.model import GaussianSource, PointSource, SkyModel, brightness_from_stokes
from repro.sky.sources import grid_test_sky, random_sky
from repro.sky.simulate import predict_visibilities
from repro.aterms.generators import (
    GaussianBeamATerm,
    IdentityATerm,
    IonosphereATerm,
    LeakageATerm,
    PointingErrorATerm,
)
from repro.aterms.schedule import ATermSchedule
from repro.data.dataset import VisibilityDataset
from repro.data.io import load_dataset, save_dataset
from repro.data.noise import add_thermal_noise
from repro.imaging.image import dirty_image_from_grid, model_image_to_grid, stokes_i_image
from repro.imaging.clean import hogbom_clean
from repro.imaging.cycle import ImagingCycle
from repro.imaging.restore import restore_image
from repro.imaging.pipeline import WStackFTProcessor
from repro.imaging.spectral import SpectralImager, make_subbands
from repro.data.rfi import flag_rfi
from repro.calibration import stefcal

__version__ = "1.0.0"

__all__ = [
    "GridSpec",
    "IDG",
    "IDGConfig",
    "WStackFTProcessor",
    "Plan",
    "PlanStatistics",
    "WorkItem",
    "Observation",
    "ska1_low_observation",
    "subband_frequencies",
    "StationArray",
    "baseline_pairs",
    "GaussianSource",
    "PointSource",
    "SkyModel",
    "brightness_from_stokes",
    "grid_test_sky",
    "random_sky",
    "predict_visibilities",
    "GaussianBeamATerm",
    "IdentityATerm",
    "IonosphereATerm",
    "LeakageATerm",
    "PointingErrorATerm",
    "ATermSchedule",
    "VisibilityDataset",
    "load_dataset",
    "save_dataset",
    "add_thermal_noise",
    "dirty_image_from_grid",
    "model_image_to_grid",
    "stokes_i_image",
    "hogbom_clean",
    "ImagingCycle",
    "restore_image",
    "SpectralImager",
    "make_subbands",
    "flag_rfi",
    "stefcal",
    "__version__",
]
