"""The four benchmark workloads.

Each workload is a closed loop with one caller: the harness in ``run.py``
builds the inputs from the seed, times ``setup`` (everything constructed
before the first iteration), runs one untimed warm-up ``iterate`` and then
timed iterations, and finally asks ``checks`` whether the outputs are right.

The seed draws the sky (and, for self-calibration, the station gains).  The
telescope layout and the data-set shape belong to the workload definition,
so every seed does the same amount of gridding work and the spread between
seeds is the run-to-run noise of the program, not of the inputs.

Accuracy: sources sit on pixel centres, so a model image holds them exactly
and its degrid must reproduce the direct-sum measurement equation (paper
Eq. 1, :func:`repro.sky.simulate.predict_visibilities`) up to IDG's own
approximation error.  Every run checks the seeded sky against the budget.
The reported ``degrid_rel_err`` instead comes from a fixed probe field, the
same on every seed: the error depends strongly on exactly where sources
fall (40% quartile spread across random 5-source skies), so only a fixed
probe turns it into a number that moves when the program's accuracy does.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.aterms.schedule import ATermSchedule
from repro.calibration.gains import random_gains
from repro.calibration.selfcal import (
    SelfCalConfig,
    corrupt_with_interval_gains,
    gain_amplitude_error,
    self_calibrate,
)
from repro.core.pipeline import IDG, IDGConfig
from repro.data import store as store_mod
from repro.data.dataset import VisibilityDataset
from repro.imaging.cycle import ImagingCycle
from repro.imaging.image import model_image_to_grid
from repro.imaging.metrics import dynamic_range
from repro.imaging.pipeline import (
    ImagingContext,
    TwoDimFTProcessor,
    WStackFTProcessor,
    make_engine,
    plan_coverage,
)
from repro.sky.model import SkyModel, brightness_unpolarized_unit
from repro.sky.simulate import predict_visibilities
from repro.telescope.observation import ska1_low_observation

#: Executor workers on the parallel workloads (the benchmark host has 2 CPUs).
N_WORKERS = 2

#: The paper's configuration: 24-pixel subgrids, 8-cell kernel support.
#: Parallel executors get work groups small enough that each worker receives
#: several (the default 256 items would be one group per plan here).
SERIAL_IDG = IDGConfig(subgrid_size=24, kernel_support=8, time_max=128)
PARALLEL_IDG = replace(SERIAL_IDG, work_group_size=16)

#: Degrid error budget against the direct-sum reference (relative RMS).
#: These configurations measure 1e-4 to 4e-4; a change that costs an order
#: of magnitude fails.
DEGRID_ERROR_BUDGET = 5e-3

#: Self-calibration gate: worst-case gain amplitude error.
GAIN_ERROR_BUDGET = 0.01

#: The accuracy probe: 16 sources drawn once from this seed.
PROBE_SEED = 2017
PROBE_SOURCES = 16


@dataclass
class Outcome:
    """What one iteration produced.

    ``arrays`` must be ``np.array_equal`` across iterations of a run;
    ``visibilities`` counts the visibilities gridded plus degridded;
    ``extras`` are per-iteration quality numbers reported as layer metrics.
    """

    arrays: dict[str, np.ndarray]
    visibilities: int
    extras: dict[str, float] = field(default_factory=dict)


@dataclass
class Field:
    """A pixel-snapped sky and its direct-sum visibilities."""

    model_image: np.ndarray  # (G, G) Stokes-I image holding the sky exactly
    visibilities: np.ndarray  # Eq. 1 prediction, (n_bl, T, C, 2, 2)


@dataclass
class Inputs:
    uvw_m: np.ndarray
    frequencies_hz: np.ndarray
    baselines: np.ndarray
    gridspec: Any
    sky: Field  # the seeded data
    probe: Field  # the fixed accuracy probe


def snapped_sky(
    rng: np.random.Generator,
    n_sources: int,
    grid_size: int,
    pixel_scale: float,
    radius_fraction: float,
    flux_range: tuple[float, float],
) -> SkyModel:
    """Unpolarised point sources on distinct pixel centres inside a disc of
    ``radius_fraction * grid_size / 2`` pixels around the phase centre."""
    radius = radius_fraction * grid_size / 2
    pixels: set[tuple[int, int]] = set()
    while len(pixels) < n_sources:
        x, y = rng.integers(-int(radius), int(radius) + 1, 2)
        if x * x + y * y <= radius * radius:
            pixels.add((int(x), int(y)))
    xy = np.array(sorted(pixels), dtype=np.float64)
    flux = rng.uniform(*flux_range, n_sources)
    return SkyModel(
        l=xy[:, 0] * pixel_scale,
        m=xy[:, 1] * pixel_scale,
        brightness=np.stack([brightness_unpolarized_unit(f) for f in flux]),
    )


def observe(obs, gridspec, sky: SkyModel) -> Field:
    model = sky.to_image(gridspec.grid_size, gridspec.image_size)[0].real
    return Field(
        model_image=np.ascontiguousarray(model),
        visibilities=predict_visibilities(
            obs.uvw_m, obs.frequencies_hz, sky, baselines=obs.array.baselines()
        ),
    )


def simulate(
    obs, gridspec, seed: int, n_sources: int, radius_fraction: float,
    flux_range: tuple[float, float],
) -> Inputs:
    """The seeded sky and the fixed probe observed with ``obs``."""
    g, dl = gridspec.grid_size, gridspec.pixel_scale
    sky = snapped_sky(np.random.default_rng(seed), n_sources, g, dl, radius_fraction, flux_range)
    probe = snapped_sky(np.random.default_rng(PROBE_SEED), PROBE_SOURCES, g, dl, 0.5, (1.0, 2.0))
    return Inputs(
        uvw_m=obs.uvw_m, frequencies_hz=obs.frequencies_hz,
        baselines=obs.array.baselines(), gridspec=gridspec,
        sky=observe(obs, gridspec, sky), probe=observe(obs, gridspec, probe),
    )


def relative_error(predicted, reference: np.ndarray, plan) -> float:
    """Relative RMS of ``predicted - reference`` over the samples ``plan``
    grids (plan-flagged samples are zero by contract and excluded)."""
    covered = plan_coverage(plan)
    diff = np.asarray(predicted)[covered] - reference[covered]
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) / np.sum(np.abs(reference[covered]) ** 2)))


class Workload:
    """Interface every workload implements (see the module docstring)."""

    name = ""
    executor = ""
    SIZES: dict[str, dict[str, int]] = {}

    def __init__(self, size: str = "full", workdir: str | None = None):
        self.params = self.SIZES[size]
        self.workdir = workdir

    def make_inputs(self, seed: int) -> Inputs:
        raise NotImplementedError

    def setup(self, inputs: Inputs) -> Any:
        raise NotImplementedError

    def iterate(self, state: Any, inputs: Inputs) -> Outcome:
        raise NotImplementedError

    def predict(self, state: Any, model_image: np.ndarray) -> tuple[np.ndarray, Any]:
        """``(visibilities, plan)`` of a model image through the workload's
        own degrid path."""
        raise NotImplementedError

    def between(self, state: Any) -> None:
        """Untimed housekeeping after each iteration."""

    def teardown(self, state: Any) -> None:
        """Release what ``setup`` acquired."""

    def extra_checks(self, state, inputs, outcome: Outcome, predicted: np.ndarray) -> dict:
        return {}

    def checks(self, state, inputs: Inputs, outcome: Outcome) -> dict[str, tuple[float, bool]]:
        """Named ``(value, passed)`` correctness checks of a run's output."""
        predicted, plan = self.predict(state, inputs.sky.model_image)
        sky_err = relative_error(predicted, inputs.sky.visibilities, plan)
        probe, plan = self.predict(state, inputs.probe.model_image)
        probe_err = relative_error(probe, inputs.probe.visibilities, plan)
        return {
            "sky_rel_err": (sky_err, sky_err < DEGRID_ERROR_BUDGET),
            "degrid_rel_err": (probe_err, probe_err < DEGRID_ERROR_BUDGET),
            **self.extra_checks(state, inputs, outcome, predicted),
        }


def _observation(p: dict, integration_time_s: float, max_radius_m: float, layout_seed: int):
    return ska1_low_observation(
        n_stations=p["stations"], n_times=p["times"], n_channels=p["channels"],
        integration_time_s=integration_time_s, max_radius_m=max_radius_m,
        seed=layout_seed,
    )


# ---------------------------------------------------------------------------


class ImagingCycleWorkload(Workload):
    """The scaled Section VI-A set through one major cycle, serial executor."""

    name = "cycle-1024"
    executor = "serial"
    SIZES = {
        "full": dict(stations=20, times=32, channels=16, grid=1024, sources=5),
        "smoke": dict(stations=6, times=8, channels=4, grid=256, sources=2),
    }

    def make_inputs(self, seed: int) -> Inputs:
        obs = _observation(self.params, 4.0, 10_000.0, layout_seed=0)
        gridspec = obs.fitting_gridspec(self.params["grid"])
        return simulate(obs, gridspec, seed, self.params["sources"], 0.5, (2.0, 3.0))

    def setup(self, inputs: Inputs) -> ImagingCycle:
        return ImagingCycle(
            IDG(inputs.gridspec, SERIAL_IDG), inputs.uvw_m, inputs.frequencies_hz,
            inputs.baselines, aterm_schedule=ATermSchedule(256),
        )

    def iterate(self, cycle: ImagingCycle, inputs: Inputs) -> Outcome:
        result = cycle.run(inputs.sky.visibilities, n_major=1)
        components = len(result.cycles[0].components)
        # PSF + dirty image, then (when CLEAN found components) predict and
        # the residual image: three grids and one degrid.
        passes = 4 if components else 2
        return Outcome(
            arrays={"model": result.model_image, "residual": result.residual_image},
            visibilities=passes * cycle.plan.statistics.n_visibilities_gridded,
            extras={"clean_components": float(components)},
        )

    def predict(self, cycle, model_image):
        return cycle.predict(model_image), cycle.plan

    def extra_checks(self, cycle, inputs, outcome, predicted):
        components = outcome.extras["clean_components"]
        return {"clean_components": (components, components > 0)}


# ---------------------------------------------------------------------------


class WidebandThreadsWorkload(Workload):
    """Many channels per subgrid on the threads executor (Fig 10 regime)."""

    name = "wideband-threads"
    executor = "threads"
    SIZES = {
        "full": dict(stations=20, times=96, channels=32, grid=512, sources=8),
        "smoke": dict(stations=6, times=8, channels=8, grid=128, sources=2),
    }

    def make_inputs(self, seed: int) -> Inputs:
        obs = _observation(self.params, 4.0, 10_000.0, layout_seed=0)
        gridspec = obs.fitting_gridspec(self.params["grid"])
        return simulate(obs, gridspec, seed, self.params["sources"], 0.5, (1.0, 3.0))

    def setup(self, inputs: Inputs) -> TwoDimFTProcessor:
        context = ImagingContext(
            idg=IDG(inputs.gridspec, PARALLEL_IDG), uvw_m=inputs.uvw_m,
            frequencies_hz=inputs.frequencies_hz, baselines=inputs.baselines,
            executor=self.executor, executor_workers=N_WORKERS,
        )
        # invert_2d / predict_2d each build exactly this processor; building
        # it once keeps planning in set-up, where a service would do it.
        return TwoDimFTProcessor(context)

    def iterate(self, processor: TwoDimFTProcessor, inputs: Inputs) -> Outcome:
        image = processor.invert(inputs.sky.visibilities)
        predicted = processor.predict(inputs.sky.model_image)
        return Outcome(
            arrays={"image": image.image, "predicted": predicted},
            visibilities=2 * processor.plan.statistics.n_visibilities_gridded,
        )

    def predict(self, processor, model_image):
        return processor.predict(model_image), processor.plan


# ---------------------------------------------------------------------------


@dataclass
class SelfCalInputs(Inputs):
    corrupted: np.ndarray
    true_gains: np.ndarray  # (n_intervals, n_stations), reference-normalised
    n_visibilities: int


class SelfCalWStackWorkload(Workload):
    """Closed-loop self-calibration of a wide field through w-stacking."""

    name = "selfcal-wstack"
    executor = "streaming"
    SIZES = {
        "full": dict(stations=16, times=32, channels=4, grid=512, interval=8, planes=4),
        "smoke": dict(stations=10, times=16, channels=2, grid=128, interval=8, planes=2),
    }

    def _idg(self, gridspec) -> IDG:
        # subgrids of at most 8 timesteps (~32 visibilities each) never
        # straddle a gain interval
        return IDG(gridspec, replace(PARALLEL_IDG, time_max=8, work_group_size=32))

    def make_inputs(self, seed: int) -> SelfCalInputs:
        p = self.params
        obs = _observation(p, 120.0, 2000.0, layout_seed=1)
        gridspec = obs.fitting_gridspec(p["grid"], fill_factor=1.2)
        # One dominant source: CLEAN models it exactly, so the solve is
        # limited by the loop rather than by model error.
        base = simulate(obs, gridspec, seed, 1, 1 / 3, (3.0, 8.0))
        n_intervals = -(-p["times"] // p["interval"])
        gains = random_gains(
            n_intervals * p["stations"], amplitude_rms=0.1, phase_rms_rad=0.5,
            seed=seed + 1,
        ).reshape(n_intervals, p["stations"])
        # self-cal pins |g[reference station]| = 1 per interval
        gains = gains / np.abs(gains[:, :1])
        plan = self._idg(gridspec).make_plan(base.uvw_m, base.frequencies_hz, base.baselines)
        return SelfCalInputs(
            **vars(base),
            corrupted=corrupt_with_interval_gains(
                base.sky.visibilities, gains, base.baselines, p["interval"]
            ),
            true_gains=gains,
            n_visibilities=plan.statistics.n_visibilities_gridded,
        )

    def setup(self, inputs: SelfCalInputs) -> ImagingContext:
        return ImagingContext(
            idg=self._idg(inputs.gridspec), uvw_m=inputs.uvw_m,
            frequencies_hz=inputs.frequencies_hz, baselines=inputs.baselines,
            executor=self.executor, executor_workers=N_WORKERS,
        )

    def iterate(self, context: ImagingContext, inputs: SelfCalInputs) -> Outcome:
        # A fixed budget — a phase-only bootstrap and one amplitude cycle,
        # one major cycle each — so every seed does the same work; the gain
        # check states the accuracy this budget must reach.
        config = SelfCalConfig(
            n_cycles=2, n_major_per_cycle=1, gain_tolerance=0.0,
            solution_interval=self.params["interval"],
        )
        result = self_calibrate(
            context, inputs.corrupted, self.params["stations"], config=config,
            kind="wstack", n_w_planes=self.params["planes"],
        )
        # PSF, then per cycle: image, predict the model, re-image.
        passes = 1 + 3 * result.n_cycles
        return Outcome(
            arrays={
                "gains": result.gains, "model": result.model_image,
                "residual": result.residual_image,
            },
            visibilities=passes * inputs.n_visibilities,
            extras={
                "cycles": float(result.n_cycles),
                "gain_amp_err": gain_amplitude_error(result.gains, inputs.true_gains),
                "dynamic_range": float(dynamic_range(result.model_image + result.residual_image)),
            },
        )

    def predict(self, context, model_image):
        processor = WStackFTProcessor(context, n_w_planes=self.params["planes"])
        return processor.predict(model_image), processor.plan

    def extra_checks(self, context, inputs, outcome, predicted):
        error = outcome.extras["gain_amp_err"]
        return {"gain_amp_err": (error, error < GAIN_ERROR_BUDGET)}


# ---------------------------------------------------------------------------


@dataclass
class StoreInputs(Inputs):
    model_grid: np.ndarray  # the seeded sky, ready to degrid
    path: str  # the input store


@dataclass
class StoreState:
    store: Any
    plan: Any
    engine: Any
    outputs: list[str] = field(default_factory=list)
    n_written: int = 0


class StoreRoundtripWorkload(Workload):
    """Degrid into a new dataset store, then grid it back, across processes."""

    name = "store-roundtrip"
    executor = "processes"
    SIZES = {
        "full": dict(stations=40, times=16, channels=16, grid=512, sources=8),
        "smoke": dict(stations=6, times=8, channels=4, grid=128, sources=2),
    }

    def make_inputs(self, seed: int) -> StoreInputs:
        obs = _observation(self.params, 4.0, 10_000.0, layout_seed=0)
        gridspec = obs.fitting_gridspec(self.params["grid"])
        base = simulate(obs, gridspec, seed, self.params["sources"], 0.5, (1.0, 3.0))
        path = os.path.join(self.workdir, "input.store")
        store_mod.write_store(
            VisibilityDataset(
                uvw_m=base.uvw_m, visibilities=base.sky.visibilities,
                frequencies_hz=base.frequencies_hz, baselines=base.baselines,
            ),
            path,
        )
        return StoreInputs(
            **vars(base), model_grid=self._model_grid(base.sky.model_image, gridspec), path=path
        )

    @staticmethod
    def _model_grid(model_image: np.ndarray, gridspec) -> np.ndarray:
        model4 = np.zeros((4,) + model_image.shape, dtype=np.complex128)
        model4[0] = model4[3] = model_image  # XX = YY = I
        return model_image_to_grid(model4, gridspec)

    def setup(self, inputs: StoreInputs) -> StoreState:
        store = store_mod.open_store(inputs.path, verify=True)
        idg = IDG(inputs.gridspec, PARALLEL_IDG)
        plan = idg.make_plan(store.uvw_m, store.frequencies_hz, store.baselines)
        engine = make_engine(idg, self.executor, n_workers=N_WORKERS, start_method="fork")
        return StoreState(store, plan, engine)

    def iterate(self, state: StoreState, inputs: StoreInputs) -> Outcome:
        store = state.store
        path = os.path.join(self.workdir, f"output-{state.n_written}.store")
        state.n_written += 1
        state.outputs.append(path)
        with store_mod.DatasetWriter(
            path, store.n_baselines, store.n_times, store.n_channels
        ) as writer:
            writer.set_frequencies(store.frequencies_hz)
            writer.set_baselines(store.baselines)
            writer.uvw_m[:] = store.uvw_m
            state.engine.degrid(state.plan, store.uvw_m, inputs.model_grid, out=writer.visibilities)
            writer.mark_written(0, store.n_times)
            written = writer.finalize()
        reread = store_mod.open_store(path)
        grid = state.engine.grid(state.plan, reread.uvw_m, reread.source())
        digest = np.frombuffer(written.manifest.content_hash.encode(), dtype=np.uint8)
        return Outcome(
            arrays={"grid": grid, "content_hash": digest},
            visibilities=2 * state.plan.statistics.n_visibilities_gridded,
        )

    def predict(self, state, model_image):
        grid = self._model_grid(model_image, state.plan.gridspec)
        return state.engine.degrid(state.plan, state.store.uvw_m, grid), state.plan

    def between(self, state: StoreState) -> None:
        # keep only the newest output store (the checks read it)
        for path in state.outputs[:-1]:
            shutil.rmtree(path, ignore_errors=True)
        del state.outputs[:-1]

    def extra_checks(self, state, inputs, outcome, predicted):
        written = store_mod.open_store(state.outputs[-1], verify=True).visibilities
        same = np.array_equal(written, predicted)
        return {"store_equals_memory": (float(same), same)}

    def teardown(self, state: StoreState) -> None:
        for path in state.outputs:
            shutil.rmtree(path, ignore_errors=True)
        state.outputs.clear()


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w
    for w in (
        ImagingCycleWorkload,
        WidebandThreadsWorkload,
        SelfCalWStackWorkload,
        StoreRoundtripWorkload,
    )
}
