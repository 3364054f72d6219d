"""The shared differential corpus for the cross-backend harness.

Every registered kernel backend runs the same corpus of small but
structurally varied plans — a plain observation, a w-offset plan, an A-term
schedule, a wideband (C = 512) subband exercising the channel-phasor
recurrence, a degenerate single-visibility plan, a subband whose channels
are not evenly spaced and two evenly spaced subbands with a gap between
them (both give ``vectorized``'s kernels one channel per row), and two
one-correlation plans (``(..., 1, 1)`` visibilities and ``(1, G, G)``
grids, one with scalar A-term fields) — and the tests in this
directory hold all backends to pairwise agreement at ``rtol = 1e-5`` plus
per-backend gridder/degridder adjointness.

Running a case through a backend is expensive (the ``reference`` oracle is a
direct sum), so results are computed once per ``(case, backend)`` and cached
for the whole session in :class:`Corpus`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.aterms.generators import GaussianBeamATerm
from repro.aterms.jones import scalar_jones_fields
from repro.aterms.schedule import ATermSchedule
from repro.backends import available_backends
from repro.core.pipeline import IDG, IDGConfig
from repro.telescope.observation import ska1_low_observation


@dataclass(frozen=True)
class Case:
    """One corpus entry: an observation geometry plus plan parameters."""

    name: str
    n_stations: int = 5
    n_times: int = 6
    n_channels: int = 4
    grid_size: int = 128
    subgrid_size: int = 12
    kernel_support: int = 4
    time_max: int = 4
    max_radius_m: float = 400.0
    #: ``fitting_gridspec`` fill factor; > 1 shrinks the representable uv
    #: extent so the longest baselines are flagged (exercises plan flags).
    fill_factor: float = 0.9
    w_offset: float = 0.0
    aterm_interval: int | None = None
    #: Moves every channel off the evenly spaced ladder by up to this
    #: fraction of the channel width (0 keeps the ladder).
    channel_jitter: float = 0.0
    #: Splits the channels into two evenly spaced halves, the second
    #: starting this far above the first (0 keeps one ladder).
    subband_offset_hz: float = 0.0
    #: Correlations per sample: 4 (``(..., 2, 2)``) or 1 (``(..., 1, 1)``,
    #: the Stokes-I sample alone, with the fields' scalar factors).
    n_correlations: int = 4
    seed: int = 0


CASES = (
    Case("baseline", seed=11),
    Case("w-offset", w_offset=15.0, fill_factor=1.4, seed=12),
    Case("aterms", aterm_interval=3, seed=13),
    Case(
        "wideband",
        n_stations=3,
        n_times=2,
        n_channels=512,
        subgrid_size=8,
        kernel_support=2,
        max_radius_m=250.0,
        seed=14,
    ),
    Case(
        "single-visibility",
        n_stations=3,
        n_times=1,
        n_channels=1,
        subgrid_size=8,
        kernel_support=2,
        time_max=1,
        max_radius_m=250.0,
        seed=15,
    ),
    Case("uneven-channels", n_channels=5, channel_jitter=0.3, fill_factor=1.4, seed=16),
    Case(
        "two-subbands",
        n_stations=6,
        n_times=8,
        n_channels=16,
        grid_size=64,
        subgrid_size=16,
        n_correlations=1,
        subband_offset_hz=10e6,
        seed=19,
    ),
    Case("one-correlation", n_correlations=1, seed=17),
    Case("one-correlation-aterms", n_correlations=1, aterm_interval=3, seed=18),
)

#: Registered backends, captured at collection time.
BACKENDS = available_backends()


class Corpus:
    """Builds and caches per-case workloads and per-(case, backend) results."""

    def __init__(self) -> None:
        self._workloads: dict[str, dict] = {}
        self._results: dict[tuple[str, str], dict] = {}

    def workload(self, case: Case) -> dict:
        """Observation, visibilities, model grid and A-terms of a case."""
        if case.name not in self._workloads:
            obs = ska1_low_observation(
                n_stations=case.n_stations,
                n_times=case.n_times,
                n_channels=case.n_channels,
                integration_time_s=60.0,
                max_radius_m=case.max_radius_m,
                seed=case.seed,
            )
            if case.channel_jitter:
                width = float(obs.frequencies_hz[1] - obs.frequencies_hz[0])
                jitter = np.random.default_rng(case.seed).uniform(
                    -case.channel_jitter, case.channel_jitter, case.n_channels
                )
                obs = replace(obs, frequencies_hz=obs.frequencies_hz + jitter * width)
            if case.subband_offset_hz:
                half = obs.frequencies_hz[: case.n_channels // 2]
                freqs = np.concatenate([half, half + case.subband_offset_hz])
                obs = replace(obs, frequencies_hz=freqs)
            gridspec = obs.fitting_gridspec(
                case.grid_size, fill_factor=case.fill_factor
            )
            rng = np.random.default_rng(case.seed)
            a = 2 if case.n_correlations == 4 else 1
            vis_shape = (
                obs.array.n_baselines, case.n_times, case.n_channels, a, a
            )
            vis = (
                rng.standard_normal(vis_shape)
                + 1j * rng.standard_normal(vis_shape)
            ).astype(np.complex64)
            model_shape = (case.n_correlations, case.grid_size, case.grid_size)
            model = (
                rng.standard_normal(model_shape)
                + 1j * rng.standard_normal(model_shape)
            ).astype(np.complex64)
            aterms = schedule = None
            if case.aterm_interval is not None:
                aterms = GaussianBeamATerm(
                    fwhm=1.5 * gridspec.image_size, gain_drift_rms=0.05
                )
                schedule = ATermSchedule(case.aterm_interval)
            self._workloads[case.name] = {
                "obs": obs,
                "gridspec": gridspec,
                "vis": vis,
                "model": model,
                "aterms": aterms,
                "schedule": schedule,
            }
        return self._workloads[case.name]

    def results(self, case: Case, backend_name: str) -> dict:
        """Grid and degrid the case's workload through one backend (cached)."""
        key = (case.name, backend_name)
        if key not in self._results:
            w = self.workload(case)
            obs = w["obs"]
            idg = IDG(
                w["gridspec"],
                IDGConfig(
                    subgrid_size=case.subgrid_size,
                    kernel_support=case.kernel_support,
                    time_max=case.time_max,
                    work_group_size=8,
                    backend=backend_name,
                ),
            )
            plan = idg.make_plan(
                obs.uvw_m,
                obs.frequencies_hz,
                obs.array.baselines(),
                aterm_schedule=w["schedule"],
                w_offset=case.w_offset,
            )
            assert plan.statistics.n_visibilities_gridded > 0
            fields = idg.aterm_fields(plan, w["aterms"])
            if fields is not None and case.n_correlations == 1:
                fields = scalar_jones_fields(fields)
                assert fields is not None
            grid = idg.grid(plan, obs.uvw_m, w["vis"], aterm_fields=fields)
            degridded = idg.degrid(plan, obs.uvw_m, w["model"], aterm_fields=fields)
            assert grid.shape[0] == degridded.shape[-1] ** 2 == case.n_correlations
            self._results[key] = {
                "idg": idg,
                "plan": plan,
                "fields": fields,
                "grid": grid,
                "degridded": degridded,
            }
        return self._results[key]


@pytest.fixture(scope="session")
def corpus():
    return Corpus()


@pytest.fixture(params=CASES, ids=lambda c: c.name)
def case(request):
    return request.param
