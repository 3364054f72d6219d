"""The shared corpus for the cross-executor conformance harness.

Every executor — serial :class:`~repro.core.IDG`, pipelined
:class:`~repro.runtime.StreamingIDG` and its thread-parallel configuration
:class:`~repro.parallel.ParallelIDG`, process-sharded
:class:`~repro.parallel.process.ProcessShardedIDG` — runs the same corpus of
small but structurally varied plans (plain, w-offset, A-term schedule,
wideband C = 512, flagged visibilities, and the one-correlation Stokes-I
sample with and without scalar A-term fields) and must reproduce the serial
executor's grids and visibilities **bit-identically** (``np.array_equal``,
no tolerance).  This replaces the ad-hoc pairwise bit-exactness checks that
used to live in ``tests/runtime/test_streaming.py`` and
``tests/parallel/test_executor.py``.

Workloads and serial references are computed once per case and cached for
the whole session in :class:`ConformanceCorpus` (synthesising the wideband
case is the expensive part).  Engines are built the way callers build them,
with ``make_engine`` (two workers, three streaming buffers); the process
executor runs with the ``fork`` start method so the harness stays fast on
single-core CI hosts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.aterms.generators import GaussianBeamATerm
from repro.aterms.jones import scalar_jones_fields
from repro.aterms.schedule import ATermSchedule
from repro.core.pipeline import IDG, IDGConfig
from repro.imaging.pipeline import make_engine
from repro.telescope.observation import ska1_low_observation

#: Executors held to bit-identical agreement with ``serial``.
EXECUTORS = ("serial", "threads", "streaming", "processes")


@dataclass(frozen=True)
class ConformanceCase:
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
    fill_factor: float = 0.9
    w_offset: float = 0.0
    aterm_interval: int | None = None
    #: Fraction of (baseline, time, channel) samples flagged at random.
    flag_fraction: float = 0.0
    #: Correlations per sample: 4, or 1 for the Stokes-I sample alone
    #: (``(..., 1, 1)`` visibilities, ``(1, G, G)`` grids, the A-term
    #: fields' scalar factors passed as ``aterm_fields``).
    n_correlations: int = 4
    seed: int = 0


CONFORMANCE_CASES = (
    ConformanceCase("baseline", seed=11),
    ConformanceCase("w-offset", w_offset=15.0, fill_factor=1.4, seed=12),
    ConformanceCase("aterms", aterm_interval=3, seed=13),
    ConformanceCase(
        "wideband",
        n_stations=3,
        n_times=2,
        n_channels=512,
        subgrid_size=8,
        kernel_support=2,
        max_radius_m=250.0,
        seed=14,
    ),
    ConformanceCase("flagged", flag_fraction=0.25, seed=16),
)

#: The one-correlation Stokes-I corpus: what the imaging processors grid
#: and degrid whenever their A-terms are scalar fields (or absent).
STOKES_I_CASES = (
    ConformanceCase("stokes-i", n_correlations=1, flag_fraction=0.25, seed=17),
    ConformanceCase("stokes-i-aterms", n_correlations=1, aterm_interval=3, seed=18),
)


class ConformanceCorpus:
    """Builds and caches per-case workloads and per-(case, executor) runs."""

    #: The case tables, reachable from the ``conformance`` fixture (test
    #: modules in this directory have no package, so they cannot import
    #: this conftest directly).
    cases: tuple[ConformanceCase, ...] = ()  # filled in below
    stokes_i_cases: tuple[ConformanceCase, ...] = ()

    def __init__(self) -> None:
        self._workloads: dict[str, dict] = {}
        self._references: dict[str, dict] = {}

    # -------------------------------------------------------------- workload

    def workload(self, case: ConformanceCase) -> dict:
        """Observation, plan, visibilities, model grid and flags of a case."""
        if case.name not in self._workloads:
            obs = ska1_low_observation(
                n_stations=case.n_stations,
                n_times=case.n_times,
                n_channels=case.n_channels,
                integration_time_s=60.0,
                max_radius_m=case.max_radius_m,
                seed=case.seed,
            )
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
            flags = None
            if case.flag_fraction > 0.0:
                flags = rng.random(vis_shape[:3]) < case.flag_fraction
                assert flags.any() and not flags.all()
            idg = IDG(
                gridspec,
                IDGConfig(
                    subgrid_size=case.subgrid_size,
                    kernel_support=case.kernel_support,
                    time_max=case.time_max,
                    work_group_size=8,
                ),
            )
            plan = idg.make_plan(
                obs.uvw_m,
                obs.frequencies_hz,
                obs.array.baselines(),
                aterm_schedule=schedule,
                w_offset=case.w_offset,
            )
            assert plan.statistics.n_visibilities_gridded > 0
            # Four correlations: each executor evaluates the fields itself.
            # One: the scalar factors, as the imaging processors pass them.
            aterm_kwargs = {"aterms": aterms}
            if case.n_correlations == 1:
                fields = idg.aterm_fields(plan, aterms)
                aterm_kwargs = {
                    "aterm_fields": None if fields is None
                    else scalar_jones_fields(fields)
                }
            self._workloads[case.name] = {
                "obs": obs,
                "idg": idg,
                "plan": plan,
                "vis": vis,
                "model": model,
                "aterms": aterms,
                "aterm_kwargs": aterm_kwargs,
                "flags": flags,
            }
        return self._workloads[case.name]

    # ------------------------------------------------------------- execution

    def reference(self, case: ConformanceCase) -> dict:
        """Serial grid and degrid results of a case (the oracle)."""
        if case.name not in self._references:
            self._references[case.name] = {
                "grid": self.run("serial", case, "grid"),
                "degrid": self.run("serial", case, "degrid"),
            }
        return self._references[case.name]

    def run(self, executor: str, case: ConformanceCase, kind: str) -> np.ndarray:
        """One (executor, case, kind) execution; returns the value array."""
        w = self.workload(case)
        idg, plan, obs = w["idg"], w["plan"], w["obs"]
        engine = make_engine(
            idg, executor, n_workers=2, n_buffers=3, start_method="fork"
        )
        if kind == "grid":
            return engine.grid(
                plan, obs.uvw_m, w["vis"], flags=w["flags"], **w["aterm_kwargs"]
            )
        return engine.degrid(plan, obs.uvw_m, w["model"], **w["aterm_kwargs"])


ConformanceCorpus.cases = CONFORMANCE_CASES
ConformanceCorpus.stokes_i_cases = STOKES_I_CASES


@pytest.fixture(scope="session")
def conformance():
    return ConformanceCorpus()


@pytest.fixture(params=CONFORMANCE_CASES, ids=lambda c: c.name)
def conformance_case(request):
    return request.param


@pytest.fixture(params=STOKES_I_CASES, ids=lambda c: c.name)
def stokes_i_case(request):
    return request.param
