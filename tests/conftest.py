"""Shared fixtures: a small but fully realistic observation.

The fixtures are session-scoped because synthesising visibilities through the
direct measurement equation is the most expensive part of the suite; tests
must treat them as read-only.
"""

from __future__ import annotations

import os

# Runtime shape contracts (repro.analysis.contracts) are decoration-time
# gated; enable them before any repro module is imported so every kernel
# call in the suite is validated against its @shape_checked spec.
os.environ.setdefault("IDGLINT_SHAPE_CHECKS", "1")

import numpy as np
import pytest

# idgsan (repro.analysis.sanitizer) is opt-in: IDG_SANITIZE=1 pytest runs
# the whole suite with lockset race detection and the deadlock watchdog on.
from repro.analysis import sanitizer as _sanitizer

_sanitizer.maybe_install_from_env()


@pytest.fixture(autouse=True)
def _idgsan_no_new_reports():
    """Under IDG_SANITIZE=1, fail any test whose execution produced a
    sanitizer report (race/deadlock/arena violation); a no-op otherwise.

    Tests that *seed* violations on purpose (tests/analysis/test_sanitizer)
    run under their own ``sanitized()`` context, which swaps the active
    sanitizer, so their reports never land on the session instance."""
    session_sanitizer = _sanitizer.current()
    before = len(session_sanitizer.reports) if session_sanitizer else 0
    yield
    if session_sanitizer is not None:
        fresh = session_sanitizer.reports[before:]
        assert not fresh, "idgsan reports during test:\n" + "\n".join(
            r.format_text() for r in fresh
        )

from repro.core.pipeline import IDG, IDGConfig
from repro.sky.model import SkyModel
from repro.sky.simulate import predict_visibilities
from repro.telescope.observation import ska1_low_observation


@pytest.fixture(scope="session")
def small_obs():
    """12 stations (66 baselines), 64 x 2-minute integrations (a ~2-hour
    synthesis, matching the paper's 8192 x 1 s span), 4 channels, 2 km array.

    The long time span matters: earth rotation sweeps real uv arcs, giving a
    PSF with low enough sidelobes for the CLEAN-based integration tests."""
    return ska1_low_observation(
        n_stations=12, n_times=64, n_channels=4, integration_time_s=120.0,
        max_radius_m=2000.0, seed=1,
    )


@pytest.fixture(scope="session")
def small_gridspec(small_obs):
    return small_obs.fitting_gridspec(256)


@pytest.fixture(scope="session")
def small_baselines(small_obs):
    return small_obs.array.baselines()


@pytest.fixture(scope="session")
def snapped_source(small_gridspec):
    """(l, m, flux) of a single source snapped to a fine image pixel."""
    gs = small_gridspec
    dl = gs.pixel_scale
    l0 = round(0.15 * gs.image_size / dl) * dl
    m0 = round(-0.10 * gs.image_size / dl) * dl
    return (l0, m0, 2.0)


@pytest.fixture(scope="session")
def single_source_sky(snapped_source):
    l0, m0, flux = snapped_source
    return SkyModel.single(l0, m0, flux=flux)


@pytest.fixture(scope="session")
def single_source_vis(small_obs, small_baselines, single_source_sky):
    return predict_visibilities(
        small_obs.uvw_m, small_obs.frequencies_hz, single_source_sky,
        baselines=small_baselines,
    )


@pytest.fixture(scope="session")
def small_idg(small_gridspec):
    return IDG(small_gridspec, IDGConfig(subgrid_size=24, kernel_support=8, time_max=16))


@pytest.fixture(scope="session")
def small_plan(small_idg, small_obs, small_baselines):
    return small_idg.make_plan(small_obs.uvw_m, small_obs.frequencies_hz, small_baselines)


class _CountingGridder:
    """A gridder facade that counts its ``grid`` passes."""

    def __init__(self, idg):
        self._idg = idg
        self.grid_calls = 0

    def __getattr__(self, name):
        return getattr(self._idg, name)

    def grid(self, *args, **kwargs):
        self.grid_calls += 1
        return self._idg.grid(*args, **kwargs)


@pytest.fixture
def counting_gridder():
    """Wrap a gridder so a test can count its grid passes; as the serial
    engine of an FTProcessor it sees every grid the processor runs."""
    return _CountingGridder
