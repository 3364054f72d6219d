"""Property-based tests: IDG core invariants (adjointness, plan coverage)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.degridder import degridder_bucket
from repro.core.gridder import gridder_bucket, subgrid_lmn
from repro.core.plan import Plan
from repro.gridspec import GridSpec
from repro.kernels.spheroidal import spheroidal_taper
from repro.telescope.array import StationArray, baseline_pairs
from repro.telescope.layouts import random_disc_layout
from repro.telescope.observation import Observation


@given(
    n=st.sampled_from([4, 8, 12]),
    g=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_gridder_degridder_adjoint_property(n, g, m, seed):
    """<gridder(V), S> == <V, degridder(S)> for arbitrary bucket sizes/uvw."""
    rng = np.random.default_rng(seed)
    lmn = subgrid_lmn(n, 0.08)
    taper = spheroidal_taper(n)
    uvw = rng.standard_normal((g, m, 3)) * 15.0
    vis = rng.standard_normal((g, m, 1, 4)) + 1j * rng.standard_normal((g, m, 1, 4))
    sub = rng.standard_normal((g, n, n, 2, 2)) + 1j * rng.standard_normal((g, n, n, 2, 2))
    lhs = np.vdot(gridder_bucket(vis, uvw, None, lmn, taper), sub)
    rhs = np.vdot(vis, degridder_bucket(sub, uvw, None, 1, lmn, taper))
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) / scale < 2e-3


@given(
    n_stations=st.integers(min_value=3, max_value=8),
    n_times=st.integers(min_value=2, max_value=24),
    n_channels=st.integers(min_value=1, max_value=6),
    subgrid_size=st.sampled_from([8, 16, 24]),
    time_max=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=25, deadline=None)
def test_plan_covers_each_visibility_exactly_once(
    n_stations, n_times, n_channels, subgrid_size, time_max, seed
):
    """For arbitrary observations, every visibility is covered exactly once
    or flagged — the fundamental plan correctness invariant."""
    array = StationArray(positions_enu=random_disc_layout(n_stations, 3000.0, seed=seed))
    obs = Observation(
        array=array,
        n_times=n_times,
        integration_time_s=60.0,
        frequencies_hz=140e6 + 1e6 * np.arange(n_channels),
    )
    gridspec = obs.fitting_gridspec(128)
    plan = Plan.create(
        obs.uvw_m, obs.frequencies_hz, array.baselines(), gridspec,
        subgrid_size=subgrid_size,
        kernel_support=min(4, subgrid_size - 2),
        time_max=time_max,
    )
    count = np.zeros((array.n_baselines, n_times, n_channels), dtype=int)
    for item in plan:
        count[
            item.baseline, item.time_start : item.time_end,
            item.channel_start : item.channel_end,
        ] += 1
    assert np.all((count == 1) | plan.flagged)
    assert not np.any((count > 0) & plan.flagged)
    # subgrids stay on the master grid
    for row in plan.items:
        assert 0 <= row["corner_u"] <= gridspec.grid_size - subgrid_size
        assert 0 <= row["corner_v"] <= gridspec.grid_size - subgrid_size
    # time_max honoured
    assert all(item.n_times <= time_max for item in plan)


@given(
    n=st.sampled_from([8, 16]),
    g=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scale=st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=25, deadline=None)
def test_gridder_scaling_homogeneity(n, g, m, seed, scale):
    """gridder(c * V) == c * gridder(V)."""
    rng = np.random.default_rng(seed)
    lmn = subgrid_lmn(n, 0.08)
    taper = spheroidal_taper(n)
    uvw = rng.standard_normal((g, m, 3)) * 10.0
    vis = rng.standard_normal((g, m, 1, 4)) + 1j * rng.standard_normal((g, m, 1, 4))
    # the kernel returns a scratch-arena view: copy before the next call
    a = gridder_bucket(scale * vis, uvw, None, lmn, taper).copy()
    b = gridder_bucket(vis, uvw, None, lmn, taper)
    # each call rounds its complex64 products separately (paper Section
    # VI-A precision): the differential harness's budget, 1e-5 of the peak
    np.testing.assert_allclose(a, scale * b, rtol=1e-5, atol=1e-5 * np.abs(a).max())
