"""Property-based cross-backend equivalence.

Hypothesis draws random observation geometries and plan parameters; every
registered backend grids and degrids the same draw and the outputs must
agree pairwise.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import available_backends
from repro.core.pipeline import IDG, IDGConfig
from repro.telescope.observation import ska1_low_observation

RTOL = 1e-5

COMPARED = available_backends()


def _draw_outputs(backend_name, n_stations, n_times, n_channels, subgrid_size,
                  w_offset, seed):
    obs = ska1_low_observation(
        n_stations=n_stations,
        n_times=n_times,
        n_channels=n_channels,
        integration_time_s=45.0,
        max_radius_m=300.0,
        seed=seed,
    )
    idg = IDG(
        obs.fitting_gridspec(128),
        IDGConfig(
            subgrid_size=subgrid_size,
            kernel_support=2,
            time_max=4,
            work_group_size=4,
            backend=backend_name,
        ),
    )
    plan = idg.make_plan(
        obs.uvw_m, obs.frequencies_hz, obs.array.baselines(), w_offset=w_offset
    )
    rng = np.random.default_rng(seed)
    shape = (obs.array.n_baselines, n_times, n_channels, 2, 2)
    vis = (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ).astype(np.complex64)
    stop = min(4, plan.n_subgrids)
    subgrids = idg.backend.grid_work_group(
        plan, 0, stop, obs.uvw_m, vis, idg.taper,
        idg.backend.call_tables(plan, idg.lmn, None, 4),
    )
    grid = idg.grid(plan, obs.uvw_m, vis)
    degridded = idg.degrid(plan, obs.uvw_m, grid)
    return subgrids, grid, degridded


@given(
    n_stations=st.integers(min_value=3, max_value=5),
    n_times=st.integers(min_value=1, max_value=5),
    n_channels=st.sampled_from([1, 2, 4]),
    subgrid_size=st.sampled_from([8, 12]),
    w_offset=st.sampled_from([0.0, 12.0]),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=10, deadline=None)
def test_backends_equivalent_on_random_plans(
    n_stations, n_times, n_channels, subgrid_size, w_offset, seed
):
    """Work-group subgrids, master grids and degridded visibilities agree
    pairwise between all compared backends on arbitrary draws."""
    outputs = {
        name: _draw_outputs(
            name, n_stations, n_times, n_channels, subgrid_size, w_offset, seed
        )
        for name in COMPARED
    }
    for a, b in itertools.combinations(COMPARED, 2):
        for what, x, y in zip(
            ("subgrids", "grid", "degridded"), outputs[a], outputs[b]
        ):
            scale = max(float(np.abs(x).max()), 1e-12)
            np.testing.assert_allclose(
                y, x, rtol=RTOL, atol=RTOL * scale,
                err_msg=f"{what}: {a} vs {b} (seed={seed})",
            )

