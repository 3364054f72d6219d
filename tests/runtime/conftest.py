"""Reference sums the runtime tests hold executor grids and counts to."""

import pytest

from repro.constants import COMPLEX_DTYPE


def _plan_order_sum(idg, plan, uvw_m, vis, groups):
    grid = idg.gridspec.allocate_grid(dtype=COMPLEX_DTYPE)
    backend = idg.backend
    tables = backend.call_tables(plan, idg.lmn, None, vis.shape[-1] ** 2)
    for group, (start, stop) in enumerate(plan.work_groups(idg.config.work_group_size)):
        if group not in groups:
            continue
        subgrids = backend.grid_work_group(
            plan, start, stop, uvw_m, vis, idg.taper, tables
        )
        backend.add_subgrids(
            grid, plan, backend.subgrids_to_fourier(subgrids), start=start
        )
    return grid


def _covered_visibilities(plan, start, stop):
    rows = plan.items[start:stop]
    return int(
        (
            (rows["time_end"] - rows["time_start"])
            * (rows["channel_end"] - rows["channel_start"])
        ).sum()
    )


@pytest.fixture(scope="session")
def plan_order_sum():
    """``fold(idg, plan, uvw_m, vis, groups)``: the serial adder's fold of
    exactly the work groups in ``groups``, in plan order — what a snapshot
    whose completed set is ``groups`` holds, and what a run that quarantined
    every other group returns."""
    return _plan_order_sum


@pytest.fixture(scope="session")
def covered_visibilities():
    """``count(plan, start, stop)``: covered (time x channel) visibilities
    of plan items ``[start, stop)``, summed item by item — the count a work
    group's dead letter and the ``visibilities`` counter carry."""
    return _covered_visibilities
