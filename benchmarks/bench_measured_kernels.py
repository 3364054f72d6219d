"""Measured performance of this package's kernels (pytest-benchmark).

Not a paper figure: these are the honest wall-clock numbers of the Python
substrate itself, per kernel, so regressions in the NumPy implementations
are caught and users know what to expect on a host CPU.
"""

import numpy as np
import pytest

from repro.core.adder import add_subgrids, split_subgrids
from repro.core.plan import Plan
from repro.core.subgrid_fft import subgrids_to_fourier, subgrids_to_image
from repro.parallel.executor import ParallelIDG
from repro.runtime.blas import single_threaded_blas

GROUP = 16


@pytest.fixture(autouse=True, scope="module")
def _production_blas_threads():
    """Time the kernels with the one OpenBLAS thread every grid and degrid
    call runs them with."""
    single_threaded_blas()


def test_bench_plan_construction(benchmark, bench_obs, bench_gridspec):
    baselines = bench_obs.array.baselines()
    plan = benchmark(
        Plan.create,
        bench_obs.uvw_m, bench_obs.frequencies_hz, baselines, bench_gridspec,
        24, 8, 128,
    )
    assert plan.n_subgrids > 0


def test_bench_gridder_work_group(benchmark, bench_plan, bench_obs, bench_vis,
                                  bench_idg):
    stop = min(GROUP, bench_plan.n_subgrids)
    out = benchmark(
        bench_idg.backend.grid_work_group,
        bench_plan, 0, stop, bench_obs.uvw_m, bench_vis, bench_idg.taper,
        bench_idg.backend.call_tables(bench_plan, bench_idg.lmn, None, 4),
    )
    assert out.shape[0] == stop


def test_bench_degridder_work_group(benchmark, bench_plan, bench_obs, bench_vis,
                                    bench_idg):
    stop = min(GROUP, bench_plan.n_subgrids)
    tables = bench_idg.backend.call_tables(bench_plan, bench_idg.lmn, None, 4)
    subgrids = bench_idg.backend.grid_work_group(
        bench_plan, 0, stop, bench_obs.uvw_m, bench_vis, bench_idg.taper, tables
    )
    images = subgrids_to_image(subgrids_to_fourier(subgrids))
    out = np.zeros_like(bench_vis)

    def run():
        bench_idg.backend.degrid_work_group(
            bench_plan, 0, stop, images, bench_obs.uvw_m, out, bench_idg.taper,
            tables,
        )

    benchmark(run)


def test_bench_subgrid_fft(benchmark, bench_plan):
    rng = np.random.default_rng(0)
    n = bench_plan.subgrid_size
    k = min(256, bench_plan.n_subgrids)
    subgrids = (
        rng.standard_normal((k, n, n, 2, 2)) + 1j * rng.standard_normal((k, n, n, 2, 2))
    ).astype(np.complex64)
    out = benchmark(subgrids_to_fourier, subgrids)
    assert out.shape == subgrids.shape


def test_bench_adder(benchmark, bench_plan):
    rng = np.random.default_rng(1)
    n = bench_plan.subgrid_size
    k = min(256, bench_plan.n_subgrids)
    subgrids = (
        rng.standard_normal((k, n, n, 2, 2)) + 1j * rng.standard_normal((k, n, n, 2, 2))
    ).astype(np.complex64)
    grid = bench_plan.gridspec.allocate_grid()

    benchmark(add_subgrids, grid, bench_plan, subgrids, 0)


def test_bench_splitter(benchmark, bench_plan):
    grid = bench_plan.gridspec.allocate_grid()
    k = min(256, bench_plan.n_subgrids)
    out = benchmark(split_subgrids, grid, bench_plan, 0, k)
    assert out.shape[0] == k


def test_bench_parallel_gridding_speedup(benchmark, bench_plan, bench_obs,
                                         bench_vis, bench_idg):
    """Thread-parallel gridding of a plan slice (4 workers)."""
    import time

    par = ParallelIDG(bench_idg.with_config(work_group_size=16), n_workers=4)

    # restrict to a slice of the plan for bench speed
    sliced = Plan(
        gridspec=bench_plan.gridspec,
        subgrid_size=bench_plan.subgrid_size,
        items=bench_plan.items[: min(48, bench_plan.n_subgrids)],
        flagged=bench_plan.flagged,
        frequencies_hz=bench_plan.frequencies_hz,
        kernel_support=bench_plan.kernel_support,
    )
    out = benchmark(par.grid, sliced, bench_obs.uvw_m, bench_vis)
    assert np.abs(out).max() > 0
