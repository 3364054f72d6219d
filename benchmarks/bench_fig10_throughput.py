"""Fig 10: gridding/degridding throughput in MVisibilities/s.

Two layers: the *model* throughput for the paper's three architectures
(shape pinned: PASCAL > FIJI >> HASWELL, roughly 10x CPU->GPU), and the
*measured* throughput of this package's NumPy kernels on the host — the
honest Python-substrate number a user of this library actually gets.
"""

import numpy as np
from _util import print_series

from repro.perfmodel.architectures import ALL_ARCHITECTURES
from repro.perfmodel.opcount import degridder_counts, gridder_counts
from repro.perfmodel.runtime import throughput_mvis
from repro.runtime.blas import single_threaded_blas


def test_fig10_modelled_throughput(benchmark, bench_plan):
    gc = gridder_counts(bench_plan)
    dc = degridder_counts(bench_plan)
    result = benchmark(
        lambda: {a.name: (throughput_mvis(a, gc), throughput_mvis(a, dc))
                 for a in ALL_ARCHITECTURES}
    )
    print_series(
        "Fig 10: modelled throughput (MVis/s)",
        ["arch", "gridding", "degridding"],
        [(name, g, d) for name, (g, d) in result.items()],
    )
    assert result["PASCAL"][0] > result["FIJI"][0] > result["HASWELL"][0]
    assert result["PASCAL"][0] / result["HASWELL"][0] > 9


def test_fig10_measured_python_gridding(benchmark, bench_plan, bench_obs, bench_vis,
                                        bench_idg):
    """Measured NumPy gridder throughput over a slice of the plan."""
    single_threaded_blas()  # the BLAS threading production kernels run with
    stop = min(24, bench_plan.n_subgrids)

    def run():
        return bench_idg.backend.grid_work_group(
            bench_plan, 0, stop, bench_obs.uvw_m, bench_vis, bench_idg.taper,
            lmn=bench_idg.lmn,
        )

    benchmark(run)
    n_vis = sum(bench_plan.work_item(i).n_visibilities for i in range(stop))
    mvis = n_vis / benchmark.stats["mean"] / 1e6
    print_series(
        "Fig 10 (measured, this package's NumPy kernels on this host)",
        ["kernel", "MVis/s"],
        [("gridder", mvis)],
    )
    assert mvis > 5e-4  # sanity only: host speed varies widely under suite load
