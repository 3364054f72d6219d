"""Ablation: the channel phasor recurrence.

This package's own optimisation in the spirit of the paper's Section V-B
batch sincos precomputation: with evenly spaced channels, the phasor
factorises as ``exp(i s_0 A) * exp(i ds A)**c``, trading one sincos per
(pixel, visibility) for one sincos pair per (pixel, timestep) plus a
complex multiply per channel step — a ~C-fold cut in transcendental work.
On sincos-*limited* architectures (HASWELL, FIJI — the Fig 11 dashed
bounds) the model says this recovers most of the gap to the FMA peak; this
bench times the two production gridder kernels — ``gridder_bucket_fast``
(recurrence) against ``gridder_bucket`` (direct sum) — on the same gathered
bucket of work items, and pins the accuracy.
"""

import time

import numpy as np
from _util import print_series

from repro.constants import ACCUM_DTYPE
from repro.core.gridder import gridder_bucket, gridder_bucket_fast
from repro.core.scratch import ScratchArena
from repro.parallel.bucketing import (
    bucket_work_items,
    gather_offsets,
    gather_rel_uvw,
    gather_scale0,
    gather_uvw,
    gather_visibilities,
    uniform_channel_step,
)
from repro.perfmodel.architectures import FIJI, HASWELL
from repro.perfmodel.opcount import FMAS_PER_PIXEL_VIS
from repro.perfmodel.sincos import mixed_throughput_ops
from repro.runtime.blas import single_threaded_blas


def test_ablation_channel_recurrence(benchmark, bench_plan, bench_obs, bench_vis,
                                     bench_idg):
    single_threaded_blas()  # the BLAS threading production kernels run with
    stop = min(16, bench_plan.n_subgrids)
    bucket = max(bucket_work_items(bench_plan, 0, stop), key=lambda b: b.n_items)
    indices = bucket.indices
    n_vis = bucket.n_visibilities
    arena = ScratchArena()
    vis = gather_visibilities(
        bench_plan, indices, bench_vis, arena, dtype=ACCUM_DTYPE
    ).copy()
    uvw = gather_uvw(bench_plan, indices, bench_obs.uvw_m, arena).copy()
    rel_uvw = gather_rel_uvw(bench_plan, indices, bench_obs.uvw_m, arena).copy()
    offsets = gather_offsets(bench_plan, indices, arena).copy()
    scale0 = gather_scale0(bench_plan, indices)
    ds = uniform_channel_step(bench_plan.frequencies_hz)
    kernels = {
        "direct": lambda: gridder_bucket(
            vis.reshape(len(indices), -1, 4), rel_uvw,
            bench_idg.lmn, bench_idg.taper, arena=arena,
        ),
        "recurrence": lambda: gridder_bucket_fast(
            vis, uvw, scale0, ds, offsets, bench_idg.lmn, bench_idg.taper,
            arena=arena,
        ),
    }

    def measure():
        results = {}
        grids = {}
        for name, kernel in kernels.items():
            kernel()  # warm the arena so the timed call allocates nothing
            t0 = time.perf_counter()
            grids[name] = kernel().copy()  # the result is an arena view
            results[name] = time.perf_counter() - t0
        scale = float(np.abs(grids["direct"]).max())
        results["max_diff"] = float(
            np.abs(grids["recurrence"] - grids["direct"]).max()
        ) / scale
        return results

    results = benchmark(measure)
    speedup = results["direct"] / results["recurrence"]
    rows = [
        ("direct", results["direct"], n_vis / results["direct"] / 1e6),
        ("recurrence", results["recurrence"], n_vis / results["recurrence"] / 1e6),
    ]
    print_series(
        "Ablation: channel phasor recurrence (measured gridder, this host)",
        ["variant", "seconds", "MVis/s"],
        rows,
    )
    # model-side: the equivalent rho change on sincos-limited architectures.
    c = bench_plan.n_channels
    rho_fast = FMAS_PER_PIXEL_VIS * c + 4.0 * (c - 1)  # FMAs per remaining sincos
    model_rows = []
    for arch in (HASWELL, FIJI):
        before = mixed_throughput_ops(arch, 17.0) / arch.peak_ops
        after = mixed_throughput_ops(arch, rho_fast) / arch.peak_ops
        model_rows.append((arch.name, before, after))
    print_series(
        "Model: peak fraction at the kernel mix, before/after recurrence",
        ["arch", "rho=17", f"rho={rho_fast:.0f}"],
        model_rows,
    )

    assert results["max_diff"] < 1e-5
    assert speedup > 2.0  # the measured win on this host
    # the model agrees the win is biggest for software-sincos architectures
    assert mixed_throughput_ops(HASWELL, rho_fast) > 2 * mixed_throughput_ops(
        HASWELL, 17.0
    )
