"""Ablation: the channel phasor recurrence.

This package's own optimisation in the spirit of the paper's Section V-B
batch sincos precomputation: with evenly spaced channels, the phasor
factorises as ``exp(i s_0 A) * exp(i ds A)**c``, trading one phasor per
(pixel, visibility) for one phasor and one step per (pixel, timestep) plus
a complex multiply per channel step — a ~C-fold cut in transcendental work.
The production gridder, ``repro.core.gridder.gridder_bucket``, runs the
recurrence over the channels of each row it is given.  The work-group
drivers give it a row per timestep on an evenly spaced channel ladder and a
row per (timestep, channel) sample with one channel, the direct sum, on any
other.  Both layouts build their phasors from separable l-, m- and n-factor
rows (``repro.core.gridder.raster_phasor``): one channel per row evaluates
``2N + R`` sincos pairs per visibility, the recurrence ``2(2N + R)`` per
timestep (``R = 83`` distinct n values for ``N = 24``), so the ratio
between them is still ~C/2.  On sincos-*limited* architectures (HASWELL,
FIJI — the Fig 11 dashed bounds) the model says this recovers most of the
gap to the FMA peak; this bench times the kernel in its two layouts — a row
per timestep (recurrence) against a row per sample (direct sum) — on the
same gathered bucket of work items, and pins the accuracy.  Each layout's
time is the median of :data:`REPEATS` interleaved calls: one call is too
noisy on a shared host to hold a bound.
"""

import statistics
import time

import numpy as np
from _util import print_series

from repro.core.gridder import gridder_bucket
from repro.core.scratch import ScratchArena
from repro.parallel.bucketing import (
    bucket_work_items,
    gather_coordinates,
    gather_uvw,
    gather_visibilities,
    uniform_channel_step,
)
from repro.perfmodel.architectures import FIJI, HASWELL
from repro.perfmodel.opcount import FMAS_PER_PIXEL_VIS
from repro.perfmodel.sincos import mixed_throughput_ops
from repro.runtime.blas import single_threaded_blas

#: Timed calls per layout; the reported time is their median.
REPEATS = 9

#: A row per timestep must beat a row per sample by this factor.  The float64
#: kernels measured 2-3x; in single precision sin/cos is ~10x cheaper, so
#: the direct sum gained more.  Eight runs of the median-of-9 timing on the
#: 2-vCPU KVM host measured 1.85-2.02x, median 1.90x, and eight later runs
#: 2.36-2.44x, median 2.39x (EXPERIMENTS.md).
MIN_SPEEDUP = 1.5


def test_ablation_channel_recurrence(benchmark, bench_plan, bench_obs, bench_vis,
                                     bench_idg):
    single_threaded_blas()  # the BLAS threading production kernels run with
    stop = min(16, bench_plan.n_subgrids)
    bucket = max(bucket_work_items(bench_plan, 0, stop), key=lambda b: b.n_items)
    indices = bucket.indices
    n_vis = bucket.n_visibilities
    arena = ScratchArena()
    vis = gather_visibilities(bench_plan, indices, bench_vis, arena).copy()
    uvw = gather_uvw(bench_plan, indices, bench_obs.uvw_m, arena).copy()
    rel_uvw = gather_coordinates(bench_plan, indices, uvw, bucket.n_channels, arena).copy()
    start = gather_coordinates(bench_plan, indices, uvw, 1, arena).copy()
    step = uvw * uniform_channel_step(bench_plan.frequencies_hz)
    kernels = {
        "direct": lambda: gridder_bucket(
            vis.reshape(len(indices), -1, 1, 4), rel_uvw, None,
            bench_idg.lmn, bench_idg.taper, arena=arena,
        ),
        "recurrence": lambda: gridder_bucket(
            vis, start, step, bench_idg.lmn, bench_idg.taper, arena=arena,
        ),
    }

    def measure():
        grids = {}
        for name, kernel in kernels.items():
            grids[name] = kernel().copy()  # warms the arena; result is a view
        seconds = {name: [] for name in kernels}
        for _ in range(REPEATS):
            for name, kernel in kernels.items():
                t0 = time.perf_counter()
                kernel()
                seconds[name].append(time.perf_counter() - t0)
        results = {name: statistics.median(t) for name, t in seconds.items()}
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
    assert speedup > MIN_SPEEDUP  # the measured win on this host
    # the model agrees the win is biggest for software-sincos architectures
    assert mixed_throughput_ops(HASWELL, rho_fast) > 2 * mixed_throughput_ops(
        HASWELL, 17.0
    )
