"""Grid transforms: real-to-complex and shift-free against the complex formula.

The imaging cycle ends every grid pass with a grid transform and the taper
correction.  ``dirty_image_from_grid`` forms the Hermitian half plane of the
grid and runs a complex-to-real inverse transform; ``model_image_to_grid``
runs a real-to-complex forward transform and mirrors the other half.  Both
fold the centring shift into sign flips (DESIGN §3).  This bench compares
them, at 512² and 1024², with the complex formula they replaced, written out
below: a full complex transform between ``ifftshift`` and ``fftshift``
copies, whose real part is the dirty image.

Both sides run once per round, ``ROUNDS`` rounds with the order reversed
every other round (``interleaved_rounds``); a side's time in a round is the
median of ``CALLS`` calls.  Recorded per size and direction:

* the per-round time ratio (real / complex) and each side's median time;
* each side's ``tracemalloc`` peak for one call, its result included;
* each side's maximum deviation from a float64 evaluation of the same
  formula, as a fraction of the reference's peak.

Times are for information.  Only the deterministic columns are gated: the
real transforms allocate at most half of what the complex formula allocates,
and both sides stay within ``DEVIATION_GATE`` of the float64 reference.

The grid and model are seeded random fields (every pixel and cell
non-zero), so every butterfly of the transforms carries data.

Writes ``benchmarks/results/BENCH_grid_transforms.json``.  Run with
``PYTHONPATH=src python -m pytest -q -s benchmarks/bench_grid_transforms.py``.
"""

import json
import os
import platform
import statistics
import time
import tracemalloc

import numpy as np

from _util import RESULTS_DIR, interleaved_rounds, print_series, round_ratios

from repro.constants import COMPLEX_DTYPE
from repro.gridspec import GridSpec
from repro.imaging.image import (
    apply_grid_correction,
    dirty_image_from_grid,
    model_image_to_grid,
)
from repro.kernels.spheroidal import grid_correction, grid_correction_window

SIZES = (512, 1024)
#: Interleaved rounds; the reported times and ratios are their medians.
ROUNDS = 11
#: Calls per side per round (the round's time is their median).
CALLS = 3
WEIGHT_SUM = 1.0e5
#: Allowed allocation of the real transforms, as a fraction of the complex
#: formula's.
ALLOCATION_GATE = 0.5
#: Allowed deviation from the float64 reference, as a fraction of its peak:
#: ``IMAGE_BUDGET`` of ``tests/imaging/test_image_precision.py``.
DEVIATION_GATE = 1e-6

AXES = (-2, -1)


def complex_dirty_image(grid, g):
    """The complex formula: shifted complex inverse transform, scaled and
    corrected in the grid's precision; the real part is the image."""
    image = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(grid, axes=AXES), axes=AXES), axes=AXES)
    apply_grid_correction(image, grid_correction_window(g), g * g / WEIGHT_SUM)
    return np.real(image)


def complex_model_grid(model, g):
    """The complex formula: the model rounded to complex64, scaled by G²
    and corrected, shifted complex forward transform with
    ``norm="forward"``."""
    plane = np.empty(model.shape, dtype=COMPLEX_DTYPE)
    plane[...] = model
    apply_grid_correction(plane, grid_correction_window(g), g * g)
    return np.fft.fftshift(
        np.fft.fft2(np.fft.ifftshift(plane, axes=AXES), axes=AXES, norm="forward"), axes=AXES
    )


def reference_dirty_image(grid, g):
    image = np.fft.fftshift(
        np.fft.ifft2(np.fft.ifftshift(grid.astype(np.complex128), axes=AXES), axes=AXES),
        axes=AXES,
    )
    return image.real * (g * g / WEIGHT_SUM) / grid_correction(g)


def reference_model_grid(model, g):
    return np.fft.fftshift(
        np.fft.fft2(np.fft.ifftshift(model / grid_correction(g), axes=AXES), axes=AXES),
        axes=AXES,
    )


def timed(fn):
    def measure():
        times = []
        for _ in range(CALLS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return measure


def peak_allocation(fn):
    fn()  # warm: FFT plan caches, windows
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak


def deviation(value, reference):
    return float(np.abs(value - reference).max() / np.abs(reference).max())


def test_bench_grid_transforms():
    rng = np.random.default_rng(26)
    results = {}
    rows = []
    for g in SIZES:
        gs = GridSpec(grid_size=g, image_size=0.05)
        grid = (
            rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
        ).astype(COMPLEX_DTYPE)
        model = rng.standard_normal((g, g))
        sides = {
            "dirty_image": {
                "real": lambda: dirty_image_from_grid(grid, gs, WEIGHT_SUM),
                "complex": lambda: complex_dirty_image(grid, g),
                "reference": reference_dirty_image(grid, g),
            },
            "model_grid": {
                "real": lambda: model_image_to_grid(model, gs),
                "complex": lambda: complex_model_grid(model, g),
                "reference": reference_model_grid(model, g),
            },
        }
        results[str(g)] = {}
        for direction, side in sides.items():
            samples = interleaved_rounds(
                {"complex": timed(side["complex"]), "real": timed(side["real"])}, ROUNDS
            )
            ratios = round_ratios(samples, "complex")["real"]
            record = {
                "ratio_all": ratios,
                "ratio_median": statistics.median(ratios),
                "rounds_real_faster": sum(r < 1.0 for r in ratios),
            }
            for name in ("complex", "real"):
                record[name] = {
                    "median_ms": 1e3 * statistics.median(samples[name]),
                    "all_ms": [1e3 * t for t in samples[name]],
                    "peak_alloc_mib": peak_allocation(side[name]) / 2**20,
                    "max_deviation_of_peak": deviation(side[name](), side["reference"]),
                }
            record["alloc_ratio"] = (
                record["real"]["peak_alloc_mib"] / record["complex"]["peak_alloc_mib"]
            )
            results[str(g)][direction] = record
            rows.append((
                f"{g}² {direction}",
                record["complex"]["median_ms"], record["real"]["median_ms"],
                record["ratio_median"],
                record["complex"]["peak_alloc_mib"], record["real"]["peak_alloc_mib"],
                record["complex"]["max_deviation_of_peak"],
                record["real"]["max_deviation_of_peak"],
            ))

    payload = {
        "benchmark": "grid_transforms",
        "generated_by": "benchmarks/bench_grid_transforms.py",
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "sizes": list(SIZES),
            "rounds": ROUNDS,
            "calls_per_round": CALLS,
            "allocation_gate": ALLOCATION_GATE,
            "deviation_gate": DEVIATION_GATE,
        },
        "sizes": results,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_grid_transforms.json").write_text(json.dumps(payload, indent=2) + "\n")

    print_series(
        "grid transforms: real-to-complex vs the complex formula",
        ["size direction", "complex ms", "real ms", "ratio", "complex MiB",
         "real MiB", "complex dev", "real dev"],
        rows,
    )

    for g, directions in results.items():
        for direction, record in directions.items():
            where = f"{g}² {direction}"
            assert record["alloc_ratio"] <= ALLOCATION_GATE, (where, record["alloc_ratio"])
            for name in ("complex", "real"):
                assert record[name]["max_deviation_of_peak"] <= DEVIATION_GATE, (
                    where, name, record[name]["max_deviation_of_peak"]
                )
