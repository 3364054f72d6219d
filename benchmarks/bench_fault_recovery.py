"""Fault-tolerance overhead and recovery cost, machine-readable.

Four configurations of :class:`repro.runtime.StreamingIDG` grid the same
bench plan:

``disabled``
    ``max_retries=0`` and no fault plan — the program's
    :class:`~repro.runtime.WorkGroupRunner` takes its fail-fast path, which
    calls each stage directly.  This is the baseline the acceptance gate
    compares against.
``armed``
    ``max_retries=2`` with no faults firing — every stage call goes through
    the runner's retry-and-quarantine path, which does strictly more work
    than the fail-fast one.  The gate asserts it stays within 2% of the
    baseline makespan.
``recovery``
    Two transient injected faults (``times=1``, zero backoff) — measures the
    cost of re-executing faulted work groups.
``checkpointed``
    The disabled configuration with a per-call
    ``checkpoint=CheckpointConfig(interval=2)``: periodic atomic grid
    snapshots every other work group — measures the serialisation cost of
    checkpoint/resume.

The modes run once per round, ``ROUNDS`` round-robin rounds with the order
reversed every other round, and each mode's overhead is the median over
rounds of its makespan divided by the same round's disabled makespan: a
best-of-a-few comparison of sub-second runs flips with a neighbour's load on
the host, while the median of paired ratios cancels drift that spans a round
and outvotes single slow runs.

Writes ``benchmarks/results/BENCH_fault_recovery.json`` with per-round
samples next to the usual ASCII table.  The CI fault-recovery smoke job runs
this file, so the gate below fails the job.
"""

import json
import os
import platform
import statistics

import numpy as np

from _util import RESULTS_DIR, interleaved_rounds, print_series, round_ratios

from repro.runtime import (
    CheckpointConfig,
    FaultPlan,
    FaultSpec,
    RuntimeConfig,
    StreamingIDG,
)

#: Work-group size for this bench: the bench plan's ~270 subgrids become
#: ~9 pipeline work groups.
GROUP_SIZE = 32
N_BUFFERS = 3
#: Round-robin rounds (each runs every mode once); the 2% gate uses the
#: median of the per-round ratios.
ROUNDS = 9
#: Acceptance: the armed-but-idle retry layer must cost <= 2% makespan.
OVERHEAD_GATE = 1.02


def _transient_faults():
    """A fresh fault plan per run — ``FaultPlan`` counts attempts, so a
    ``times=1`` fault only fires on the first run it is handed to."""
    return FaultPlan([
        FaultSpec(stage="gridder", group=2, times=1),
        FaultSpec(stage="subgrid_fft", group=5, times=1),
    ])


def test_bench_fault_recovery(bench_plan, bench_obs, bench_vis, bench_idg,
                              tmp_path):
    plain = bench_idg.with_config(work_group_size=GROUP_SIZE)
    tolerant = bench_idg.with_config(
        work_group_size=GROUP_SIZE, max_retries=2, retry_backoff_s=0.0,
    )
    ckpt = tmp_path / "bench.ckpt.npz"

    # Each mode: the pipeline it runs and the per-call fault plan it grids
    # with (built fresh per run).
    modes = {
        "disabled": (plain, lambda: None),
        "armed": (tolerant, lambda: None),
        "recovery": (tolerant, _transient_faults),
        "checkpointed": (plain, lambda: None),
    }
    checkpoints = {"checkpointed": CheckpointConfig(path=str(ckpt), interval=2)}

    engines = {}  # each mode's latest engine and grid
    grids = {}

    def measure(name):
        idg, faults = modes[name]
        engine = StreamingIDG(idg, RuntimeConfig(n_buffers=N_BUFFERS))
        grids[name] = engine.grid(bench_plan, bench_obs.uvw_m, bench_vis,
                                  checkpoint=checkpoints.get(name), faults=faults())
        engines[name] = engine
        return engine.last_telemetry.makespan()

    # Warm up BLAS/FFT once, then round-robin the modes so slow drift in the
    # host (thermal, page cache) hits every mode equally.
    measure("disabled")
    samples = interleaved_rounds(
        {name: lambda name=name: measure(name) for name in modes}, ROUNDS
    )
    ratios = round_ratios(samples, "disabled")
    median = {name: statistics.median(vals) for name, vals in samples.items()}
    overhead = {name: statistics.median(ratios[name]) for name in modes}

    # The armed run retires work groups in plan order exactly like the
    # disabled run, so a clean pass through the retry layer is bit-exact.
    assert np.array_equal(grids["armed"], grids["disabled"])
    report = engines["recovery"].last_fault_report
    assert report is not None and report.ok
    assert report.n_retries == 2
    np.testing.assert_allclose(grids["recovery"], grids["disabled"],
                               rtol=1e-12, atol=0.0)
    n_checkpoints = engines["checkpointed"].last_telemetry.counters["checkpoints"]
    assert n_checkpoints > 0 and ckpt.exists()

    payload = {
        "benchmark": "fault_recovery",
        "generated_by": "benchmarks/bench_fault_recovery.py",
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "work_group_size": GROUP_SIZE,
            "n_buffers": N_BUFFERS,
            "rounds": ROUNDS,
            "max_retries": 2,
            "checkpoint_interval": 2,
            "n_subgrids": int(bench_plan.n_subgrids),
            "overhead_gate": OVERHEAD_GATE,
        },
        "modes": {
            name: {
                "makespan_median_s": median[name],
                "makespan_all_s": samples[name],
                "ratio_all": ratios[name],
                "overhead_vs_disabled": overhead[name],
            }
            for name in modes
        },
        "recovery": {
            "n_retries": report.n_retries,
            "n_dead_letters": report.n_dead_letters,
        },
        "n_checkpoints": n_checkpoints,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_fault_recovery.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")

    print_series(
        "Fault tolerance: makespan overhead vs plain streaming",
        ["mode", "median ms", "overhead"],
        [(name, median[name] * 1e3, overhead[name]) for name in modes],
    )

    # Acceptance gate: even with the retry layer *armed* (strictly more work
    # than the fail-fast path), the clean-run makespan stays within 2% of
    # baseline.
    assert overhead["armed"] <= OVERHEAD_GATE, (
        f"armed retry layer costs {100 * (overhead['armed'] - 1):.2f}% "
        f"(gate: {100 * (OVERHEAD_GATE - 1):.0f}%)"
    )
