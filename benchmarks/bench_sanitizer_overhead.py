"""idgsan disabled-mode overhead on the streaming runtime, machine-readable.

The sanitizer's contract is that it costs nothing unless installed: importing
:mod:`repro.analysis.sanitizer` patches no runtime class, and the conftest
hook (``maybe_install_from_env``) is a no-op without ``IDG_SANITIZE``.  This
bench turns that claim into a gate by gridding the same bench plan in three
modes:

``baseline``
    The sanitizer module is imported (as it is in every test run via
    conftest) but never installed — the production path.
``disabled``
    ``maybe_install_from_env()`` has been called with the gate off, exactly
    what ``conftest.py`` does on a plain ``pytest`` run.  The acceptance gate
    asserts this stays within 1% of baseline makespan — same classes, same
    methods, zero wrappers.
``enabled``
    A live :func:`~repro.analysis.sanitizer.sanitized` context: tracked
    locks, Eraser write checks, stage labels and the deadlock watchdog all
    on.  Reported for information only (the dynamic half is a debugging
    tool, not a production mode) and asserted to produce zero reports on
    the clean pipeline.

The modes run once per round, ``ROUNDS`` round-robin rounds with the order
reversed every other round, and each mode's overhead is the median over
rounds of its makespan divided by the same round's baseline makespan.  The
baseline and disabled modes run identical code, so a best-of-a-few
comparison of sub-second runs measures the host's noise; the median of
paired ratios cancels drift that spans a round and outvotes single slow
runs.

Writes ``benchmarks/results/BENCH_sanitizer.json``.  The CI ``sanitizer``
job runs this file, so the gate below fails the job.
"""

import json
import os
import platform
import statistics

import numpy as np

from _util import RESULTS_DIR, interleaved_rounds, print_series, round_ratios

from repro.analysis import sanitizer
from repro.runtime import RuntimeConfig, StreamingIDG

GROUP_SIZE = 32
N_BUFFERS = 3
#: Round-robin rounds (each runs every mode once); the gate uses the
#: median of the per-round ratios.
ROUNDS = 9
#: Acceptance: the never-installed sanitizer must cost <= 1% makespan.
OVERHEAD_GATE = 1.01


def test_bench_sanitizer_overhead(bench_plan, bench_obs, bench_vis, bench_idg):
    engine_cfg = bench_idg.with_config(work_group_size=GROUP_SIZE)

    grids = {}  # each mode's latest grid (one 2048^2 grid per mode)

    def run_once(name):
        engine = StreamingIDG(engine_cfg, RuntimeConfig(n_buffers=N_BUFFERS))
        grids[name] = engine.grid(bench_plan, bench_obs.uvw_m, bench_vis)
        return engine.last_telemetry.makespan()

    def measure_baseline():
        assert sanitizer.current() is None, "sanitizer already installed"
        return run_once("baseline")

    def measure_disabled():
        # exactly the conftest path on a plain (non-IDG_SANITIZE) run
        forced_before = sanitizer._forced
        sanitizer.enable_sanitizer(False)
        try:
            assert sanitizer.maybe_install_from_env() is None
        finally:
            sanitizer._forced = forced_before
        return run_once("disabled")

    def measure_enabled():
        with sanitizer.sanitized() as san:
            span = run_once("enabled")
            san.raise_if_reports()  # the clean pipeline must stay clean
        return span

    modes = {
        "baseline": measure_baseline,
        "disabled": measure_disabled,
        "enabled": measure_enabled,
    }

    run_once("baseline")  # warm up BLAS/FFT
    samples = interleaved_rounds(modes, ROUNDS)
    ratios = round_ratios(samples, "baseline")
    median = {name: statistics.median(vals) for name, vals in samples.items()}
    overhead = {name: statistics.median(ratios[name]) for name in modes}

    # All three modes execute the identical kernel sequence.
    assert np.array_equal(grids["disabled"], grids["baseline"])
    assert np.array_equal(grids["enabled"], grids["baseline"])

    payload = {
        "benchmark": "sanitizer_overhead",
        "generated_by": "benchmarks/bench_sanitizer_overhead.py",
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
            "n_subgrids": int(bench_plan.n_subgrids),
            "overhead_gate": OVERHEAD_GATE,
        },
        "modes": {
            name: {
                "makespan_median_s": median[name],
                "makespan_all_s": samples[name],
                "ratio_all": ratios[name],
                "overhead_vs_baseline": overhead[name],
            }
            for name in modes
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_sanitizer.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")

    print_series(
        "idgsan: streaming makespan overhead by sanitizer mode",
        ["mode", "median ms", "overhead"],
        [(name, median[name] * 1e3, overhead[name]) for name in modes],
    )

    # Acceptance gate: not installing the sanitizer must cost nothing
    # measurable — the module import and the env probe are the entire
    # disabled-mode surface.
    assert overhead["disabled"] <= OVERHEAD_GATE, (
        f"disabled-mode sanitizer costs {100 * (overhead['disabled'] - 1):.2f}% "
        f"(gate: {100 * (OVERHEAD_GATE - 1):.0f}%)"
    )
