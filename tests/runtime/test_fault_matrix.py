"""Failure-injection matrix: {serial, threads, streaming, processes}
executors x {gridder, subgrid_fft, adder} and {subgrid_split, subgrid_ifft,
degridder} fault sites, plus the process-executor kill matrix (worker
SIGKILL mid-shard).

For every cell: a permanent fault on one work group, retries exhausted, must
yield exactly one dead letter with exact plan/visibility accounting, and the
surviving output must equal a clean run over the remaining work groups —
dropping a whole group leaves every other group's floating-point work
untouched, and every executor retires groups in plan order, so the
comparison is tight (rtol 1e-12).

The kill matrix covers the failure mode only processes have: the worker
*dies* (``kind="crash"`` faults SIGKILL the worker from inside).  A death
within the retry budget respawns the worker and converges to the bit-exact
clean result; an exhausted budget quarantines the in-flight group as a
``stage="worker"`` dead letter; an external SIGKILL without a tolerance
layer aborts fail-fast, leaving a prefix-closed checkpoint that resumes
bit-exactly (DESIGN.md §14)."""

import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.constants import COMPLEX_DTYPE
from repro.imaging.pipeline import make_engine
from repro.parallel.process import ProcessConfig, ProcessShardedIDG
from repro.runtime import CheckpointConfig, FaultPlan
from repro.runtime.checkpoint import load_checkpoint

WORK_GROUP_SIZE = 5
STAGES = ("gridder", "subgrid_fft", "adder")
DEGRID_STAGES = ("subgrid_split", "subgrid_ifft", "degridder")
EXECUTORS = ("serial", "threads", "streaming", "processes")
FAULT_GROUP = 1
MAX_RETRIES = 2


@pytest.fixture(scope="module")
def tolerant_idg(small_idg):
    return small_idg.with_config(
        work_group_size=WORK_GROUP_SIZE, max_retries=MAX_RETRIES,
        retry_backoff_s=0.0,
    )


@pytest.fixture(scope="module")
def groups(tolerant_idg, small_plan):
    return list(small_plan.work_groups(WORK_GROUP_SIZE))


@pytest.fixture
def grid_without_fault_group(
    tolerant_idg, small_plan, small_obs, single_source_vis, groups,
    plan_order_sum,
):
    """The clean serial fold of every group but ``FAULT_GROUP``: what a run
    that dead-lettered that group must return."""
    return plan_order_sum(
        tolerant_idg, small_plan, small_obs.uvw_m, single_source_vis,
        set(range(len(groups))) - {FAULT_GROUP},
    )


def engine_for(executor, idg):
    return make_engine(idg, executor, n_workers=2, n_buffers=2)


def run_gridding(executor, idg, plan, uvw_m, vis, faults):
    engine = engine_for(executor, idg)
    return engine.grid(plan, uvw_m, vis, faults=faults), engine.last_fault_report


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("stage", STAGES)
def test_matrix_dead_letter_accounting_and_surviving_output(
    executor, stage, tolerant_idg, small_plan, small_obs, single_source_vis,
    groups, grid_without_fault_group, covered_visibilities,
):
    faults = FaultPlan.single(stage, FAULT_GROUP, times=-1)
    grid, report = run_gridding(
        executor, tolerant_idg, small_plan, small_obs.uvw_m,
        single_source_vis, faults,
    )

    # exact dead-letter accounting
    assert report is not None
    assert report.n_dead_letters == 1
    letter = report.dead_letters[0]
    start, stop = groups[FAULT_GROUP]
    assert letter.stage == stage
    assert letter.group == FAULT_GROUP
    assert (letter.start, letter.stop) == (start, stop)
    assert letter.attempts == 1 + MAX_RETRIES
    assert letter.n_visibilities == covered_visibilities(small_plan, start, stop)
    assert report.n_retries == MAX_RETRIES
    assert report.n_groups == len(groups)
    assert report.n_groups_completed == len(groups) - 1
    if executor != "processes":
        # the injected fault consumed exactly the budgeted attempts (the
        # process executor's worker-side counters live in the children, so
        # the parent plan object never sees them)
        assert faults.attempts(stage, FAULT_GROUP) == 1 + MAX_RETRIES

    # surviving output == clean run over the unaffected work groups (every
    # executor retires groups in plan order, so the comparison is tight)
    np.testing.assert_allclose(
        grid, grid_without_fault_group, rtol=1e-12, atol=0.0
    )


@pytest.mark.parametrize("executor", EXECUTORS)
def test_transient_fault_retries_to_bit_exact_result(
    executor, tolerant_idg, small_plan, small_obs, single_source_vis,
):
    """A fault that clears within the retry budget must leave no trace in
    the output: bit-identical to the clean run."""
    clean, _ = run_gridding(
        executor, tolerant_idg, small_plan, small_obs.uvw_m,
        single_source_vis, faults=None,
    )
    faults = FaultPlan.single("gridder", 2, times=MAX_RETRIES)
    recovered, report = run_gridding(
        executor, tolerant_idg, small_plan, small_obs.uvw_m,
        single_source_vis, faults,
    )
    assert report.ok
    assert report.n_retries == MAX_RETRIES
    assert np.array_equal(recovered, clean)


@pytest.mark.parametrize("kind", ["raise", "corrupt"])
def test_corrupt_and_raise_kinds_both_quarantine(
    kind, tolerant_idg, small_plan, small_obs, single_source_vis, groups,
):
    faults = FaultPlan.single("subgrid_fft", 0, kind=kind, times=-1)
    engine = engine_for("streaming", tolerant_idg)
    engine.grid(small_plan, small_obs.uvw_m, single_source_vis, faults=faults)
    report = engine.last_fault_report
    assert report.n_dead_letters == 1
    expected_error = "CorruptDataError" if kind == "corrupt" else "InjectedFault"
    assert expected_error in report.dead_letters[0].error


@pytest.mark.parametrize("executor, stage", [
    # the degridder cells keep their plain executor ids
    pytest.param(
        executor, stage,
        id=executor if stage == "degridder" else f"{stage}-{executor}",
    )
    for stage in DEGRID_STAGES
    for executor in EXECUTORS
])
def test_degrid_dead_letter_leaves_block_zero(
    executor, stage, tolerant_idg, small_plan, small_obs, groups,
):
    """A quarantined degrid work group — at any of its three stages —
    leaves its visibility block zero and every other block identical to the
    clean prediction."""
    rng = np.random.default_rng(5)
    g = tolerant_idg.gridspec.grid_size
    model_grid = (
        rng.standard_normal((4, g, g)) + 1j * rng.standard_normal((4, g, g))
    ).astype(COMPLEX_DTYPE)
    clean = tolerant_idg.degrid(small_plan, small_obs.uvw_m, model_grid)

    faults = FaultPlan.single(stage, FAULT_GROUP, times=-1)
    engine = engine_for(executor, tolerant_idg)
    predicted = engine.degrid(small_plan, small_obs.uvw_m, model_grid, faults=faults)
    report = engine.last_fault_report

    assert report.n_dead_letters == 1
    assert report.dead_letters[0].stage == stage
    start, stop = groups[FAULT_GROUP]
    assert report.excluded_items() == ((start, stop),)

    # zero exactly the excluded items' blocks in the clean prediction
    expected = clean.copy()
    for row in small_plan.items[start:stop]:
        expected[
            row["baseline"],
            row["time_start"]:row["time_end"],
            row["channel_start"]:row["channel_end"],
        ] = 0
    np.testing.assert_allclose(predicted, expected, rtol=1e-12, atol=0.0)


# ------------------------------------------------------ process kill matrix


def test_worker_sigkill_within_budget_respawns_to_bit_exact(
    tolerant_idg, small_plan, small_obs, single_source_vis,
):
    """A ``crash`` fault SIGKILLs the worker mid-shard; one death is within
    the retry budget, so the parent respawns the shard, the replacement
    re-runs the in-flight group, and the result is bit-identical to clean."""
    clean = tolerant_idg.grid(small_plan, small_obs.uvw_m, single_source_vis)
    faults = FaultPlan.single("gridder", FAULT_GROUP, kind="crash", times=1)
    engine = engine_for("processes", tolerant_idg)
    recovered = engine.grid(
        small_plan, small_obs.uvw_m, single_source_vis, faults=faults
    )
    report = engine.last_fault_report
    assert report is not None and report.ok
    assert report.n_retries >= 1  # the death charged one attempt
    assert engine.last_telemetry.counters["worker_respawns"] == 1
    assert np.array_equal(recovered, clean)


def test_worker_sigkill_budget_exhausted_dead_letters_exactly(
    tolerant_idg, small_plan, small_obs, single_source_vis, groups,
    grid_without_fault_group, covered_visibilities,
):
    """A worker that dies on every attempt exhausts the budget: exactly one
    ``stage="worker"`` dead letter for the in-flight group, exact attempt
    accounting, and the survivors equal the clean run without that group."""
    faults = FaultPlan.single("gridder", FAULT_GROUP, kind="crash", times=-1)
    engine = engine_for("processes", tolerant_idg)
    grid = engine.grid(small_plan, small_obs.uvw_m, single_source_vis, faults=faults)
    report = engine.last_fault_report
    assert report is not None
    assert report.n_dead_letters == 1
    letter = report.dead_letters[0]
    start, stop = groups[FAULT_GROUP]
    assert letter.stage == "worker"
    assert letter.group == FAULT_GROUP
    assert (letter.start, letter.stop) == (start, stop)
    assert letter.attempts == 1 + MAX_RETRIES
    assert letter.n_visibilities == covered_visibilities(small_plan, start, stop)
    assert report.n_groups_completed == len(groups) - 1
    # every death respawned the shard: budgeted attempts, then quarantine
    assert engine.last_telemetry.counters["worker_respawns"] == 1 + MAX_RETRIES
    assert np.array_equal(grid, grid_without_fault_group)


def test_external_kill_failfast_checkpoint_is_prefix_closed_and_resumes(
    small_idg, small_plan, small_obs, single_source_vis, tmp_path,
):
    """SIGKILL a worker from outside with no tolerance layer: the run aborts
    fail-fast (so the master grid stops at a plan-order *prefix*), the abort
    checkpoint's completed set is prefix-closed, and resuming from it
    reproduces the uninterrupted serial grid bit-exactly (DESIGN.md §14 —
    only prefix-closed completed sets can resume without reassociating the
    floating-point accumulation)."""
    idg = small_idg.with_config(work_group_size=WORK_GROUP_SIZE)
    assert idg.config.max_retries == 0  # fail-fast: no runner, no respawn
    clean = idg.grid(small_plan, small_obs.uvw_m, single_source_vis)
    n_groups = len(list(small_plan.work_groups(WORK_GROUP_SIZE)))
    path = str(tmp_path / "killed.npz")
    engine = ProcessShardedIDG(idg, ProcessConfig(
        n_procs=2, start_method="fork", emulate_compute_s=0.15
    ))
    before = set(mp.active_children())
    outcome = {}

    def target():
        try:
            engine.grid(small_plan, small_obs.uvw_m, single_source_vis,
                        checkpoint=CheckpointConfig(path=path, interval=1))
            outcome["error"] = None
        except Exception as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30.0
    victim = None
    while victim is None and time.monotonic() < deadline:
        workers = [p for p in mp.active_children() if p not in before]
        if workers:
            victim = workers[0]
        else:
            time.sleep(0.01)
    assert victim is not None, "no worker process appeared to kill"
    time.sleep(0.4)  # let a few groups retire so the prefix is non-trivial
    os.kill(victim.pid, signal.SIGKILL)
    thread.join(60.0)
    assert not thread.is_alive(), "executor hung after worker SIGKILL"
    assert outcome["error"] is not None, "worker death did not abort the run"
    assert "died" in str(outcome["error"])

    checkpoint = load_checkpoint(path)
    completed = checkpoint.completed_set
    assert completed == set(range(len(completed))), "not prefix-closed"
    assert len(completed) < n_groups

    resumed = engine_for("processes", idg).grid(
        small_plan, small_obs.uvw_m, single_source_vis,
        checkpoint=CheckpointConfig(resume_from=path),
    )
    assert np.array_equal(resumed, clean)
