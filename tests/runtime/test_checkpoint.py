"""Checkpoint/resume: periodic atomic snapshots while gridding, bit-exact
resume, signature guarding, and the kill-and-resume round trip.

Snapshots are written by the call's ``WorkGroupProgram``, so the run tests
are parametrized over the four executors.  The invariant they pin: every
snapshot on disk holds exactly the plan-order sum of its completed set,
``n_retired`` counts every retired group (resumed ones included), and an add
that raised part-way fails the call and stops all further snapshots for it.
"""

import zipfile

import numpy as np
import pytest

from repro.backends.vectorized import VectorizedBackend
from repro.constants import COMPLEX_DTYPE
from repro.imaging.pipeline import make_engine
from repro.runtime import (
    CheckpointConfig,
    FaultPlan,
    InjectedCrash,
    RuntimeConfig,
    StreamingIDG,
    WorkGroupError,
    load_checkpoint,
    plan_signature,
    save_checkpoint,
)
from repro.runtime.checkpoint import CHECKPOINT_VERSION

WORK_GROUP_SIZE = 5
EXECUTORS = ("serial", "threads", "streaming", "processes")


@pytest.fixture(scope="module")
def idg(small_idg):
    return small_idg.with_config(work_group_size=WORK_GROUP_SIZE)


@pytest.fixture(scope="module")
def clean_grid(idg, small_plan, small_obs, single_source_vis):
    return StreamingIDG(idg, RuntimeConfig(n_buffers=2)).grid(
        small_plan, small_obs.uvw_m, single_source_vis
    )


@pytest.fixture(scope="module")
def n_groups(small_plan):
    return len(list(small_plan.work_groups(WORK_GROUP_SIZE)))


def run_grid(executor, idg, plan, uvw_m, vis, checkpoint=None, faults=None):
    """Grid on one executor with per-call checkpoint and fault settings;
    returns the grid and the engine (its ``last_fault_report`` and
    ``last_telemetry`` describe the call)."""
    engine = make_engine(idg, executor, n_workers=2, n_buffers=2)
    return engine.grid(plan, uvw_m, vis, checkpoint=checkpoint, faults=faults), engine


@pytest.fixture
def prefix_snapshot(idg, small_plan, small_obs, single_source_vis, plan_order_sum):
    """``write(path, k)``: hand-build the mid-run snapshot of groups
    ``0..k-1``."""
    def write(path, k):
        grid = plan_order_sum(
            idg, small_plan, small_obs.uvw_m, single_source_vis, set(range(k))
        )
        return save_checkpoint(
            path, grid, range(k), plan_signature(small_plan, WORK_GROUP_SIZE)
        )

    return write


class TearingBackend(VectorizedBackend):
    """Adds the first subgrid of the work group starting at plan item
    ``tear`` and then raises — an adder that fails part-way."""

    def __init__(self, tear: int) -> None:
        self.tear = tear

    def add_subgrids(self, grid, plan, subgrids_fourier, start=0):
        if start != self.tear:
            return super().add_subgrids(grid, plan, subgrids_fourier, start=start)
        super().add_subgrids(grid, plan, subgrids_fourier[:1], start=start)
        raise RuntimeError("adder failed part-way through a work group")


@pytest.mark.parametrize("executor", EXECUTORS)
def test_completed_run_checkpoint_is_total(executor, idg, small_plan, small_obs,
                                           single_source_vis, clean_grid,
                                           n_groups, tmp_path, monkeypatch):
    import repro.runtime.program as program_module

    writes = []
    save = program_module.save_checkpoint

    def counting_save(*args, **kwargs):
        writes.append(kwargs["n_retired"])
        return save(*args, **kwargs)

    monkeypatch.setattr(program_module, "save_checkpoint", counting_save)
    ckpt = tmp_path / "run.ckpt.npz"
    grid, engine = run_grid(
        executor, idg, small_plan, small_obs.uvw_m, single_source_vis,
        checkpoint=CheckpointConfig(path=str(ckpt), interval=2),
    )
    assert np.array_equal(grid, clean_grid)
    snap = load_checkpoint(ckpt, signature=plan_signature(small_plan,
                                                          WORK_GROUP_SIZE))
    assert snap.completed_set == frozenset(range(n_groups))
    assert snap.n_retired == n_groups
    np.testing.assert_array_equal(snap.grid, clean_grid)
    # periodic snapshots actually happened along the way, then the final one
    assert writes == [*range(2, n_groups + 1, 2), n_groups]
    assert engine.last_telemetry.counters["checkpoints"] == len(writes)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_resume_from_partial_checkpoint_is_bit_exact(
    executor, idg, small_plan, small_obs, single_source_vis, clean_grid,
    n_groups, tmp_path, prefix_snapshot,
):
    """Hand-build a mid-run snapshot (the prefix sum of groups 0..k-1) and
    resume: the final grid must be bit-identical to the uninterrupted run."""
    ckpt = prefix_snapshot(tmp_path / "partial.npz", n_groups // 2)
    resumed, _ = run_grid(
        executor, idg, small_plan, small_obs.uvw_m, single_source_vis,
        checkpoint=CheckpointConfig(resume_from=str(ckpt)),
    )
    assert np.array_equal(resumed, clean_grid)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_resumed_run_final_snapshot_counts_every_group(
    executor, idg, small_plan, small_obs, single_source_vis, clean_grid,
    n_groups, tmp_path, prefix_snapshot,
):
    """A run resumed from a prefix snapshot retires the rest; its final
    snapshot counts the resumed groups too."""
    k = 3
    ckpt = prefix_snapshot(tmp_path / "prefix.npz", k)
    final = tmp_path / "final.npz"
    resumed, _ = run_grid(
        executor, idg, small_plan, small_obs.uvw_m, single_source_vis,
        checkpoint=CheckpointConfig(
            path=str(final), interval=n_groups + 1, resume_from=str(ckpt)
        ),
    )
    assert np.array_equal(resumed, clean_grid)
    snap = load_checkpoint(final)
    assert snap.completed_set == frozenset(range(n_groups))
    assert snap.n_retired == n_groups
    assert np.array_equal(snap.grid, clean_grid)


@pytest.mark.parametrize("max_retries", [0, 1], ids=["failfast", "tolerant"])
@pytest.mark.parametrize("executor", EXECUTORS)
def test_torn_add_leaves_last_good_snapshot(
    executor, max_retries, idg, small_plan, small_obs, single_source_vis,
    clean_grid, n_groups, tmp_path, plan_order_sum,
):
    """An add that raises after adding part of group k leaves the grid
    holding part of a group: the run raises, tolerant or not, and the
    snapshot on disk must stay the last good one (the plan-order sum of its
    completed set), which then resumes bit-exactly."""
    k = 2
    tear = list(small_plan.work_groups(WORK_GROUP_SIZE))[k][0]
    tearing = idg.with_config(max_retries=max_retries, retry_backoff_s=0.0)
    tearing.backend = TearingBackend(tear)
    ckpt = tmp_path / "torn.npz"
    checkpoint = CheckpointConfig(path=str(ckpt), interval=1)
    uvw_m = small_obs.uvw_m
    with pytest.raises(WorkGroupError, match="adder"):
        run_grid(executor, tearing, small_plan, uvw_m, single_source_vis,
                 checkpoint=checkpoint)

    snap = load_checkpoint(ckpt)
    assert snap.completed_set == frozenset(range(k))
    assert np.array_equal(
        snap.grid,
        plan_order_sum(idg, small_plan, uvw_m, single_source_vis,
                       snap.completed_set),
    )
    resumed, _ = run_grid(
        executor, idg, small_plan, uvw_m, single_source_vis,
        checkpoint=CheckpointConfig(resume_from=str(ckpt)),
    )
    assert np.array_equal(resumed, clean_grid)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_torn_add_is_fatal_in_tolerant_mode(
    executor, small_idg, small_plan, small_obs, single_source_vis, tmp_path,
):
    """A tolerant run (``max_retries=1``, groups of 4) whose adder adds one
    subgrid of group 3 and then raises must not return a grid: a retry
    would add that part again, and quarantining the group would return a
    grid holding parts of it.  ``retire`` raises a WorkGroupError naming
    the adder stage and the group, and the snapshot before the tear stays
    on disk."""
    size = 4
    tearing = small_idg.with_config(
        work_group_size=size, max_retries=1, retry_backoff_s=0.0
    )
    tearing.backend = TearingBackend(list(small_plan.work_groups(size))[3][0])
    ckpt = tmp_path / "torn.npz"
    with pytest.raises(WorkGroupError) as raised:
        run_grid(
            executor, tearing, small_plan, small_obs.uvw_m, single_source_vis,
            checkpoint=CheckpointConfig(path=str(ckpt), interval=1),
        )
    assert (raised.value.stage, raised.value.group) == ("adder", 3)
    assert "torn add" in str(raised.value)
    snap = load_checkpoint(ckpt, signature=plan_signature(small_plan, size))
    assert snap.completed_set == frozenset(range(3))


@pytest.mark.parametrize("executor", EXECUTORS)
def test_resume_rejects_a_different_plane_count(
    executor, idg, small_plan, small_obs, single_source_vis, tmp_path,
):
    """A four-correlation snapshot cannot seed a one-correlation grid: the
    resume raises instead of broadcasting one grid into the other."""
    ckpt = tmp_path / "four.npz"
    run_grid(
        executor, idg, small_plan, small_obs.uvw_m, single_source_vis,
        checkpoint=CheckpointConfig(path=str(ckpt), interval=1000),
    )
    stokes_i = 0.5 * (single_source_vis[..., 0, 0] + single_source_vis[..., 1, 1])
    with pytest.raises(ValueError, match="correlations"):
        run_grid(
            executor, idg, small_plan, small_obs.uvw_m,
            stokes_i[..., np.newaxis, np.newaxis].astype(COMPLEX_DTYPE),
            checkpoint=CheckpointConfig(resume_from=str(ckpt)),
        )


@pytest.mark.parametrize("executor", EXECUTORS)
def test_failfast_stage_failure_leaves_prefix_snapshot(
    executor, idg, small_plan, small_obs, single_source_vis, clean_grid,
    n_groups, tmp_path, monkeypatch, plan_order_sum,
):
    """A fail-fast gridder failure aborts the run before the first periodic
    snapshot is due; the abort snapshot still holds a plan-order prefix and
    resumes bit-exactly (the processes workers inherit the patch by fork)."""
    fail_from = list(small_plan.work_groups(WORK_GROUP_SIZE))[n_groups - 2][0]
    backend_cls = type(idg.backend)
    real = backend_cls.grid_work_group

    def failing(self, plan, start, stop, *args, **kwargs):
        if start == fail_from:
            raise RuntimeError("injected gridder failure")
        return real(self, plan, start, stop, *args, **kwargs)

    monkeypatch.setattr(backend_cls, "grid_work_group", failing)
    ckpt = tmp_path / "abort.npz"
    with pytest.raises(WorkGroupError, match="gridder"):
        run_grid(
            executor, idg, small_plan, small_obs.uvw_m, single_source_vis,
            checkpoint=CheckpointConfig(path=str(ckpt), interval=n_groups + 1),
        )
    monkeypatch.undo()

    snap = load_checkpoint(ckpt)
    completed = snap.completed_set
    assert completed == frozenset(range(len(completed)))
    assert len(completed) < n_groups
    assert np.array_equal(
        snap.grid,
        plan_order_sum(idg, small_plan, small_obs.uvw_m, single_source_vis,
                       completed),
    )
    resumed, _ = run_grid(
        executor, idg, small_plan, small_obs.uvw_m, single_source_vis,
        checkpoint=CheckpointConfig(resume_from=str(ckpt)),
    )
    assert np.array_equal(resumed, clean_grid)


def test_kill_and_resume_round_trip(idg, small_plan, small_obs,
                                    single_source_vis, clean_grid, n_groups,
                                    tmp_path):
    """Crash the pipeline mid-run (InjectedCrash escapes the retry layer),
    then resume from the surviving snapshot: bit-identical final grid, and
    the completed groups are genuinely skipped."""
    assert n_groups >= 6, "fixture too small for a mid-run crash"
    ckpt = tmp_path / "crash.npz"
    crash = FaultPlan.single("gridder", n_groups - 2, kind="crash")
    engine = StreamingIDG(idg, RuntimeConfig(n_buffers=2))
    with pytest.raises(InjectedCrash):
        engine.grid(small_plan, small_obs.uvw_m, single_source_vis,
                    checkpoint=CheckpointConfig(path=str(ckpt), interval=1),
                    faults=crash)

    snap = load_checkpoint(ckpt)
    assert 0 < len(snap.completed_set) < n_groups

    resume = StreamingIDG(idg, RuntimeConfig(n_buffers=2))
    resumed = resume.grid(small_plan, small_obs.uvw_m, single_source_vis,
                          checkpoint=CheckpointConfig(resume_from=str(ckpt)))
    assert np.array_equal(resumed, clean_grid)
    # only the remaining groups were gridded on resume
    spans = resume.last_telemetry.spans("gridder")
    assert len(spans) == n_groups - len(snap.completed_set)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_resume_rejects_mismatched_plan(executor, idg, small_plan, small_obs,
                                        single_source_vis, tmp_path):
    ckpt = tmp_path / "wrong.npz"
    run_grid(
        executor, idg, small_plan, small_obs.uvw_m, single_source_vis,
        checkpoint=CheckpointConfig(path=str(ckpt), interval=1000),
    )
    # a different work-group partition must refuse the checkpoint
    with pytest.raises(ValueError, match="refusing to resume"):
        run_grid(
            executor, idg.with_config(work_group_size=WORK_GROUP_SIZE + 1),
            small_plan, small_obs.uvw_m, single_source_vis,
            checkpoint=CheckpointConfig(resume_from=str(ckpt)),
        )


def test_checkpoint_config_validation():
    with pytest.raises(ValueError, match="interval"):
        CheckpointConfig(interval=0)
    assert CheckpointConfig().interval == 4


def test_checkpoint_versioning_and_signature_api(tmp_path, small_plan):
    sig = plan_signature(small_plan, 5)
    assert sig == plan_signature(small_plan, 5)
    assert sig != plan_signature(small_plan, 6)
    grid = np.zeros((4, 8, 8), dtype=np.complex64)
    path = save_checkpoint(tmp_path / "c", grid, [0, 2], sig)
    assert path.suffix == ".npz"
    snap = load_checkpoint(path, signature=sig)
    assert snap.completed_set == frozenset({0, 2})
    with pytest.raises(ValueError, match="refusing"):
        load_checkpoint(path, signature="deadbeef")
    # future versions are rejected, not misread
    save_checkpoint(path, grid, [0], sig)
    data = dict(np.load(path))
    data["checkpoint_version"] = np.int64(999)
    np.savez_compressed(path, **data)
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_checkpoint_write_is_atomic(tmp_path, small_plan, monkeypatch):
    """A crash mid-snapshot leaves the previous complete snapshot intact."""
    import repro.atomicio as atomicio

    sig = plan_signature(small_plan, 5)
    grid = np.full((4, 8, 8), 1 + 1j, dtype=np.complex64)
    path = save_checkpoint(tmp_path / "c.npz", grid, [0, 1], sig)

    def dying_savez(fh, **arrays):
        fh.write(b"partial")
        raise OSError("power loss")

    monkeypatch.setattr(atomicio.np, "savez", dying_savez)
    with pytest.raises(OSError):
        save_checkpoint(path, grid, [0, 1, 2], sig)
    monkeypatch.undo()

    snap = load_checkpoint(path, signature=sig)
    assert snap.completed_set == frozenset({0, 1})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.npz"]


def test_snapshots_are_uncompressed_and_compressed_ones_still_load(
    tmp_path, small_plan
):
    """Snapshots are stored, not deflated; an archive compressed by an
    earlier build still loads."""
    sig = plan_signature(small_plan, 5)
    rng = np.random.default_rng(3)
    grid = (rng.standard_normal((4, 8, 8)) + 1j * rng.standard_normal((4, 8, 8))).astype(
        np.complex64
    )
    path = save_checkpoint(tmp_path / "plain", grid, [0, 1], sig, n_retired=3)
    with zipfile.ZipFile(path) as archive:
        assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
    compressed = tmp_path / "compressed.npz"
    np.savez_compressed(
        compressed, checkpoint_version=np.int64(CHECKPOINT_VERSION),
        signature=np.str_(sig), grid=grid, completed=np.array([0, 1]),
        n_retired=np.int64(3),
    )
    with zipfile.ZipFile(compressed) as archive:
        assert zipfile.ZIP_DEFLATED in {i.compress_type for i in archive.infolist()}
    for archive_path in (path, compressed):
        snap = load_checkpoint(archive_path, signature=sig)
        assert np.array_equal(snap.grid, grid)
        assert snap.completed_set == frozenset({0, 1})
        assert snap.n_retired == 3


@pytest.mark.parametrize("executor", EXECUTORS)
def test_quarantined_groups_are_not_marked_completed(
    executor, idg, small_plan, small_obs, single_source_vis, clean_grid,
    n_groups, tmp_path,
):
    """Dead-lettered groups must be retried on resume, so they may not enter
    the checkpoint's completed set."""
    ckpt = tmp_path / "dead.npz"
    faults = FaultPlan.single("gridder", 1, times=-1)
    _, engine = run_grid(
        executor, idg.with_config(max_retries=1, retry_backoff_s=0.0),
        small_plan, small_obs.uvw_m, single_source_vis,
        checkpoint=CheckpointConfig(path=str(ckpt), interval=1),
        faults=faults,
    )
    assert engine.last_fault_report.n_dead_letters == 1
    snap = load_checkpoint(ckpt)
    assert 1 not in snap.completed_set
    assert snap.completed_set == frozenset(range(n_groups)) - {1}
    # Resuming with the fault cleared completes the quarantined group.  The
    # group is re-added after its plan-order successors, so the result is
    # FP-reassociated relative to the clean run — numerically equal, not
    # bit-exact (bit-exactness holds when the completed set is a plan-order
    # prefix, i.e. the crash/kill case; see DESIGN.md §11).
    resumed, _ = run_grid(
        executor, idg, small_plan, small_obs.uvw_m, single_source_vis,
        checkpoint=CheckpointConfig(resume_from=str(ckpt)),
    )
    np.testing.assert_allclose(resumed, clean_grid, rtol=1e-4, atol=1e-6)
