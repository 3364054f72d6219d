"""Checkpoint/resume: periodic atomic snapshots while gridding, bit-exact
resume, signature guarding, and the kill-and-resume round trip."""

import numpy as np
import pytest

from repro.runtime import (
    FaultPlan,
    InjectedCrash,
    RuntimeConfig,
    StreamingIDG,
    load_checkpoint,
    plan_signature,
    save_checkpoint,
)

WORK_GROUP_SIZE = 5


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


def test_completed_run_checkpoint_is_total(idg, small_plan, small_obs,
                                           single_source_vis, clean_grid,
                                           n_groups, tmp_path):
    ckpt = tmp_path / "run.ckpt.npz"
    engine = StreamingIDG(idg, RuntimeConfig(
        n_buffers=2, checkpoint_path=str(ckpt), checkpoint_interval=2,
    ))
    grid = engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
    assert np.array_equal(grid, clean_grid)
    snap = load_checkpoint(ckpt, signature=plan_signature(small_plan,
                                                          WORK_GROUP_SIZE))
    assert snap.completed_set == frozenset(range(n_groups))
    assert snap.n_retired == n_groups
    np.testing.assert_array_equal(snap.grid, clean_grid)
    # periodic snapshots actually happened along the way
    assert engine.last_telemetry.counters["checkpoints"] >= n_groups // 2


def test_resume_from_partial_checkpoint_is_bit_exact(
    idg, small_plan, small_obs, single_source_vis, clean_grid, n_groups,
    tmp_path,
):
    """Hand-build a mid-run snapshot (the prefix sum of groups 0..k-1) and
    resume: the final grid must be bit-identical to the uninterrupted run."""
    backend = idg.backend
    k = n_groups // 2
    partial = idg.gridspec.allocate_grid(dtype=clean_grid.dtype)
    groups = list(small_plan.work_groups(WORK_GROUP_SIZE))
    for start, stop in groups[:k]:
        subgrids = backend.grid_work_group(
            small_plan, start, stop, small_obs.uvw_m, single_source_vis,
            idg.taper, lmn=idg.lmn, aterm_fields=None,
        )
        backend.add_subgrids(
            partial, small_plan, backend.subgrids_to_fourier(subgrids),
            start=start,
        )
    ckpt = tmp_path / "partial.npz"
    save_checkpoint(ckpt, partial, range(k),
                    plan_signature(small_plan, WORK_GROUP_SIZE))

    engine = StreamingIDG(idg, RuntimeConfig(n_buffers=2, resume_from=str(ckpt)))
    resumed = engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
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
    engine = StreamingIDG(
        idg,
        RuntimeConfig(n_buffers=2, checkpoint_path=str(ckpt),
                      checkpoint_interval=1),
        faults=crash,
    )
    with pytest.raises(InjectedCrash):
        engine.grid(small_plan, small_obs.uvw_m, single_source_vis)

    snap = load_checkpoint(ckpt)
    assert 0 < len(snap.completed_set) < n_groups

    resume = StreamingIDG(idg, RuntimeConfig(n_buffers=2, resume_from=str(ckpt)))
    resumed = resume.grid(small_plan, small_obs.uvw_m, single_source_vis)
    assert np.array_equal(resumed, clean_grid)
    # only the remaining groups were gridded on resume
    spans = resume.last_telemetry.spans("gridder")
    assert len(spans) == n_groups - len(snap.completed_set)


def test_resume_rejects_mismatched_plan(idg, small_plan, small_obs,
                                        single_source_vis, tmp_path):
    ckpt = tmp_path / "wrong.npz"
    engine = StreamingIDG(idg, RuntimeConfig(
        n_buffers=1, checkpoint_path=str(ckpt), checkpoint_interval=1000,
    ))
    engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
    # a different work-group partition must refuse the checkpoint
    other = StreamingIDG(
        idg.with_config(work_group_size=WORK_GROUP_SIZE + 1),
        RuntimeConfig(n_buffers=1, resume_from=str(ckpt)),
    )
    with pytest.raises(ValueError, match="refusing to resume"):
        other.grid(small_plan, small_obs.uvw_m, single_source_vis)


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

    monkeypatch.setattr(atomicio.np, "savez_compressed", dying_savez)
    with pytest.raises(OSError):
        save_checkpoint(path, grid, [0, 1, 2], sig)
    monkeypatch.undo()

    snap = load_checkpoint(path, signature=sig)
    assert snap.completed_set == frozenset({0, 1})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.npz"]


def test_quarantined_groups_are_not_marked_completed(
    idg, small_plan, small_obs, single_source_vis, n_groups, tmp_path,
):
    """Dead-lettered groups must be retried on resume, so they may not enter
    the checkpoint's completed set."""
    ckpt = tmp_path / "dead.npz"
    faults = FaultPlan.single("gridder", 1, times=-1)
    engine = StreamingIDG(
        idg.with_config(max_retries=1, retry_backoff_s=0.0),
        RuntimeConfig(n_buffers=2, checkpoint_path=str(ckpt),
                      checkpoint_interval=1),
        faults=faults,
    )
    engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
    assert engine.last_fault_report.n_dead_letters == 1
    snap = load_checkpoint(ckpt)
    assert 1 not in snap.completed_set
    assert snap.completed_set == frozenset(range(n_groups)) - {1}
    # Resuming with the fault cleared completes the quarantined group.  The
    # group is re-added after its plan-order successors, so the result is
    # FP-reassociated relative to the clean run — numerically equal, not
    # bit-exact (bit-exactness holds when the completed set is a plan-order
    # prefix, i.e. the crash/kill case; see DESIGN.md §11).
    resume = StreamingIDG(idg, RuntimeConfig(n_buffers=2, resume_from=str(ckpt)))
    resumed = resume.grid(small_plan, small_obs.uvw_m, single_source_vis)
    clean = StreamingIDG(idg, RuntimeConfig(n_buffers=2)).grid(
        small_plan, small_obs.uvw_m, single_source_vis
    )
    np.testing.assert_allclose(resumed, clean, rtol=1e-4, atol=1e-6)
