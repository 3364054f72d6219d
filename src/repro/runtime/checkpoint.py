"""Checkpoint/resume for gridding calls, on every executor.

A ``grid`` call given ``checkpoint=CheckpointConfig(path=...)`` snapshots
the master grid plus the set of completed work-group ids while it grids, and
a later call over the same plan given
``CheckpointConfig(resume_from=...)`` (CLI ``image --resume``) skips the
completed groups.  The snapshots are written by the call's
:class:`~repro.runtime.program.WorkGroupProgram` — the one place that
retires work groups — so the serial, threads, streaming and processes
executors all checkpoint the same way.  The setting belongs to the call, not
to the executor, because :func:`plan_signature` binds a snapshot to one plan
while one executor grids many (w-layers, facets, the PSF).

Every snapshot holds exactly the plan-order sum of its completed set.
Resume is therefore *bit-exact* when that set is a plan-order prefix (the
case of a crashed or killed run): the adder retires groups in plan order, so
the snapshot holds the floating-point prefix sum an uninterrupted run would
have at that point, and resuming adds the remaining groups in the same order
onto the same bits.  A snapshot is written every ``interval`` retirements,
once on completion and once on abort; an add that raised part-way (the
grid may then hold part of a group) fails the call, no further snapshot is
written and the last good one stays.

Snapshots are written atomically (temp file + ``os.replace`` via
:mod:`repro.atomicio`), so a crash mid-checkpoint leaves the previous
complete snapshot in place, never a truncated archive.  They are written
uncompressed: zlib over a whole master grid cost 0.87 s per 2048**2
snapshot against 0.14 s for the plain archive, and made a checkpointed
streaming run 6.6x as long as a plain one.  :func:`load_checkpoint` reads
compressed snapshots of earlier builds too.  Each snapshot embeds
a :func:`plan_signature` — a hash of the plan's work items, geometry and the
work-group size — and :func:`load_checkpoint` refuses to resume against a
mismatched plan instead of silently producing a wrong image.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.atomicio import atomic_savez
from repro.hashing import ContentHasher

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointConfig",
    "GridCheckpoint",
    "load_checkpoint",
    "plan_signature",
    "save_checkpoint",
]

#: On-disk schema version of checkpoint archives.
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class CheckpointConfig:
    """The checkpoint setting of one ``grid`` call.

    Attributes
    ----------
    path:
        When set, the call snapshots the master grid plus the completed
        work-group set to this ``.npz`` path (atomically) every ``interval``
        retired groups, once more when it completes and once when it aborts.
    interval:
        Retired work groups between snapshots.
    resume_from:
        Path of a snapshot written by an earlier call over the *same* plan
        and work-group size (validated by signature); its completed groups
        are skipped and its grid replaces the contents of any caller-supplied
        ``grid=``.
    """

    path: str | None = None
    interval: int = 4
    resume_from: str | None = None

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")


def plan_signature(plan: Any, work_group_size: int) -> str:
    """Hex digest identifying a (plan, work-group partition) pair.

    Two runs may share a checkpoint only when their plans cover the same
    work items on the same grid geometry *and* chunk them into the same
    work groups — otherwise completed-group ids would not line up.

    Built on :class:`repro.hashing.ContentHasher` with the exact byte
    stream of the original implementation (items, frequencies, int64
    geometry, float64 scalars — untagged), so checkpoints written by
    earlier builds keep validating; ``tests/test_hashing.py`` pins a
    known digest.
    """
    hasher = ContentHasher()
    hasher.update_array(plan.items)
    hasher.update_array(plan.frequencies_hz)
    hasher.update_ints(
        plan.subgrid_size,
        plan.kernel_support,
        plan.gridspec.grid_size,
        int(work_group_size),
    )
    hasher.update_floats(plan.gridspec.image_size, plan.w_offset)
    return hasher.hexdigest()


@dataclass(frozen=True)
class GridCheckpoint:
    """One snapshot: the partial master grid plus retirement bookkeeping.

    Attributes
    ----------
    signature:
        :func:`plan_signature` of the run that wrote the snapshot.
    grid:
        ``(a**2, G, G)`` complex master grid holding the contributions of
        exactly the ``completed`` work groups (four planes, or one for a
        Stokes-I grid).
    completed:
        Sorted work-group sequence indices already retired by the adder.
    n_retired:
        Total groups retired (completed plus quarantined) when the
        snapshot was taken.
    """

    signature: str
    grid: np.ndarray
    completed: np.ndarray
    n_retired: int

    @property
    def completed_set(self) -> frozenset[int]:
        return frozenset(int(k) for k in self.completed)


def save_checkpoint(
    path: str | pathlib.Path,
    grid: np.ndarray,
    completed: Any,
    signature: str,
    n_retired: int | None = None,
) -> pathlib.Path:
    """Atomically write an uncompressed :class:`GridCheckpoint` archive;
    returns the path actually written (a ``.npz`` suffix is appended when
    missing)."""
    completed_arr = np.asarray(sorted(int(k) for k in completed), dtype=np.int64)
    return atomic_savez(
        path,
        checkpoint_version=np.int64(CHECKPOINT_VERSION),
        signature=np.str_(signature),
        grid=grid,
        completed=completed_arr,
        n_retired=np.int64(
            n_retired if n_retired is not None else completed_arr.size
        ),
    )


def load_checkpoint(
    path: str | pathlib.Path, signature: str | None = None
) -> GridCheckpoint:
    """Read a checkpoint written by :func:`save_checkpoint` (compressed or
    not: ``np.load`` reads both archive kinds).

    When ``signature`` is given, a mismatch raises ``ValueError`` — the
    checkpoint belongs to a different plan or work-group size and resuming
    from it would corrupt the result.
    """
    with np.load(path) as archive:
        version = int(archive["checkpoint_version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version} "
                f"(this build reads {CHECKPOINT_VERSION})"
            )
        ckpt = GridCheckpoint(
            signature=str(archive["signature"]),
            grid=archive["grid"],
            completed=archive["completed"],
            n_retired=int(archive["n_retired"]),
        )
    if signature is not None and ckpt.signature != signature:
        raise ValueError(
            "checkpoint does not match this run: plan items, grid geometry "
            "or work-group size differ (refusing to resume)"
        )
    return ckpt
