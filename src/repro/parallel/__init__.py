"""Parallel execution of the IDG pipeline on the host.

The paper's CPU implementation distributes work items over cores with OpenMP
and parallelises the adder over grid *rows* (subgrids overlap, so per-subgrid
parallel adds would race — Section V-B-d).  The Python analogues parallelise
the gridder, FFT and degridder stages only: a thread pool
(:class:`ParallelIDG`, the streaming executor with two work groups in flight
per worker — the BLAS/FFT calls inside each work group release the GIL) or
worker processes over shared memory (:class:`ProcessShardedIDG`).
Both retire every work group through the call's one serial adder in plan
order (:meth:`repro.runtime.program.WorkGroupProgram.retire`), so their grids
are bit-identical to the serial executor's.
"""

from repro.parallel.bucketing import (
    Bucket,
    bucket_work_items,
    degrid_work_group,
    grid_work_group,
)
from repro.parallel.partition import (
    ShardAssignment,
    partition_work_groups,
    plan_group_weights,
)
from repro.parallel.shm import ArenaSpec, SharedArena, shm_dir_entries
from repro.parallel.executor import ParallelIDG, WorkGroupError
from repro.parallel.process import ProcessConfig, ProcessShardedIDG, WorkerDeath

__all__ = [
    "Bucket",
    "bucket_work_items",
    "grid_work_group",
    "degrid_work_group",
    "ShardAssignment",
    "partition_work_groups",
    "plan_group_weights",
    "ArenaSpec",
    "SharedArena",
    "shm_dir_entries",
    "ParallelIDG",
    "WorkGroupError",
    "ProcessConfig",
    "ProcessShardedIDG",
    "WorkerDeath",
]
