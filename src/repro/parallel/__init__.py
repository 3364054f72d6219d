"""Parallel execution of the IDG pipeline on the host.

The paper's CPU implementation distributes work items over cores with OpenMP
and parallelises the adder over grid *rows* (subgrids overlap, so per-subgrid
parallel adds would race — Section V-B-d).  The Python analogue uses a thread
pool: the heavy lifting inside each work item is BLAS/FFT calls that release
the GIL, so threads scale, and the row-partitioned adder gives each worker a
disjoint horizontal band of the grid.
"""

from repro.parallel.batching import chunk_ranges
from repro.parallel.bucketing import (
    Bucket,
    bucket_work_items,
    degrid_work_group,
    grid_work_group,
)
from repro.parallel.partition import (
    RowPartition,
    ShardAssignment,
    add_subgrids_row_parallel,
    partition_work_groups,
    plan_group_weights,
)
from repro.parallel.shm import ArenaSpec, SharedArena, shm_dir_entries
from repro.parallel.executor import ParallelIDG, WorkGroupError
from repro.parallel.process import ProcessConfig, ProcessShardedIDG, WorkerDeath

__all__ = [
    "chunk_ranges",
    "Bucket",
    "bucket_work_items",
    "grid_work_group",
    "degrid_work_group",
    "RowPartition",
    "ShardAssignment",
    "add_subgrids_row_parallel",
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
