"""The paper's primary contribution: Image-Domain Gridding.

Pipeline (paper Fig 4):

* **gridding** — ``gridder`` (Algorithm 1) accumulates visibilities onto
  subgrids, ``subgrid_fft`` Fourier-transforms them, ``adder`` places them on
  the master grid;
* **degridding** — ``adder.split_subgrids`` extracts subgrids, ``subgrid_fft``
  inverse-transforms them, ``degridder`` (Algorithm 2) predicts visibilities.

``plan`` implements the execution plan of Section V-A (greedy covering of
each baseline's uv track by subgrids, work items, work groups);
``reference`` contains literal loop-level transcriptions of Algorithms 1-2
used as test oracles; ``pipeline`` exposes the user-facing :class:`IDG`
facade.
"""

from repro.core.plan import Plan, PlanStatistics, WorkItem
from repro.core.subgrid_fft import subgrids_to_fourier, subgrids_to_image
from repro.core.adder import add_subgrids, split_subgrids
from repro.core.pipeline import IDG, IDGConfig
from repro.core.scratch import (
    ArenaStats,
    ScratchArena,
    arena_stats,
    clear_thread_arena,
    thread_arena,
    total_arena_nbytes,
)
from repro.core.wstack import WLayer, split_plan_by_w

__all__ = [
    "Plan",
    "PlanStatistics",
    "WorkItem",
    "subgrids_to_fourier",
    "subgrids_to_image",
    "add_subgrids",
    "split_subgrids",
    "IDG",
    "IDGConfig",
    "ArenaStats",
    "ScratchArena",
    "arena_stats",
    "thread_arena",
    "clear_thread_arena",
    "total_arena_nbytes",
    "WLayer",
    "split_plan_by_w",
]
