"""Thread-parallel IDG pipeline (paper Section V-B).

``ParallelIDG`` is the ``threads`` executor: the streaming executor
(:class:`~repro.runtime.StreamingIDG`) with ``n_workers`` compute workers and
a window of ``2 * n_workers`` work groups, so each worker has one group
queued behind the one it runs while the calling thread retires the oldest.
The paper's CPU gridder and its GPU streams run one per-work-group chain and
differ only in how many groups are in flight; here they differ only in
their :class:`~repro.runtime.RuntimeConfig`.  Results, failure semantics,
checkpoints and telemetry are the streaming executor's.

The pool's workers are the only kernel parallelism: the program sets
OpenBLAS to one thread for the process
(:func:`~repro.runtime.blas.single_threaded_blas`), since each worker's
four-column bucket gemm gains nothing from BLAS threads that would compete
with the other workers for the same cores.  The default worker count is
the number of cores the process may run on (its CPU affinity mask).
"""

from __future__ import annotations

import os

from repro.core.pipeline import IDG
from repro.runtime.recovery import WorkGroupError
from repro.runtime.streaming import RuntimeConfig, StreamingIDG

__all__ = ["ParallelIDG", "WorkGroupError", "usable_cores"]


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity mask (cpusets,
    taskset) where the OS has one, else every logical core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class ParallelIDG(StreamingIDG):
    """The streaming executor sized for data parallelism.

    Parameters
    ----------
    idg:
        The configured single-threaded pipeline to parallelise (also
        supplies the retry policy via ``IDGConfig.max_retries`` /
        ``retry_backoff_s``).
    n_workers:
        Worker threads; defaults to every core this process may run on
        (:func:`usable_cores`; the paper uses all of them).
    """

    def __init__(self, idg: IDG, n_workers: int | None = None) -> None:
        if n_workers is None:
            n_workers = usable_cores()
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        super().__init__(idg, RuntimeConfig(n_buffers=2 * n_workers, workers=n_workers))
