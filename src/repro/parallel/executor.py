"""Thread-parallel IDG pipeline (paper Section V-B).

``ParallelIDG`` runs a call's :class:`~repro.runtime.program.WorkGroupProgram`
on a thread pool: one future per work group computes that group's stages up
to the adder (the BLAS matrix products and FFTs inside release the GIL), and
the main thread retires the futures **in ascending work-group order** — so
the pool acts as its own reorder buffer and the adder accumulates groups in
exactly the serial executor's plan order (the row-partitioned adder keeps
each pixel's within-group addition order unchanged).  The result is
bit-identical to :meth:`repro.core.IDG.grid` — the property the
cross-executor conformance suite pins.  Degridding needs no merging at all —
work items write disjoint visibility blocks — mirroring the paper's
observation that the splitter/degridder side is trivially parallel.

The pool's workers are the only kernel parallelism: the program sets
OpenBLAS to one thread for the process
(:func:`~repro.runtime.blas.single_threaded_blas`), since each worker's
four-column bucket gemm gains nothing from BLAS threads that would compete
with the other workers for the same cores.  The default worker count is
the number of cores the process may run on (its CPU affinity mask).

Failure semantics are the program's (:mod:`repro.runtime.recovery`): by
default the first failing stage raises
:class:`~repro.runtime.recovery.WorkGroupError` naming the stage, the work
group and its plan range; an abort flag then stops not-yet-started groups
from touching the backend (so a doomed run does not grind through every
remaining batch first), and the error is re-raised from the retirement loop.
``KeyboardInterrupt`` during that loop cancels the pool the same way.  With
fault tolerance active (``IDGConfig.max_retries > 0`` or an injected
:class:`~repro.runtime.faults.FaultPlan`) failures are instead retried and,
on budget exhaustion, quarantined per work group — see DESIGN.md §11.

.. note::
   This is the simple data-parallel executor kept for the Section V-B CPU
   comparison.  The pipelined successor — overlapping gridder, FFT and adder
   stages through bounded buffers, with telemetry — is
   :class:`repro.runtime.StreamingIDG`; the multi-process successor is
   :class:`repro.parallel.process.ProcessShardedIDG`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

import numpy as np

from repro.aterms.generators import ATermGenerator
from repro.core.pipeline import IDG
from repro.core.plan import Plan
from repro.runtime.faults import FaultPlan
from repro.runtime.program import WorkGroupProgram
from repro.runtime.recovery import FaultReport, WorkGroupError

__all__ = ["ParallelIDG", "WorkGroupError"]


class ParallelIDG:
    """Work-group-parallel gridding/degridding.

    Parameters
    ----------
    idg:
        The configured single-threaded pipeline to parallelise (also
        supplies the retry policy via ``IDGConfig.max_retries`` /
        ``retry_backoff_s``).
    n_workers:
        Worker threads; defaults to every core this process may run on
        (its CPU affinity mask where the OS has one, else every logical
        core; the paper uses all of them).
    faults:
        Optional deterministic fault-injection plan (tests, benchmarks).

    The fault report of the most recent tolerant run is kept on
    ``last_fault_report`` (``None`` when fail-fast).
    """

    def __init__(
        self,
        idg: IDG,
        n_workers: int | None = None,
        faults: FaultPlan | None = None,
    ):
        if n_workers is None:
            # The cores this process may run on (cpusets, taskset), not
            # every core the host has.
            n_workers = (
                len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1
            )
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.idg = idg
        self.n_workers = n_workers
        self.faults = faults
        self.last_fault_report: FaultReport | None = None

    # ------------------------------------------------------------- internal

    def _run_in_order(
        self,
        n_groups: int,
        compute: Callable[[int], Any],
        retire: Callable[[int, Any], None] | None = None,
    ) -> None:
        """``compute(group)`` for every group on the pool, then
        ``retire(group, result)`` on this thread in ascending group order.

        The first failure sets an abort flag (groups not started yet skip
        their work), cancels the queued futures and is re-raised.
        """
        abort = threading.Event()
        skipped = object()

        def task(group: int) -> Any:
            if abort.is_set():
                return skipped  # the run is doomed; don't touch the backend
            try:
                return compute(group)
            except BaseException:
                abort.set()
                raise

        with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
            futures = [pool.submit(task, group) for group in range(n_groups)]
            try:
                for group, future in enumerate(futures):
                    result = future.result()
                    if retire is not None and result is not skipped:
                        retire(group, result)
            except BaseException:  # noqa: B036 — incl. KeyboardInterrupt
                abort.set()
                for future in futures:
                    future.cancel()
                raise

    # ------------------------------------------------------------- gridding

    def grid(
        self,
        plan: Plan,
        uvw_m: np.ndarray,
        visibilities: np.ndarray,
        aterms: ATermGenerator | None = None,
        flags: np.ndarray | None = None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
    ) -> np.ndarray:
        """Parallel equivalent of :meth:`repro.core.IDG.grid`.

        One future per work group runs the gridder and subgrid FFT; the
        retirement loop adds groups in ascending order, so the master grid
        accumulates contributions in exactly the serial plan order
        (bit-identical result) while the pool keeps gridding ahead.
        ``flags`` and ``aterm_fields`` behave as on the serial executor.
        """
        program = WorkGroupProgram.for_grid(
            self.idg, plan, uvw_m, visibilities, aterms=aterms, flags=flags,
            aterm_fields=aterm_fields, faults=self.faults,
        )
        self.last_fault_report = program.fault_report

        def retire(group: int, fourier: Any) -> None:
            # Retired groups' mmap pages are dead weight; evict them so
            # resident memory tracks the groups in flight.
            program.drop_caches()
            program.adder(group, fourier, n_workers=self.n_workers)

        self._run_in_order(
            program.n_groups,
            lambda group: program.subgrid_fft(group, program.gridder(group)),
            retire,
        )
        return program.finish()

    # ----------------------------------------------------------- degridding

    def degrid(
        self,
        plan: Plan,
        uvw_m: np.ndarray,
        grid: np.ndarray,
        aterms: ATermGenerator | None = None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Parallel equivalent of :meth:`repro.core.IDG.degrid`.

        Work items cover disjoint (baseline, time, channel) blocks, so all
        workers write into the shared output without synchronisation (each
        visibility is written exactly once — no accumulation, hence
        bit-identical to serial regardless of completion order).  A
        quarantined work group (tolerant mode) leaves its block zero.
        ``out`` (zero-initialised, e.g. a writable dataset-store map)
        receives the prediction in place as on the serial executor.
        """
        program = WorkGroupProgram.for_degrid(
            self.idg, plan, uvw_m, grid, aterms=aterms,
            aterm_fields=aterm_fields, out=out, faults=self.faults,
        )
        self.last_fault_report = program.fault_report
        self._run_in_order(
            program.n_groups,
            lambda group: program.degridder(
                group, program.subgrid_ifft(group, program.subgrid_split(group))
            ),
        )
        return program.finish()
