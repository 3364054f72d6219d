"""Thread-parallel IDG pipeline (paper Section V-B).

``ParallelIDG`` wraps a :class:`repro.core.IDG` and distributes *work groups*
over a thread pool: one future per work group computes that group's
Fourier-domain subgrids (the BLAS matrix products and FFTs inside release the
GIL), and the main thread merges results onto the master grid **in ascending
work-group order** — an in-order retirement loop over the futures, so the
pool acts as its own reorder buffer.  Because the adder therefore accumulates
groups in exactly the serial executor's plan order (and the row-partitioned
adder keeps each pixel's within-group addition order unchanged), the parallel
result is bit-identical to :meth:`repro.core.IDG.grid` — the property the
cross-executor conformance suite pins.  Degridding needs no merging at all —
work items write disjoint visibility blocks — mirroring the paper's
observation that the splitter/degridder side is trivially parallel.

Failure semantics: a worker exception is wrapped in :class:`WorkGroupError`
naming the plan range that caused it, an abort flag stops not-yet-started
groups from touching the backend (so a doomed run does not grind through
every remaining batch first), and the causal error is re-raised.
``KeyboardInterrupt`` during the merge loop cancels the pool the same way.
With fault tolerance active (``IDGConfig.max_retries > 0`` or an injected
:class:`~repro.runtime.faults.FaultPlan`) failures are instead retried and,
on budget exhaustion, quarantined per work group — see
:mod:`repro.runtime.recovery` and DESIGN.md §11.

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

import numpy as np

from repro.aterms.generators import ATermGenerator
from repro.constants import COMPLEX_DTYPE
from repro.core.pipeline import IDG, prepare_visibilities
from repro.data.store import ChunkedVisibilitySource
from repro.core.plan import Plan
from repro.runtime.faults import FaultPlan
from repro.runtime.recovery import (
    FaultReport,
    Quarantined,
    RetryPolicy,
    WorkGroupRunner,
    group_visibility_count,
)


class WorkGroupError(RuntimeError):
    """A worker failure annotated with the plan range that caused it.

    The original exception is chained as ``__cause__``.
    """


class ParallelIDG:
    """Work-group-parallel gridding/degridding.

    Parameters
    ----------
    idg:
        The configured single-threaded pipeline to parallelise (also
        supplies the retry policy via ``IDGConfig.max_retries`` /
        ``retry_backoff_s``).
    n_workers:
        Worker threads; defaults to every logical core (the paper uses all
        of them).
    faults:
        Optional deterministic fault-injection plan (tests, benchmarks).

    The fault report of the most recent tolerant run is kept on
    ``last_fault_report`` (``None`` when the layer was inactive).
    """

    def __init__(
        self,
        idg: IDG,
        n_workers: int | None = None,
        faults: FaultPlan | None = None,
    ):
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.idg = idg
        self.n_workers = n_workers
        self.faults = faults
        self.last_fault_report: FaultReport | None = None

    # ------------------------------------------------------------- internal

    def _runner(self) -> WorkGroupRunner | None:
        policy = RetryPolicy(
            max_retries=self.idg.config.max_retries,
            backoff_s=self.idg.config.retry_backoff_s,
        )
        if not policy.enabled and self.faults is None:
            return None
        return WorkGroupRunner(policy, faults=self.faults)

    def _n_groups(self, plan: Plan) -> int:
        group_size = self.idg.config.work_group_size
        return -(-plan.n_subgrids // group_size)

    @staticmethod
    def _finish_report(runner: WorkGroupRunner, n_groups: int) -> None:
        runner.report.n_groups = n_groups
        runner.report.n_groups_completed = (
            n_groups - len(runner.report.excluded_items())
        )

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

        One future per work group; the merge loop retires futures in
        ascending group order, so the master grid accumulates contributions
        in exactly the serial plan order (bit-identical result) while the
        pool keeps gridding ahead.  ``flags`` and ``aterm_fields`` behave as
        on the serial executor.
        """
        idg = self.idg
        backend = idg.backend
        idg._check_shapes(plan, uvw_m, visibilities)
        visibilities = prepare_visibilities(visibilities, flags)
        source = (
            visibilities
            if isinstance(visibilities, ChunkedVisibilitySource) else None
        )
        fields = (
            aterm_fields
            if aterm_fields is not None
            else idg.aterm_fields(plan, aterms)
        )
        groups = list(plan.work_groups(idg.config.work_group_size))
        runner = self._runner()
        self.last_fault_report = runner.report if runner is not None else None
        abort = threading.Event()

        def compute(group: int, start: int, stop: int):
            """Gridder + subgrid FFT for one work group (worker thread)."""
            if abort.is_set():
                return None  # run is doomed; don't grind through the rest

            def grid_body() -> np.ndarray:
                return backend.grid_work_group(
                    plan, start, stop, uvw_m, visibilities, idg.taper,
                    lmn=idg.lmn, aterm_fields=fields,
                )

            if runner is None:
                try:
                    return backend.subgrids_to_fourier(grid_body())
                except Exception as exc:
                    abort.set()
                    raise WorkGroupError(
                        f"gridding work group {group} (plan items "
                        f"[{start}, {stop})) failed: {exc!r}"
                    ) from exc
            n_vis = group_visibility_count(plan, start, stop)
            subgrids = runner.run(
                "gridder", group, grid_body,
                start=start, stop=stop, n_visibilities=n_vis,
            )
            if isinstance(subgrids, Quarantined):
                return subgrids
            return runner.run(
                "subgrid_fft", group,
                lambda: backend.subgrids_to_fourier(subgrids),
                start=start, stop=stop, n_visibilities=n_vis,
            )

        grid = idg.gridspec.allocate_grid(dtype=COMPLEX_DTYPE)
        with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
            futures = [
                pool.submit(compute, group, start, stop)
                for group, (start, stop) in enumerate(groups)
            ]
            try:
                # In-order retirement: wait for each group in plan order and
                # add it while later groups keep computing in the pool.  The
                # row-parallel adder preserves each pixel's within-group
                # addition order, so the overall fold matches serial bitwise.
                for group, (start, stop) in enumerate(groups):
                    fourier = futures[group].result()
                    if source is not None:
                        # Retired groups' mmap pages are dead weight; evict
                        # them so resident memory tracks groups in flight.
                        source.drop_caches()
                    if fourier is None or isinstance(fourier, Quarantined):
                        continue
                    if runner is None:
                        backend.add_subgrids(
                            grid, plan, fourier, start=start,
                            n_workers=self.n_workers,
                        )
                        continue
                    runner.run(
                        "adder", group,
                        lambda f=fourier, st=start: backend.add_subgrids(
                            grid, plan, f, start=st, n_workers=self.n_workers,
                        ),
                        start=start, stop=stop,
                        n_visibilities=group_visibility_count(plan, start, stop),
                    )
            except BaseException:  # noqa: B036 — incl. KeyboardInterrupt
                # Cancel queued futures and flag in-flight workers to stop
                # before touching the backend, then re-raise the causal
                # error.
                abort.set()
                for future in futures:
                    future.cancel()
                raise
        if runner is not None:
            self._finish_report(runner, len(groups))
        return grid

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
        idg = self.idg
        backend = idg.backend
        fields = (
            aterm_fields
            if aterm_fields is not None
            else idg.aterm_fields(plan, aterms)
        )
        groups = list(plan.work_groups(idg.config.work_group_size))
        n_bl, n_times, _ = uvw_m.shape
        expected = (n_bl, n_times, plan.n_channels, 2, 2)
        if out is None:
            out = np.zeros(expected, dtype=COMPLEX_DTYPE)
        elif out.shape != expected:
            raise ValueError(f"out shape {out.shape} != {expected}")
        runner = self._runner()
        self.last_fault_report = runner.report if runner is not None else None
        abort = threading.Event()

        def compute(group: int, start: int, stop: int) -> None:
            if abort.is_set():
                return

            def degrid_body() -> None:
                patches = backend.split_subgrids(grid, plan, start, stop)
                backend.degrid_work_group(
                    plan, start, stop, backend.subgrids_to_image(patches),
                    uvw_m, out,
                    idg.taper, lmn=idg.lmn, aterm_fields=fields,
                )

            if runner is None:
                try:
                    degrid_body()
                except Exception as exc:
                    abort.set()
                    raise WorkGroupError(
                        f"degridding work group {group} (plan items "
                        f"[{start}, {stop})) failed: {exc!r}"
                    ) from exc
                return
            runner.run(
                "degridder", group, degrid_body, start=start, stop=stop,
                n_visibilities=group_visibility_count(plan, start, stop),
            )

        with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
            futures = [
                pool.submit(compute, group, start, stop)
                for group, (start, stop) in enumerate(groups)
            ]
            try:
                for future in futures:
                    future.result()  # surface worker exceptions
            except BaseException:  # noqa: B036 — incl. KeyboardInterrupt
                abort.set()
                for future in futures:
                    future.cancel()
                raise
        if runner is not None:
            self._finish_report(runner, len(groups))
        return out
