"""One grid or degrid call as a program of per-work-group stages (paper Fig 4).

The paper's pipeline is one chain of per-work-group stages — gridder ->
subgrid FFT -> adder, and splitter -> inverse subgrid FFT -> degridder —
whose schedules (Figs 6-7) change only *where and when* groups run.  A
:class:`WorkGroupProgram` is that chain for one call: every stage method
runs its kernel through :meth:`WorkGroupProgram.run` under the program's
:class:`~repro.runtime.recovery.WorkGroupRunner` (fail-fast by default,
retry-and-quarantine when fault tolerance is on) and passes a
:class:`~repro.runtime.recovery.Quarantined` input straight on.  The
executors keep only their scheduling — an inline loop (``IDG``), a window
of stage chains on a thread pool retired in order (``StreamingIDG``, whose
``threads`` configuration is ``ParallelIDG``) or worker-process shards
(``ProcessShardedIDG``) — so they all run the same stage bodies on the same
groups, bit-identically.

Every work group is retired in one place, :meth:`WorkGroupProgram.retire`,
in plan order: a grid group's serial adder, then the checkpoint bookkeeping
of :mod:`repro.runtime.checkpoint` — the completed set, the retirement count
and the snapshots.  :meth:`WorkGroupProgram.for_grid` loads a resume
snapshot; :meth:`WorkGroupProgram.retiring` yields the groups still pending
and writes the final snapshot when the executor's loop ends, completed or
aborted.  An add that raised part-way is fatal on every executor, tolerant
or not: the grid may hold part of the group, so ``retire`` raises
:class:`~repro.runtime.recovery.WorkGroupError` instead of returning a
wrong grid, and the last good snapshot stays on disk.

The correlation count is the data's: ``(n_bl, T, C, a, a)`` visibilities
grid onto an ``(a**2, G, G)`` grid, and an ``(a**2, G, G)`` grid degrids
into ``(n_bl, T, C, a, a)`` visibilities, with ``a = 2`` (four
correlations) or ``a = 1`` (the Stokes-I sample alone).

The program also keeps the call's one record,
:attr:`WorkGroupProgram.telemetry`, which every executor publishes on
``last_telemetry``: one span per (stage, work group) from
:meth:`~WorkGroupProgram.run`, the runner's retry and dead-letter counters,
the ``checkpoints`` and ``visibilities`` counters and the memory gauges.
Executors add only what their schedule has of its own (streaming's
admission and link spans, the processes executor's shard spans).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable, Iterator

import numpy as np

from repro.aterms.generators import ATermGenerator
from repro.constants import COMPLEX_DTYPE
from repro.core.pipeline import IDG, prepare_visibilities
from repro.core.plan import Plan
from repro.data.store import ChunkedVisibilitySource
from repro.runtime.blas import single_threaded_blas
from repro.runtime.checkpoint import (
    CheckpointConfig,
    load_checkpoint,
    plan_signature,
    save_checkpoint,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.memory import record_memory_gauges
from repro.runtime.recovery import (
    FaultReport,
    Quarantined,
    RetryPolicy,
    WorkGroupError,
    WorkGroupRunner,
)
from repro.runtime.telemetry import Telemetry, monotonic

__all__ = ["WorkGroupProgram"]

#: Retirements between two evictions of an out-of-core source's pages.
#: Each ``madvise`` sweep walks the whole mapping's page tables, and the
#: un-evicted residue is bounded by this many groups' worth of file pages.
_EVICT_EVERY = 8


def _group_visibility_counts(plan: Plan, groups: list[tuple[int, int]]) -> list[int]:
    """Covered (time x channel) visibilities of every ``(start, stop)``
    plan-item range, from one cumulative sum over the plan."""
    rows = plan.items
    per_item = (rows["time_end"] - rows["time_start"]).astype(np.int64) * (
        rows["channel_end"] - rows["channel_start"]
    )
    bounds = np.concatenate(([0], np.cumsum(per_item)))
    return [int(bounds[stop] - bounds[start]) for start, stop in groups]


class WorkGroupProgram:
    """The work groups and stage bodies of one grid or degrid call.

    ``idg`` supplies the kernels, taper, work-group size and retry policy;
    ``visibilities`` is the gridding input (flags applied), ``grid`` the
    ``(a**2, G, G)`` grid the adder accumulates into or the splitter reads,
    ``out`` the degridding output; ``faults`` goes to the runner, which
    records into the program's own :attr:`telemetry`.  The constructor
    takes its inputs as given — :meth:`for_grid` and :meth:`for_degrid` are
    the checking constructors executors use, and only :meth:`for_grid`
    takes a checkpoint setting.

    The constructor first calls
    :func:`~repro.runtime.blas.single_threaded_blas`: from the first grid or
    degrid call on, OpenBLAS runs one thread in this process, so kernel
    parallelism comes only from the executor's workers.  The processes
    executor builds its program in the parent before forking, so its
    workers inherit the setting.
    """

    def __init__(
        self,
        idg: IDG,
        plan: Plan,
        uvw_m: np.ndarray,
        *,
        visibilities: Any = None,
        grid: np.ndarray | None = None,
        out: np.ndarray | None = None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        single_threaded_blas()
        self.idg = idg
        self.backend = idg.backend
        self.plan = plan
        self.uvw_m = uvw_m
        self.visibilities = visibilities
        #: The out-of-core input, when there is one (its pages are evicted
        #: as groups retire).
        self.source = (
            visibilities
            if isinstance(visibilities, ChunkedVisibilitySource) else None
        )
        self.grid = grid
        self.out = out
        self.aterm_fields = aterm_fields
        #: ``(start, stop)`` plan-item range of every work group, in plan
        #: order; a group is addressed by its index here.
        self.groups = list(plan.work_groups(idg.config.work_group_size))
        self.n_groups = len(self.groups)
        #: Covered visibilities of every work group (the runner's dead
        #: letters and the ``visibilities`` counter count them).
        self.group_visibilities = _group_visibility_counts(plan, self.groups)
        #: What the backend's kernels share across this call's groups
        #: (:meth:`~repro.backends.base.KernelBackend.call_tables`), derived
        #: once here and read by every worker.
        self.tables = self.backend.call_tables(
            plan, idg.lmn, aterm_fields,
            visibilities.shape[-1] ** 2 if visibilities is not None else grid.shape[0],
        )
        #: The call's record, published by every executor on
        #: ``last_telemetry``.
        self.telemetry = Telemetry()
        self.runner = WorkGroupRunner(
            RetryPolicy(
                max_retries=idg.config.max_retries,
                backoff_s=idg.config.retry_backoff_s,
            ),
            faults=faults,
            telemetry=self.telemetry,
        )
        self.report = self.runner.report
        #: The call's checkpoint setting (``None``: no snapshots, no resume).
        self.checkpoint: CheckpointConfig | None = None
        self.signature: str | None = None
        #: Groups whose contribution :attr:`grid` holds, resumed ones
        #: included; quarantined groups never enter.
        self.completed: set[int] = set()
        #: Groups retired so far, resumed ones included.
        self.n_retired = 0
        self._unsaved = 0  # retirements since the last snapshot
        #: An add raised after it had started (or ran more than once), so
        #: :attr:`grid` may hold part of a group: no further snapshots, and
        #: :meth:`retire` raised.
        self.torn = False

    # ------------------------------------------------------- constructors

    @classmethod
    def for_grid(
        cls,
        idg: IDG,
        plan: Plan,
        uvw_m: np.ndarray,
        visibilities: Any,
        *,
        aterms: ATermGenerator | None = None,
        grid: np.ndarray | None = None,
        flags: np.ndarray | None = None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
        checkpoint: CheckpointConfig | None = None,
        faults: FaultPlan | None = None,
    ) -> "WorkGroupProgram":
        """The program of ``IDG.grid``'s arguments: shapes checked, flags
        masked, A-term fields resolved (``aterm_fields`` wins over
        ``aterms``), the ``(a**2, G, G)`` master grid allocated unless
        ``grid`` is given.

        With ``checkpoint.resume_from`` set, the snapshot's signature is
        checked against this plan and its plane count against the grid's
        (``ValueError`` on a mismatch), its grid is copied into :attr:`grid`
        and its groups are recorded as completed."""
        n_bl, n_times, three = uvw_m.shape
        if three != 3:
            raise ValueError("uvw_m must have a trailing axis of 3")
        shape = tuple(visibilities.shape)
        a = shape[-1]
        if shape != (n_bl, n_times, plan.n_channels, a, a) or a not in (1, 2):
            raise ValueError(
                f"visibilities shape {shape} does not match "
                f"{(n_bl, n_times, plan.n_channels)} + (a, a) with a in (1, 2)"
            )
        if plan.flagged.shape != (n_bl, n_times, plan.n_channels):
            raise ValueError("plan was built for a different observation shape")
        visibilities = prepare_visibilities(visibilities, flags)
        if grid is None:
            grid = idg.gridspec.allocate_grid(a * a, dtype=COMPLEX_DTYPE)
        if aterm_fields is None:
            aterm_fields = idg.aterm_fields(plan, aterms)
        program = cls(
            idg, plan, uvw_m, visibilities=visibilities, grid=grid,
            aterm_fields=aterm_fields, faults=faults,
        )
        if checkpoint is not None:
            program.checkpoint = checkpoint
            program.signature = plan_signature(plan, idg.config.work_group_size)
            if checkpoint.resume_from is not None:
                snapshot = load_checkpoint(
                    checkpoint.resume_from, signature=program.signature
                )
                if snapshot.grid.shape != grid.shape:
                    raise ValueError(
                        f"checkpoint grid {snapshot.grid.shape} does not match "
                        f"this call's {grid.shape} grid: a different number "
                        "of correlations (refusing to resume)"
                    )
                np.copyto(grid, snapshot.grid)
                program.completed = set(snapshot.completed_set)
                program.n_retired = len(program.completed)
        return program

    @classmethod
    def for_degrid(
        cls,
        idg: IDG,
        plan: Plan,
        uvw_m: np.ndarray,
        grid: np.ndarray,
        *,
        aterms: ATermGenerator | None = None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
        out: np.ndarray | None = None,
        faults: FaultPlan | None = None,
    ) -> "WorkGroupProgram":
        """The program of ``IDG.degrid``'s arguments: A-term fields
        resolved, a zeroed ``(n_bl, T, C, a, a)`` output sized by the
        ``(a**2, G, G)`` grid's plane count allocated unless ``out`` is
        given, whose shape is checked."""
        n_bl, n_times, _ = uvw_m.shape
        a = {1: 1, 4: 2}.get(grid.shape[0])
        if grid.ndim != 3 or a is None:
            raise ValueError(
                f"grid shape {grid.shape} is not (1, G, G) or (4, G, G)"
            )
        expected = (n_bl, n_times, plan.n_channels, a, a)
        if out is None:
            out = np.zeros(expected, dtype=COMPLEX_DTYPE)
        elif out.shape != expected:
            raise ValueError(f"out shape {out.shape} != {expected}")
        if aterm_fields is None:
            aterm_fields = idg.aterm_fields(plan, aterms)
        return cls(
            idg, plan, uvw_m, grid=grid, out=out,
            aterm_fields=aterm_fields, faults=faults,
        )

    # ----------------------------------------------------- failure contract

    @property
    def fault_report(self) -> FaultReport | None:
        """What executors publish on ``last_fault_report``: the report of a
        tolerant run, ``None`` when fail-fast."""
        return None if self.runner.fail_fast else self.report

    def run(self, stage: str, group: int, fn: Callable[[], Any]) -> Any:
        """``fn()`` as stage ``stage`` of work group ``group`` under the
        runner, recorded as one ``stage`` span of ``group`` on the calling
        thread: its result, a :class:`Quarantined` sentinel, or a raised
        :class:`~repro.runtime.recovery.WorkGroupError` (no span)."""
        start, stop = self.groups[group]
        t0 = monotonic()
        outcome = self.runner.run(
            stage, group, fn, start=start, stop=stop,
            n_visibilities=self.group_visibilities[group],
        )
        self.telemetry.record_span(
            stage, group, t0, monotonic(), threading.current_thread().name
        )
        return outcome

    def finish(self) -> np.ndarray:
        """Close the report's group counts, sample the memory gauges and
        return the call's result (the grid, or the degridded
        visibilities)."""
        self.report.n_groups = self.n_groups
        self.report.n_groups_completed = (
            self.n_groups - len(self.report.excluded_items())
        )
        record_memory_gauges(self.telemetry)
        return self.grid if self.out is None else self.out

    def drop_caches(self) -> None:
        """Evict the out-of-core input's read pages (no-op in memory)."""
        if self.source is not None:
            self.source.drop_caches()

    # ------------------------------------------------------- grid stages

    def gridder(self, group: int, visibilities: Any = None) -> Any:
        """Image-domain subgrids of ``group``; ``visibilities`` overrides
        the program's input (a prefetched block)."""
        if isinstance(visibilities, Quarantined):
            return visibilities
        vis = self.visibilities if visibilities is None else visibilities
        start, stop = self.groups[group]
        idg = self.idg
        return self.run("gridder", group, lambda: self.backend.grid_work_group(
            self.plan, start, stop, self.uvw_m, vis, idg.taper, self.tables,
        ))

    def subgrid_fft(self, group: int, subgrids: Any) -> Any:
        """Fourier-domain subgrids of ``group``."""
        if isinstance(subgrids, Quarantined):
            return subgrids
        return self.run(
            "subgrid_fft", group, lambda: self.backend.subgrids_to_fourier(subgrids)
        )

    # --------------------------------------------------------- retirement

    @contextlib.contextmanager
    def retiring(self) -> Iterator[list[int]]:
        """The scope of an executor's retirement loop.

        Yields the groups still pending — ascending, the resumed snapshot's
        completed groups left out — which the executor schedules and hands
        to :meth:`retire` in that order.  On the way out, after a completed
        run and after an abort alike, the final snapshot is written.
        """
        try:
            yield [g for g in range(self.n_groups) if g not in self.completed]
        finally:
            self._snapshot()

    def retire(self, group: int, outcome: Any) -> Any:
        """Retire ``group`` with its last stage's ``outcome``.

        A grid group's outcome is its Fourier subgrids: they are added onto
        :attr:`grid` as the ``adder`` stage and the group is marked
        completed.  A degrid group's outcome only says whether it was
        :class:`Quarantined`.  A group that was not quarantined adds its
        visibilities to the ``visibilities`` counter.  Every retirement is
        counted; every 8th evicts an out-of-core source's read pages and
        samples the memory gauges, so the trace shows RSS staying flat as
        data streams through; every ``checkpoint.interval``-th writes a
        snapshot.  Returns the adder's outcome (a degrid group's, unchanged).

        Executors call this for every group, from one thread at a time, in
        plan order, so the grid accumulates exactly as the serial
        executor's does.

        Raises
        ------
        WorkGroupError
            Naming the ``adder`` stage and ``group`` when the add was torn:
            it raised part-way, or ran other than exactly once, so the grid
            may hold part of the group.  This holds in tolerant mode too — a
            retry would add the part again — and the snapshot on disk stays
            the last good one.  Injected adder faults fire before the add,
            so they stay retriable.
        """
        if self.out is None and not isinstance(outcome, Quarantined):
            fourier = outcome
            start, stop = self.groups[group]
            adds = 0
            error: Exception | None = None
            whole = False

            def add() -> None:
                nonlocal adds, error
                adds += 1
                try:
                    self.backend.add_subgrids(self.grid, self.plan, fourier, start=start)
                except Exception as exc:  # noqa: BLE001 — never retried: see Raises
                    error = exc

            try:
                outcome = self.run("adder", group, add)
                whole = error is None and not isinstance(outcome, Quarantined)
            finally:
                # The grid holds the group once and whole only if exactly one
                # add ran and finished; injected faults fire before the add.
                self.torn |= adds != int(whole)
            if self.torn:
                detail = repr(error) if error is not None else (
                    f"its add ran {adds} times, then the stage failed"
                )
                raise WorkGroupError(
                    "adder", group, start, stop,
                    f"torn add, the grid may hold part of the group: {detail}",
                ) from error
            if whole:
                self.completed.add(group)
        if not isinstance(outcome, Quarantined):
            self.telemetry.add_counter("visibilities", self.group_visibilities[group])
        self.n_retired += 1
        self._unsaved += 1
        if self.source is not None and self.n_retired % _EVICT_EVERY == 0:
            self.drop_caches()
            record_memory_gauges(self.telemetry)
        if self.checkpoint is not None and self._unsaved >= self.checkpoint.interval:
            self._snapshot()
        return outcome

    def _snapshot(self) -> None:
        """Write :attr:`grid` and the completed set to ``checkpoint.path``,
        unless there is none or the grid may hold part of a group."""
        if self.checkpoint is None or self.checkpoint.path is None or self.torn:
            return
        save_checkpoint(
            self.checkpoint.path, self.grid, self.completed, self.signature,
            n_retired=self.n_retired,
        )
        self._unsaved = 0
        self.report.n_checkpoints += 1
        self.telemetry.add_counter("checkpoints", 1)

    # ----------------------------------------------------- degrid stages

    def subgrid_split(self, group: int) -> Any:
        """Fourier-domain subgrids of ``group`` cut from :attr:`grid`."""
        start, stop = self.groups[group]
        return self.run("subgrid_split", group, lambda: self.backend.split_subgrids(
            self.grid, self.plan, start, stop
        ))

    def subgrid_ifft(self, group: int, patches: Any) -> Any:
        """Image-domain subgrids of ``group``."""
        if isinstance(patches, Quarantined):
            return patches
        return self.run(
            "subgrid_ifft", group, lambda: self.backend.subgrids_to_image(patches)
        )

    def degridder(self, group: int, images: Any) -> Any:
        """Predict ``group``'s visibilities into :attr:`out` (work items
        write disjoint blocks, so concurrent groups need no lock)."""
        if isinstance(images, Quarantined):
            return images
        start, stop = self.groups[group]
        idg = self.idg
        return self.run("degridder", group, lambda: self.backend.degrid_work_group(
            self.plan, start, stop, images, self.uvw_m, self.out, idg.taper,
            self.tables,
        ))
