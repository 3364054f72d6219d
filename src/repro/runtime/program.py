"""One grid or degrid call as a program of per-work-group stages (paper Fig 4).

The paper's pipeline is one chain of per-work-group stages — gridder ->
subgrid FFT -> adder, and splitter -> inverse subgrid FFT -> degridder —
whose schedules (Figs 6-7) change only *where and when* groups run.  A
:class:`WorkGroupProgram` is that chain for one call: every stage method
runs its kernel through :meth:`WorkGroupProgram.run` under the program's
:class:`~repro.runtime.recovery.WorkGroupRunner` (fail-fast by default,
retry-and-quarantine when fault tolerance is on) and passes a
:class:`~repro.runtime.recovery.Quarantined` input straight on.  The
executors keep only their scheduling — an inline loop (``IDG``), a thread
pool with in-order retirement (``ParallelIDG``), a stage graph
(``StreamingIDG``) or worker-process shards (``ProcessShardedIDG``) — so
they all run the same stage bodies on the same groups, bit-identically.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.aterms.generators import ATermGenerator
from repro.constants import COMPLEX_DTYPE
from repro.core.pipeline import IDG, prepare_visibilities
from repro.core.plan import Plan
from repro.data.store import ChunkedVisibilitySource
from repro.runtime.blas import single_threaded_blas
from repro.runtime.faults import FaultPlan
from repro.runtime.recovery import (
    FaultReport,
    Quarantined,
    RetryPolicy,
    WorkGroupRunner,
    group_visibility_count,
)
from repro.runtime.telemetry import Telemetry

__all__ = ["WorkGroupProgram"]


class WorkGroupProgram:
    """The work groups and stage bodies of one grid or degrid call.

    ``idg`` supplies the kernels, taper, work-group size and retry policy;
    ``visibilities`` is the gridding input (flags applied), ``grid`` the
    ``(4, G, G)`` grid the adder accumulates into or the splitter reads,
    ``out`` the degridding output; ``faults`` and ``telemetry`` go to the
    runner.  The constructor takes its inputs as given — :meth:`for_grid`
    and :meth:`for_degrid` are the checking constructors executors use.

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
        telemetry: Telemetry | None = None,
    ) -> None:
        single_threaded_blas()
        self.idg = idg
        self.backend = idg.backend
        self.plan = plan
        self.uvw_m = uvw_m
        self.visibilities = visibilities
        #: The out-of-core input, when there is one (its pages are dropped
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
        self.runner = WorkGroupRunner(
            RetryPolicy(
                max_retries=idg.config.max_retries,
                backoff_s=idg.config.retry_backoff_s,
            ),
            faults=faults,
            telemetry=telemetry,
        )
        self.report = self.runner.report

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
        faults: FaultPlan | None = None,
        telemetry: Telemetry | None = None,
    ) -> "WorkGroupProgram":
        """The program of ``IDG.grid``'s arguments: shapes checked, flags
        masked, A-term fields resolved (``aterm_fields`` wins over
        ``aterms``), the master grid allocated unless ``grid`` is given."""
        n_bl, n_times, three = uvw_m.shape
        if three != 3:
            raise ValueError("uvw_m must have a trailing axis of 3")
        expected = (n_bl, n_times, plan.n_channels, 2, 2)
        if visibilities.shape != expected:
            raise ValueError(
                f"visibilities shape {visibilities.shape} does not match {expected}"
            )
        if plan.flagged.shape != (n_bl, n_times, plan.n_channels):
            raise ValueError("plan was built for a different observation shape")
        visibilities = prepare_visibilities(visibilities, flags)
        if grid is None:
            grid = idg.gridspec.allocate_grid(dtype=COMPLEX_DTYPE)
        if aterm_fields is None:
            aterm_fields = idg.aterm_fields(plan, aterms)
        return cls(
            idg, plan, uvw_m, visibilities=visibilities, grid=grid,
            aterm_fields=aterm_fields, faults=faults, telemetry=telemetry,
        )

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
        telemetry: Telemetry | None = None,
    ) -> "WorkGroupProgram":
        """The program of ``IDG.degrid``'s arguments: A-term fields
        resolved, a zeroed output allocated unless ``out`` is given, whose
        shape is checked."""
        n_bl, n_times, _ = uvw_m.shape
        expected = (n_bl, n_times, plan.n_channels, 2, 2)
        if out is None:
            out = np.zeros(expected, dtype=COMPLEX_DTYPE)
        elif out.shape != expected:
            raise ValueError(f"out shape {out.shape} != {expected}")
        if aterm_fields is None:
            aterm_fields = idg.aterm_fields(plan, aterms)
        return cls(
            idg, plan, uvw_m, grid=grid, out=out,
            aterm_fields=aterm_fields, faults=faults, telemetry=telemetry,
        )

    # ----------------------------------------------------- failure contract

    @property
    def fault_report(self) -> FaultReport | None:
        """What executors publish on ``last_fault_report``: the report of a
        tolerant run, ``None`` when fail-fast."""
        return None if self.runner.fail_fast else self.report

    def run(self, stage: str, group: int, fn: Callable[[], Any]) -> Any:
        """``fn()`` as stage ``stage`` of work group ``group`` under the
        runner: its result, a :class:`Quarantined` sentinel, or a raised
        :class:`~repro.runtime.recovery.WorkGroupError`."""
        start, stop = self.groups[group]
        return self.runner.run(
            stage, group, fn, start=start, stop=stop,
            n_visibilities=group_visibility_count(self.plan, start, stop),
        )

    def finish(self) -> np.ndarray:
        """Close the report's group counts and return the call's result
        (the grid, or the degridded visibilities)."""
        self.report.n_groups = self.n_groups
        self.report.n_groups_completed = (
            self.n_groups - len(self.report.excluded_items())
        )
        return self.grid if self.out is None else self.out

    def drop_caches(self) -> None:
        """Evict the out-of-core input's retired pages (no-op in memory)."""
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
            self.plan, start, stop, self.uvw_m, vis, idg.taper,
            lmn=idg.lmn, aterm_fields=self.aterm_fields,
        ))

    def subgrid_fft(self, group: int, subgrids: Any) -> Any:
        """Fourier-domain subgrids of ``group``."""
        if isinstance(subgrids, Quarantined):
            return subgrids
        return self.run(
            "subgrid_fft", group, lambda: self.backend.subgrids_to_fourier(subgrids)
        )

    def adder(self, group: int, fourier: Any, n_workers: int = 1) -> Any:
        """Add ``group``'s Fourier subgrids onto :attr:`grid`."""
        if isinstance(fourier, Quarantined):
            return fourier
        start = self.groups[group][0]
        return self.run("adder", group, lambda: self.backend.add_subgrids(
            self.grid, self.plan, fourier, start=start, n_workers=n_workers,
        ))

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
            lmn=idg.lmn, aterm_fields=self.aterm_fields,
        ))
