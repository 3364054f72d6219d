"""Public IDG facade: plan, grid, degrid (paper Fig 4).

:class:`IDG` wires the kernels together in the paper's order:

* ``grid``   = gridder -> subgrid FFTs -> adder,
* ``degrid`` = splitter -> inverse subgrid FFTs -> degridder,

processing the plan's work items in *work groups* (Fig 6) — the unit the
parallel executors and the GPU stream scheduler of the performance model also
operate on.  Each call builds one
:class:`~repro.runtime.program.WorkGroupProgram` (the stage bodies, input
checks, failure contract, group retirement and telemetry every executor
shares) and runs its groups in an inline loop.

Typical use::

    idg = IDG(gridspec)
    plan = idg.make_plan(obs.uvw_m, obs.frequencies_hz, obs.array.baselines())
    grid = idg.grid(plan, obs.uvw_m, visibilities)
    ...
    predicted = idg.degrid(plan, obs.uvw_m, model_grid)

Image <-> grid conversions (dirty image, model prediction, taper grid
correction) live in :mod:`repro.imaging.image`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.aterms.generators import ATermGenerator
from repro.aterms.schedule import ATermSchedule
from repro.core.gridder import subgrid_lmn
from repro.core.plan import Plan
from repro.data.store import ChunkedVisibilitySource
from repro.gridspec import GridSpec
from repro.kernels.spheroidal import taper_for

if TYPE_CHECKING:
    from repro.runtime.checkpoint import CheckpointConfig
    from repro.runtime.faults import FaultPlan


def mask_flagged(
    visibilities: np.ndarray, flags: np.ndarray | None
) -> np.ndarray:
    """Zero flagged samples (RFI etc.) before gridding.

    ``flags`` is an optional ``(n_baselines, n_times, n_channels)`` boolean
    mask; flagged samples are gridded as zeros — remember to subtract their
    count from the image's ``weight_sum``.  Returns ``visibilities``
    unchanged when ``flags`` is ``None``.
    """
    if flags is None:
        return visibilities
    flags = np.asarray(flags, dtype=bool)
    if flags.shape != visibilities.shape[:3]:
        raise ValueError(
            f"flags shape {flags.shape} != {visibilities.shape[:3]}"
        )
    return np.where(flags[..., np.newaxis, np.newaxis], 0, visibilities)


def prepare_visibilities(
    visibilities, flags: np.ndarray | None
) -> np.ndarray | ChunkedVisibilitySource:
    """Apply ``flags`` without materialising out-of-core inputs.

    In-memory arrays go through :func:`mask_flagged` (an O(dataset) masked
    copy, as before).  A :class:`~repro.data.store.ChunkedVisibilitySource`
    instead absorbs the flags into its per-block lazy mask
    (:meth:`~repro.data.store.ChunkedVisibilitySource.with_flags`) — the
    kernels then read masked blocks straight off the memory map, so peak
    memory stays bounded by the work groups in flight, and each block is
    bit-identical to the eager path's slice.
    """
    if isinstance(visibilities, ChunkedVisibilitySource):
        return visibilities.with_flags(flags)
    return mask_flagged(visibilities, flags)


@dataclass(frozen=True)
class IDGConfig:
    """Tunable parameters of the IDG pipeline.

    Attributes
    ----------
    subgrid_size:
        Subgrid pixels per axis (paper benchmark: 24; up to 64 with
        W-stacking).
    kernel_support:
        uv-cell footprint reserved around each visibility in the plan
        (Fig 5).
    time_max:
        T̃_max — maximum timesteps per subgrid.
    taper:
        ``"spheroidal"`` (paper) or ``"kaiser-bessel"``.
    taper_beta:
        Kaiser-Bessel shape parameter (ignored for the spheroidal).
    work_group_size:
        Work items per work group.
    backend:
        Named kernel backend dispatching the gridder/degridder/subgrid-FFT/
        adder entry points (``"vectorized"``, the production path,
        ``"reference"``, the oracle, or any name registered with
        :func:`repro.backends.register_backend`).  ``None`` (default) is
        ``"vectorized"``.
    max_retries:
        Fault tolerance (DESIGN.md §11): retry attempts per work-group
        stage call before the group is quarantined to a dead letter.  The
        default 0 is fail-fast: the first failing stage call raises
        :class:`~repro.runtime.recovery.WorkGroupError` naming the stage,
        the work group and its plan range.
    retry_backoff_s:
        Backoff before the first retry; subsequent retries back off
        exponentially (see :class:`repro.runtime.recovery.RetryPolicy`).
    """

    subgrid_size: int = 24
    kernel_support: int = 8
    time_max: int = 128
    taper: str = "spheroidal"
    taper_beta: float = 9.0
    work_group_size: int = 256
    backend: str | None = None
    max_retries: int = 0
    retry_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.subgrid_size <= 0 or self.subgrid_size % 2:
            raise ValueError("subgrid_size must be positive and even")
        if not (0 <= self.kernel_support < self.subgrid_size):
            raise ValueError("kernel_support must be in [0, subgrid_size)")
        if self.time_max <= 0 or self.work_group_size <= 0:
            raise ValueError("time_max, work_group_size must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")


class IDG:
    """Image-Domain Gridding on a fixed master-grid geometry."""

    def __init__(self, gridspec: GridSpec, config: IDGConfig | None = None):
        from repro.backends import resolve_backend

        self.gridspec = gridspec
        self.config = config or IDGConfig()
        n = self.config.subgrid_size
        #: (N, N) anti-aliasing taper applied to every subgrid.
        self.taper = taper_for(n, self.config.taper, beta=self.config.taper_beta)
        #: (N**2, 3) pixel direction matrix shared by all work items.
        self.lmn = subgrid_lmn(n, gridspec.image_size)
        #: The kernel backend every executor dispatches through.
        self.backend = resolve_backend(self.config.backend)
        #: Fault report of the most recent tolerant grid/degrid call
        #: (``None`` when fail-fast).
        self.last_fault_report = None
        #: Telemetry of the most recent grid/degrid call.
        self.last_telemetry = None

    # ------------------------------------------------------------- planning

    def make_plan(
        self,
        uvw_m: np.ndarray,
        frequencies_hz: np.ndarray,
        baselines: np.ndarray,
        aterm_schedule: ATermSchedule | None = None,
        w_offset: float = 0.0,
    ) -> Plan:
        """Build the execution plan for a visibility set (Section V-A)."""
        return Plan.create(
            uvw_m=uvw_m,
            frequencies_hz=frequencies_hz,
            baselines=baselines,
            gridspec=self.gridspec,
            subgrid_size=self.config.subgrid_size,
            kernel_support=self.config.kernel_support,
            time_max=self.config.time_max,
            aterm_schedule=aterm_schedule,
            w_offset=w_offset,
        )

    def aterm_fields(
        self, plan: Plan, aterms: ATermGenerator | None
    ) -> dict[tuple[int, int], np.ndarray] | None:
        """Evaluate the Jones field of every (station, interval) the plan uses.

        Returns ``None`` for identity A-terms so the kernels take their fast
        path.  Fields are evaluated on the subgrid raster once and shared by
        all work items (this is why IDG's A-term cost is negligible —
        Section VI-E).
        """
        if aterms is None or aterms.is_identity:
            return None
        keys: set[tuple[int, int]] = set()
        for row in plan.items:
            interval = int(row["aterm_interval"])
            keys.add((int(row["station_p"]), interval))
            keys.add((int(row["station_q"]), interval))
        n = plan.subgrid_size
        return {
            (station, interval): aterms.evaluate_raster(
                station, interval, n, self.gridspec.image_size
            )
            for station, interval in sorted(keys)
        }

    # ------------------------------------------------------------- gridding

    def grid(
        self,
        plan: Plan,
        uvw_m: np.ndarray,
        visibilities: np.ndarray,
        *,
        aterms: ATermGenerator | None = None,
        grid: np.ndarray | None = None,
        flags: np.ndarray | None = None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
        checkpoint: CheckpointConfig | None = None,
        faults: FaultPlan | None = None,
    ) -> np.ndarray:
        """Grid a visibility set onto the master grid.

        Parameters
        ----------
        plan:
            Execution plan built by :meth:`make_plan` for this uvw set.
        uvw_m:
            ``(n_baselines, n_times, 3)`` uvw in metres.
        visibilities:
            ``(n_baselines, n_times, n_channels, 2, 2)`` complex — an
            in-memory array or a
            :class:`~repro.data.store.ChunkedVisibilitySource` streaming
            blocks from an on-disk store with bounded resident memory.
        aterms:
            Optional direction-dependent effects (must match the generator
            used when simulating/calibrating the data).
        grid:
            Optional existing ``(4, G, G)`` grid to accumulate into.
        flags:
            Optional ``(n_baselines, n_times, n_channels)`` data flags
            (RFI etc.); flagged samples are gridded as zeros — remember to
            subtract their count from the image's ``weight_sum``.
        aterm_fields:
            Pre-evaluated Jones fields (the :meth:`aterm_fields` mapping),
            overriding evaluation from ``aterms``.  The serving layer passes
            cached fields here so coalesced jobs share one evaluation.
        checkpoint:
            Optional :class:`~repro.runtime.checkpoint.CheckpointConfig`:
            snapshot this call's progress for a bit-exact resume, or resume
            from an earlier call's snapshot over the same plan.
        faults:
            Optional :class:`~repro.runtime.faults.FaultPlan` for
            deterministic fault injection (tests, benchmarks).

        Every executor's ``grid`` takes these same arguments.

        Returns
        -------
        The ``(4, G, G)`` master grid.  With fault tolerance active
        (``config.max_retries > 0`` or ``faults``), quarantined work groups
        are excluded from it and reported on ``last_fault_report`` instead
        of raising; otherwise the first failure raises
        :class:`~repro.runtime.recovery.WorkGroupError`.  The call's
        telemetry is kept on ``last_telemetry``.
        """
        # Imported here: repro.runtime imports this module.
        from repro.runtime.program import WorkGroupProgram

        program = WorkGroupProgram.for_grid(
            self, plan, uvw_m, visibilities, aterms=aterms, grid=grid,
            flags=flags, aterm_fields=aterm_fields, checkpoint=checkpoint,
            faults=faults,
        )
        self.last_telemetry = program.telemetry
        self.last_fault_report = program.fault_report
        with program.retiring() as pending:
            for group in pending:
                program.retire(
                    group, program.subgrid_fft(group, program.gridder(group))
                )
        return program.finish()

    # ----------------------------------------------------------- degridding

    def degrid(
        self,
        plan: Plan,
        uvw_m: np.ndarray,
        grid: np.ndarray,
        *,
        aterms: ATermGenerator | None = None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
        out: np.ndarray | None = None,
        faults: FaultPlan | None = None,
    ) -> np.ndarray:
        """Predict visibilities from a model grid (degridding).

        Returns a ``(n_baselines, n_times, n_channels, 2, 2)`` array; entries
        the plan flagged (unplaceable) are zero.  With fault tolerance
        active, a quarantined work group leaves its visibility block zero
        (the same convention) and is reported on ``last_fault_report``.
        ``aterm_fields`` overrides evaluation from ``aterms`` as in
        :meth:`grid`.  ``out``, when given, receives the prediction in place
        (it must be zero-initialised — e.g. a fresh
        :class:`~repro.data.store.DatasetWriter` visibility map, which lets
        predictions stream to disk instead of RAM) and is returned.
        ``faults`` injects faults as in :meth:`grid`.
        """
        # Imported here: repro.runtime imports this module.
        from repro.runtime.program import WorkGroupProgram

        program = WorkGroupProgram.for_degrid(
            self, plan, uvw_m, grid, aterms=aterms, aterm_fields=aterm_fields,
            out=out, faults=faults,
        )
        self.last_telemetry = program.telemetry
        self.last_fault_report = program.fault_report
        for group in range(program.n_groups):
            program.retire(group, program.degridder(
                group, program.subgrid_ifft(group, program.subgrid_split(group))
            ))
        return program.finish()

    # ------------------------------------------------------------- utility

    def with_config(self, **kwargs) -> "IDG":
        """A copy of this IDG with some configuration fields replaced."""
        return IDG(self.gridspec, replace(self.config, **kwargs))
