"""The ``vectorized`` backend: the package's production kernels.

Each work group runs through the shape-bucketed batch-of-subgrids drivers
of :mod:`repro.parallel.bucketing`: work items of identical block shape are
gathered into stacked tensors and evaluated with one stacked complex64
``(G, N**2, T) @ (G, T, K)`` product per bucket and channel step (``K`` the
data's correlation count, 4 or 1), dispatched
to BLAS ``cgemm`` (the paper's single precision), with all scratch drawn
from the calling thread's :class:`~repro.core.scratch.ScratchArena`.
The kernels run the channel-phasor recurrence
(:func:`repro.core.gridder.gridder_bucket`), which trades sine/cosine
evaluations for FMAs exactly as the paper's Section V-B optimisation 2
does, over a row per timestep when the channels are evenly spaced; any
other channel ladder gets a row per sample with one channel, the direct
sum.  The data makes that choice.  It is the default backend.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import KernelBackend
from repro.core.plan import Plan
from repro.parallel.bucketing import CallTables
from repro.parallel.bucketing import call_tables as _call_tables
from repro.parallel.bucketing import degrid_work_group as _degrid_work_group
from repro.parallel.bucketing import grid_work_group as _grid_work_group


class VectorizedBackend(KernelBackend):
    """BLAS-dispatched NumPy kernels (the paper's SIMD reduction, in gemm)."""

    name = "vectorized"

    def call_tables(
        self,
        plan: Plan,
        lmn: np.ndarray | None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None,
        n_correlations: int,
    ) -> CallTables:
        """The channel step, raster factors and stacked A-term table every
        bucket chunk of the call reads
        (:func:`repro.parallel.bucketing.call_tables`)."""
        return _call_tables(plan, lmn, aterm_fields, n_correlations)

    def grid_work_group(
        self,
        plan: Plan,
        start: int,
        stop: int,
        uvw_m: np.ndarray,
        visibilities: np.ndarray,
        taper: np.ndarray,
        tables: CallTables,
    ) -> np.ndarray:
        return _grid_work_group(plan, start, stop, uvw_m, visibilities, taper, tables)

    def degrid_work_group(
        self,
        plan: Plan,
        start: int,
        stop: int,
        subgrid_images: np.ndarray,
        uvw_m: np.ndarray,
        visibilities_out: np.ndarray,
        taper: np.ndarray,
        tables: CallTables,
    ) -> None:
        _degrid_work_group(
            plan, start, stop, subgrid_images, uvw_m, visibilities_out, taper, tables
        )
