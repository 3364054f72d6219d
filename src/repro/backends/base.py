"""The kernel-backend interface: four entry points, one contract.

The paper's core claim is that one IDG algorithm maps onto three
architectures (HASWELL, FIJI, PASCAL) through architecture-specific kernels
that stay *numerically interchangeable*.  :class:`KernelBackend` is this
package's version of that seam: a backend supplies the four kernel entry
points of the pipeline (Fig 4) —

* **gridder**   — work-group batch of Algorithm 1,
* **degridder** — work-group batch of Algorithm 2,
* **subgrid FFT** — the batched image<->Fourier subgrid transforms,
* **adder/splitter** — master-grid accumulation and extraction —

and all four executors (:class:`repro.core.IDG`,
:class:`repro.runtime.StreamingIDG`, its ``threads`` configuration
:class:`repro.parallel.ParallelIDG`, and
:class:`repro.parallel.ProcessShardedIDG`) dispatch through whichever
backend the :class:`~repro.core.pipeline.IDG` was configured with.  The equivalence contract — all registered backends
agree pairwise to ``rtol = 1e-5`` on a shared corpus of plans, and each is
self-adjoint across grid/degrid — is enforced by ``tests/backends/``; a new
backend only has to register itself to be held to it.  The contract holds
over both correlation counts the data can carry: ``(..., 2, 2)``
visibilities with ``(4, G, G)`` grids, and the one-correlation Stokes-I
sample as ``(..., 1, 1)`` visibilities with ``(1, G, G)`` grids.

Backends must be stateless after construction (no per-call mutable members):
``StreamingIDG`` (``ParallelIDG`` included) calls one instance from its pool
threads, and
``ProcessShardedIDG``'s workers rebuild the backend from its registry name
while the parent process keeps the instance that runs the adder.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.adder import add_subgrids as _add_subgrids
from repro.core.adder import split_subgrids as _split_subgrids
from repro.core.plan import Plan
from repro.core.subgrid_fft import subgrids_to_fourier as _subgrids_to_fourier
from repro.core.subgrid_fft import subgrids_to_image as _subgrids_to_image


class KernelBackend:
    """Base class of all kernel backends.

    Subclasses must implement :meth:`call_tables`, :meth:`grid_work_group`
    and :meth:`degrid_work_group` (the two compute-dominant kernels the
    paper specialises per architecture) and may override the subgrid FFT and
    adder/splitter entry points; the defaults delegate to the shared NumPy
    implementations, matching the paper's use of vendor FFT libraries
    (MKL/cuFFT/clFFT) across all three architectures.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    # ----------------------------------------------------------- per call

    def call_tables(
        self,
        plan: Plan,
        lmn: np.ndarray | None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None,
        n_correlations: int,
    ) -> Any:
        """What this backend's kernels share across the work groups of one
        call on ``plan`` gridding or degridding ``n_correlations``
        correlations, derived once per call from the raster ``lmn`` (the
        plan's when ``None``) and the A-term fields, and passed back to
        every :meth:`grid_work_group`/:meth:`degrid_work_group` call as
        ``tables``.  The result is read-only: worker threads share it."""
        raise NotImplementedError

    # ------------------------------------------------------------- gridder

    def grid_work_group(
        self,
        plan: Plan,
        start: int,
        stop: int,
        uvw_m: np.ndarray,
        visibilities: np.ndarray,
        taper: np.ndarray,
        tables: Any,
    ) -> np.ndarray:
        """Grid work items ``start .. stop-1`` (Algorithm 1).

        Same signature and semantics as
        :func:`repro.parallel.bucketing.grid_work_group`; returns
        the ``(stop - start, N, N, a, a)`` image-domain subgrids of the
        ``(..., a, a)`` visibilities' ``a**2`` correlations (``a`` 1 or 2).
        ``tables`` is this call's :meth:`call_tables`.
        """
        raise NotImplementedError

    # ----------------------------------------------------------- degridder

    def degrid_work_group(
        self,
        plan: Plan,
        start: int,
        stop: int,
        subgrid_images: np.ndarray,
        uvw_m: np.ndarray,
        visibilities_out: np.ndarray,
        taper: np.ndarray,
        tables: Any,
    ) -> None:
        """Degrid work items ``start .. stop-1`` (Algorithm 2).

        Same signature and semantics as
        :func:`repro.parallel.bucketing.degrid_work_group`:
        predictions are written into ``visibilities_out`` in place.
        """
        raise NotImplementedError

    # --------------------------------------------------------- subgrid FFT

    def subgrids_to_fourier(self, subgrid_images: np.ndarray) -> np.ndarray:
        """Forward batched subgrid FFT (image -> uv domain, ``1/N**2``)."""
        return _subgrids_to_fourier(subgrid_images)

    def subgrids_to_image(self, subgrid_fourier: np.ndarray) -> np.ndarray:
        """Adjoint batched subgrid FFT (uv -> image domain)."""
        return _subgrids_to_image(subgrid_fourier)

    # ------------------------------------------------------ adder/splitter

    def add_subgrids(
        self,
        grid: np.ndarray,
        plan: Plan,
        subgrids_fourier: np.ndarray,
        start: int = 0,
    ) -> None:
        """Accumulate Fourier-domain subgrids onto the master grid in place
        (the serial adder, :func:`repro.core.adder.add_subgrids`)."""
        _add_subgrids(grid, plan, subgrids_fourier, start=start)

    def split_subgrids(
        self, grid: np.ndarray, plan: Plan, start: int, stop: int
    ) -> np.ndarray:
        """Extract the uv-domain subgrids of a work-item range (read-only)."""
        return _split_subgrids(grid, plan, start, stop)

    # ------------------------------------------------------------- utility

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
