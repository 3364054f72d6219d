"""Adder and splitter (paper Fig 4, step 3, and Section V-B-d / V-C-e).

The adder accumulates Fourier-domain subgrids into the master grid at their
integer corner positions; because subgrids overlap, concurrent adds to the
same pixels must be serialised (the paper parallelises over grid *rows* on
the CPU and uses atomics on the GPU).  Here every executor retires work
groups through one serial adder in plan order
(:meth:`repro.runtime.program.WorkGroupProgram.retire`), which fixes the
floating-point accumulation order and so makes all executors bit-identical.
The splitter is the read-only reverse used in degridding, trivially parallel
over subgrids.

Grid layout: ``(4, grid_size, grid_size)`` with polarisation order
XX, XY, YX, YY; the first pixel axis is v (rows), the second u (columns).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.contracts import shape_checked
from repro.core.plan import Plan


def _pol_major(subgrids: np.ndarray) -> np.ndarray:
    """View ``(k, N, N, 2, 2)`` subgrids as ``(k, 4, N, N)`` (pol-major)."""
    k, n = subgrids.shape[0], subgrids.shape[1]
    return subgrids.reshape(k, n, n, 4).transpose(0, 3, 1, 2)


def _pol_minor(subgrids_pol: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_pol_major`: ``(k, 4, N, N)`` -> ``(k, N, N, 2, 2)``."""
    k, _, n, _ = subgrids_pol.shape
    return subgrids_pol.transpose(0, 2, 3, 1).reshape(k, n, n, 2, 2)


@shape_checked(grid="(4, G, G)", subgrids_fourier="(k, N, N, 2, 2)")
def add_subgrids(
    grid: np.ndarray,
    plan: Plan,
    subgrids_fourier: np.ndarray,
    start: int = 0,
) -> None:
    """Accumulate Fourier-domain subgrids into the master grid, in place.

    Parameters
    ----------
    grid:
        ``(4, G, G)`` master grid, modified in place.
    plan:
        The execution plan (supplies each subgrid's corner).
    subgrids_fourier:
        ``(k, N, N, 2, 2)`` uv-domain subgrids for work items
        ``start .. start+k-1``.
    start:
        Index of the first work item in the batch.
    """
    n = plan.subgrid_size
    if grid.shape != (4, plan.gridspec.grid_size, plan.gridspec.grid_size):
        raise ValueError(f"grid shape {grid.shape} does not match plan")
    pol = _pol_major(subgrids_fourier)
    for k in range(subgrids_fourier.shape[0]):
        row = plan.items[start + k]
        cu, cv = int(row["corner_u"]), int(row["corner_v"])
        grid[:, cv : cv + n, cu : cu + n] += pol[k]


@shape_checked(grid="(4, G, G)", returns="(k, N, N, 2, 2)")
def split_subgrids(
    grid: np.ndarray,
    plan: Plan,
    start: int,
    stop: int,
) -> np.ndarray:
    """Extract the ``(stop-start, N, N, 2, 2)`` uv-domain subgrids for a
    work-item range (read-only on the grid; safe to run concurrently)."""
    n = plan.subgrid_size
    if grid.shape != (4, plan.gridspec.grid_size, plan.gridspec.grid_size):
        raise ValueError(f"grid shape {grid.shape} does not match plan")
    out_pol = np.empty((stop - start, 4, n, n), dtype=grid.dtype)
    for k, index in enumerate(range(start, stop)):
        row = plan.items[index]
        cu, cv = int(row["corner_u"]), int(row["corner_v"])
        out_pol[k] = grid[:, cv : cv + n, cu : cu + n]
    return _pol_minor(out_pol)
