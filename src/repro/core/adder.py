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

Grid layout: ``(a**2, grid_size, grid_size)``, one plane per correlation of
the ``(k, N, N, a, a)`` subgrids: XX, XY, YX, YY for ``a = 2``, the Stokes-I
sample ``0.5 (XX + YY)`` alone for ``a = 1``.  The first pixel axis is v
(rows), the second u (columns).
"""

from __future__ import annotations

from math import isqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.analysis.contracts import shape_checked
from repro.core.plan import Plan


def _pol_major(subgrids: np.ndarray) -> np.ndarray:
    """View ``(k, N, N, a, a)`` subgrids as ``(k, a**2, N, N)``
    (correlation-major)."""
    k, n, _, a, _ = subgrids.shape
    return subgrids.reshape(k, n, n, a * a).transpose(0, 3, 1, 2)


def _pol_minor(subgrids_pol: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_pol_major`: ``(k, a**2, N, N)`` ->
    ``(k, N, N, a, a)``."""
    k, planes, n, _ = subgrids_pol.shape
    a = isqrt(planes)
    return subgrids_pol.transpose(0, 2, 3, 1).reshape(k, n, n, a, a)


def _check_grid(grid: np.ndarray, plan: Plan, planes: int | None = None) -> None:
    """``grid`` must be ``(1 | 4, G, G)`` on the plan's geometry, with
    ``planes`` planes when given (a plane count off by the subgrids' would
    otherwise broadcast in the add silently)."""
    g = plan.gridspec.grid_size
    if (
        grid.ndim != 3
        or grid.shape[0] not in (1, 4)
        or grid.shape[1:] != (g, g)
        or planes not in (None, grid.shape[0])
    ):
        raise ValueError(f"grid shape {grid.shape} does not match plan")


@shape_checked(grid="(a**2, G, G)", subgrids_fourier="(k, N, N, a, a)")
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
        ``(a**2, G, G)`` master grid, modified in place.
    plan:
        The execution plan (supplies each subgrid's corner).
    subgrids_fourier:
        ``(k, N, N, a, a)`` uv-domain subgrids for work items
        ``start .. start+k-1``.
    start:
        Index of the first work item in the batch.
    """
    n = plan.subgrid_size
    _check_grid(grid, plan, subgrids_fourier.shape[-1] ** 2)
    pol = _pol_major(subgrids_fourier)
    for k in range(subgrids_fourier.shape[0]):
        row = plan.items[start + k]
        cu, cv = int(row["corner_u"]), int(row["corner_v"])
        grid[:, cv : cv + n, cu : cu + n] += pol[k]


@shape_checked(grid="(a**2, G, G)", returns="(k, N, N, a, a)")
def split_subgrids(
    grid: np.ndarray,
    plan: Plan,
    start: int,
    stop: int,
) -> np.ndarray:
    """Extract the ``(stop-start, N, N, a, a)`` uv-domain subgrids of an
    ``(a**2, G, G)`` grid for a work-item range (read-only on the grid; safe
    to run concurrently), with one index of the grid's window view at the
    items' corners.

    Raises
    ------
    ValueError
        When an item's window runs off the grid.
    """
    n = plan.subgrid_size
    _check_grid(grid, plan)
    g = grid.shape[-1]
    rows = plan.items[start:stop]
    corner_u, corner_v = rows["corner_u"], rows["corner_v"]
    if len(rows) and (
        min(corner_u.min(), corner_v.min()) < 0
        or max(corner_u.max(), corner_v.max()) > g - n
    ):
        raise ValueError(f"a subgrid window of items {start}..{stop - 1} is off the grid")
    # (G-N+1, G-N+1, a**2, N, N): every window of the grid, as a view
    windows = np.moveaxis(sliding_window_view(grid, (n, n), axis=(1, 2)), 0, 2)
    return _pol_minor(windows[corner_v, corner_u])
