"""The ``reference`` backend: the loop-level pseudocode oracle.

Wraps the literal Algorithm 1/2 transcriptions of
:mod:`repro.core.reference` behind the work-group interface, so the oracle
participates in the differential harness as a peer backend rather than a
special case inside individual tests.  It always evaluates the direct sum —
one sine/cosine per (pixel, visibility), no channel recurrence, no batching —
which is exactly what makes it authoritative and orders of magnitude slower
than ``vectorized``; the test corpus keeps its work items tiny.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import KernelBackend
from repro.constants import COMPLEX_DTYPE
from repro.core.plan import Plan
from repro.core.reference import (
    reference_degridder,
    reference_gridder,
    relative_uvw_wavelengths,
)


class ReferenceBackend(KernelBackend):
    """Direct-sum oracle kernels (explicit Python loops, paper pseudocode)."""

    name = "reference"

    def call_tables(
        self,
        plan: Plan,
        lmn: np.ndarray | None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None,
        n_correlations: int,
    ) -> dict[tuple[int, int], np.ndarray] | None:
        """The call's A-term fields unchanged: the oracle derives its own
        phases per visibility and shares no table code with the kernels it
        checks."""
        return aterm_fields

    def grid_work_group(
        self,
        plan: Plan,
        start: int,
        stop: int,
        uvw_m: np.ndarray,
        visibilities: np.ndarray,
        taper: np.ndarray,
        tables: dict[tuple[int, int], np.ndarray] | None,
    ) -> np.ndarray:
        n, a = plan.subgrid_size, visibilities.shape[-1]
        image_size = plan.gridspec.image_size
        out = np.empty((stop - start, n, n, a, a), dtype=COMPLEX_DTYPE)
        for k, index in enumerate(range(start, stop)):
            item = plan.work_item(index)
            u_mid, v_mid = plan.subgrid_centre_uv(index)
            freqs = plan.frequencies_hz[item.channel_start : item.channel_end]
            uvw_block = uvw_m[item.baseline, item.time_start : item.time_end]
            a_p, a_q = _fields_for(tables, item)
            vis_flat = visibilities[
                item.baseline,
                item.time_start : item.time_end,
                item.channel_start : item.channel_end,
            ].reshape(-1, a, a)
            rel = relative_uvw_wavelengths(
                uvw_block, freqs, u_mid, v_mid, plan.w_offset
            )
            out[k] = reference_gridder(
                vis_flat, rel, n, image_size, taper, aterm_p=a_p, aterm_q=a_q
            )
        return out

    def degrid_work_group(
        self,
        plan: Plan,
        start: int,
        stop: int,
        subgrid_images: np.ndarray,
        uvw_m: np.ndarray,
        visibilities_out: np.ndarray,
        taper: np.ndarray,
        tables: dict[tuple[int, int], np.ndarray] | None,
    ) -> None:
        image_size = plan.gridspec.image_size
        for k, index in enumerate(range(start, stop)):
            item = plan.work_item(index)
            u_mid, v_mid = plan.subgrid_centre_uv(index)
            freqs = plan.frequencies_hz[item.channel_start : item.channel_end]
            uvw_block = uvw_m[item.baseline, item.time_start : item.time_end]
            a_p, a_q = _fields_for(tables, item)
            rel = relative_uvw_wavelengths(
                uvw_block, freqs, u_mid, v_mid, plan.w_offset
            )
            vis = reference_degridder(
                subgrid_images[k], rel, image_size, taper, aterm_p=a_p, aterm_q=a_q
            ).reshape(item.n_times, item.n_channels, *subgrid_images.shape[-2:])
            visibilities_out[
                item.baseline,
                item.time_start : item.time_end,
                item.channel_start : item.channel_end,
            ] = vis


def _fields_for(aterm_fields, item):
    """(A_p, A_q) Jones fields of a work item (``None`` = identity)."""
    if aterm_fields is None:
        return None, None
    return (
        aterm_fields.get((item.station_p, item.aterm_interval)),
        aterm_fields.get((item.station_q, item.aterm_interval)),
    )
