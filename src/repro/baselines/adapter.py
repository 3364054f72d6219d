"""IDG-interface adapter for the traditional gridders.

The paper's Fig 4 argues IDG is a *drop-in replacement* for the gridding and
degridding steps of the imaging pipeline.  The converse also holds: this
adapter wraps :class:`~repro.baselines.wprojection.WProjectionGridder` in
the :class:`~repro.core.IDG` interface (``make_plan`` / ``aterm_fields`` /
``grid`` / ``degrid`` plus the attributes the imaging layer reads), so the
*same* :class:`~repro.imaging.cycle.ImagingCycle` can run with either
gridder — enabling end-to-end image-quality comparisons on identical code
paths, the one-correlation Stokes-I grids of the imaging processors
included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.wprojection import WProjectionGridder
from repro.core.pipeline import IDGConfig
from repro.gridspec import GridSpec


@dataclass(frozen=True)
class _AdapterStatistics:
    """The subset of :class:`~repro.core.plan.PlanStatistics` the imaging
    layer consumes."""

    n_visibilities_gridded: int
    n_visibilities_flagged: int
    n_subgrids: int = 0


class _AdapterPlan:
    """Plan stand-in: W-projection needs no execution plan, only the flags
    (kernel footprints that fall off the grid)."""

    def __init__(self, flagged: np.ndarray, n_channels: int):
        self.flagged = flagged
        self.n_channels = n_channels
        total = int(flagged.size)
        n_flagged = int(flagged.sum())
        self.statistics = _AdapterStatistics(
            n_visibilities_gridded=total - n_flagged,
            n_visibilities_flagged=n_flagged,
        )


class WProjectionImager:
    """W-projection behind the IDG pipeline interface.

    Parameters mirror :class:`WProjectionGridder`; ``config`` carries the
    taper fields the imaging layer reads (the gridder's own kernels always
    use the spheroidal, matching the paper's WPG).
    """

    def __init__(
        self,
        gridspec: GridSpec,
        support: int = 16,
        oversample: int = 8,
        n_w_planes: int = 64,
    ):
        self.gridspec = gridspec
        self.config = IDGConfig()  # taper="spheroidal": what the kernels use
        self._gridder = WProjectionGridder(
            gridspec, support=support, oversample=oversample, n_w_planes=n_w_planes
        )

    def make_plan(self, uvw_m, frequencies_hz, baselines, aterm_schedule=None,
                  w_offset=0.0) -> _AdapterPlan:
        if aterm_schedule is not None and aterm_schedule.update_interval:
            raise NotImplementedError(
                "the W-projection adapter has no A-term support — "
                "the capability gap the paper's Section VI-E is about"
            )
        flagged = self._gridder.flagged_mask(uvw_m, frequencies_hz)
        self._frequencies = np.atleast_1d(np.asarray(frequencies_hz, dtype=np.float64))
        return _AdapterPlan(flagged, self._frequencies.size)

    def aterm_fields(self, plan, aterms) -> None:
        """No fields: identity A-terms only (``NotImplementedError``
        otherwise)."""
        if aterms is not None and not getattr(aterms, "is_identity", False):
            raise NotImplementedError("W-projection cannot apply A-terms")
        return None

    def grid(self, plan, uvw_m, visibilities, aterms=None, grid=None, flags=None,
             aterm_fields=None):
        self.aterm_fields(plan, aterms)
        if aterm_fields is not None:
            raise NotImplementedError("W-projection cannot apply A-terms")
        vis = visibilities
        if flags is not None:
            vis = np.where(np.asarray(flags, bool)[..., None, None], 0, vis)
        return self._gridder.grid(uvw_m, self._frequencies, vis, grid=grid)

    def degrid(self, plan, uvw_m, grid, aterms=None, aterm_fields=None):
        self.aterm_fields(plan, aterms)
        if aterm_fields is not None:
            raise NotImplementedError("W-projection cannot apply A-terms")
        return self._gridder.degrid(uvw_m, self._frequencies, grid)
