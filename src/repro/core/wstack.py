"""W-stacked IDG (paper Section IV).

Plain IDG evaluates the w phase exactly per visibility, but the image-domain
screen ``exp(2*pi*i*(w - w_offset)*n(l, m))`` it multiplies into the subgrid
widens the effective uv footprint with ``|w - w_offset|``; once that
footprint outgrows the subgrid's anti-aliasing headroom, accuracy degrades.
The paper's remedy: combine IDG with W-stacking — "larger subgrids (e.g. up
to 64 x 64) can be used in connection with W-stacking to dramatically limit
the number of required W-planes".

The scheme follows what ASTRON's production IDG later adopted: every *work
item* gets a w-offset equal to its layer's central w.  This module owns the
layer split — work items are grouped by their mean w into ``n_planes``
layers, each a sub-plan carrying its centre as ``w_offset``.
:class:`repro.imaging.pipeline.WStackFTProcessor` runs the layers: each is
gridded onto its own master grid (the gridder subtracting the layer's w),
inverse-FFT'd, multiplied by the layer's exact image-domain screen
``exp(+2*pi*i*w_p*n)`` on the *fine* raster, and the corrected layer images
are summed.  Prediction runs the exact reverse.  Because layers partition
the work items (and work items partition the visibilities), prediction
writes are disjoint and imaging adds are independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.core.plan import Plan


@dataclass(frozen=True)
class WLayer:
    """One w plane: its central w (wavelengths) and the plan of the work
    items assigned to it."""

    w_centre: float
    plan: Plan

    @property
    def n_subgrids(self) -> int:
        return self.plan.n_subgrids


def item_mean_w(plan: Plan, uvw_m: np.ndarray) -> np.ndarray:
    """Mean w (wavelengths) of every work item's visibility block."""
    out = np.empty(plan.n_subgrids, dtype=np.float64)
    freqs = plan.frequencies_hz
    for k, item in enumerate(plan):
        w_m = uvw_m[item.baseline, item.time_start : item.time_end, 2]
        f_mean = freqs[item.channel_start : item.channel_end].mean()
        out[k] = w_m.mean() * f_mean / SPEED_OF_LIGHT
    return out


def split_plan_by_w(plan: Plan, uvw_m: np.ndarray, n_planes: int) -> list[WLayer]:
    """Partition a plan's work items into w layers.

    Layer centres are uniformly spaced over the observed per-item w range;
    each item joins the nearest centre, and each layer's sub-plan carries
    that centre as its ``w_offset`` (subtracted by the gridder/degridder).
    Empty layers are dropped.
    """
    if n_planes <= 0:
        raise ValueError("n_planes must be positive")
    if plan.n_subgrids == 0:
        return []
    w_item = item_mean_w(plan, uvw_m)
    w_min, w_max = float(w_item.min()), float(w_item.max())
    if n_planes == 1 or w_max == w_min:
        centres = np.array([0.5 * (w_min + w_max)])
        assignment = np.zeros(plan.n_subgrids, dtype=np.int64)
    else:
        centres = np.linspace(w_min, w_max, n_planes)
        step = centres[1] - centres[0]
        assignment = np.clip(
            np.rint((w_item - centres[0]) / step).astype(np.int64), 0, n_planes - 1
        )
    layers = []
    for p, w_p in enumerate(centres):
        mask = assignment == p
        if not mask.any():
            continue
        sub_plan = Plan(
            gridspec=plan.gridspec,
            subgrid_size=plan.subgrid_size,
            items=plan.items[mask],
            flagged=plan.flagged,
            frequencies_hz=plan.frequencies_hz,
            kernel_support=plan.kernel_support,
            w_offset=float(w_p),
        )
        layers.append(WLayer(w_centre=float(w_p), plan=sub_plan))
    return layers

