"""Exact operation and byte counts per kernel, measured from execution plans.

The roofline analysis needs, per kernel, (a) the operation count — known
exactly from the algorithm (Algorithms 1-2: 17 real FMAs and one sine/cosine
evaluation per (pixel, visibility) pair) — and (b) the data movement.  The
paper measures (b); we model it from the data structures each kernel
provably touches, with the GPU shared-memory traffic constants documented
below (they encode the shared-memory layout of Section V-C and are the
model's analogue of the paper's measured values).

All functions take a :class:`repro.core.plan.Plan` so the counts reflect the
*actual* work distribution (subgrid occupancy, channel splits, flagged
visibilities) of the data set being analysed.  The per-plan kernel counts
also take the number of correlations the kernels carry: 4 (the paper's
polarisations, the default) or 1 (the Stokes-I sample the imaging
processors grid alone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Final

import numpy as np

from repro.core.plan import Plan

#: Real multiply-adds per (pixel, visibility): 1 in the phase evaluation
#: f(x,y).g(u,v,w), 16 in the 4-polarisation complex accumulation
#: (Algorithm 1 caption).  Each correlation's complex multiply-add is 4 of
#: the 16 (:func:`_fmas_per_pixel_vis`).
FMAS_PER_PIXEL_VIS = 17

#: Shared-memory bytes one gridder thread moves per (pixel, visibility)
#: iteration: an 8-byte complex visibility value per polarisation (32 B),
#: a 12-byte uvw triple and the 4-byte phase-offset term.
GRIDDER_SHARED_BYTES = 48

#: Degridder shared traffic per (visibility, pixel) iteration: the 32-byte
#: corrected pixel, the 8-byte phase-index/phase-offset pair staged by the
#: second thread mapping (Section V-C-c), and a 24-byte share of the
#: double-buffered pixel batch staging.
DEGRIDDER_SHARED_BYTES = 64

#: Bytes of one 4-polarisation complex64 value.
_VIS_BYTES = 4 * 8
_UVW_BYTES = 3 * 4

#: Real FMAs per pixel of the 2x2 A-term sandwich (two complex 2x2 matrix
#: products); with one correlation it is two complex multiplies.
_SANDWICH_FMAS: Final = {4: 112, 1: 8}


@dataclass(frozen=True)
class KernelCounts:
    """Operation/byte totals for one kernel over a whole plan.

    Attributes
    ----------
    name:
        Kernel name (gridder / degridder / subgrid-fft / adder / splitter).
    fmas:
        Real fused multiply-add count.
    sincos_evals:
        Sine+cosine pair evaluations.
    bytes_device:
        Bytes moved from/to device (main) memory.
    bytes_shared:
        Bytes moved through GPU shared memory (0 for CPU-style kernels).
    visibilities:
        Visibilities processed (for MVis/s throughput).
    n_subgrids:
        Work items processed.
    """

    name: str
    fmas: float
    sincos_evals: float
    bytes_device: float
    bytes_shared: float
    visibilities: float
    n_subgrids: int

    @property
    def ops(self) -> float:
        """Paper op metric: FMA = 2 ops, sincos = 2 ops (sin + cos)."""
        return 2.0 * self.fmas + 2.0 * self.sincos_evals

    @property
    def flops(self) -> float:
        """Classic flop metric (sincos excluded): 2 per FMA."""
        return 2.0 * self.fmas

    @property
    def rho(self) -> float:
        """FMA : sincos mix (17 for the gridder/degridder, inf otherwise)."""
        if self.sincos_evals == 0:
            return float("inf")
        return self.fmas / self.sincos_evals

    @property
    def operational_intensity(self) -> float:
        """Ops per device-memory byte (Fig 11 x-axis)."""
        return self.ops / self.bytes_device if self.bytes_device else float("inf")

    @property
    def shared_intensity(self) -> float:
        """Ops per shared-memory byte (Fig 13 x-axis)."""
        return self.ops / self.bytes_shared if self.bytes_shared else float("inf")


def _check_correlations(correlations: int) -> int:
    if correlations not in (1, 4):
        raise ValueError(f"correlations must be 1 or 4, got {correlations}")
    return correlations


def _fmas_per_pixel_vis(correlations: int) -> int:
    """The phase FMA plus one complex multiply-add (4 FMAs) per
    correlation: 17 for four correlations, 5 for one."""
    return 1 + 4 * correlations


def _correction_fmas(correlations: int, with_aterms: bool) -> int:
    """Per-pixel FMAs of the taper (one complex scale per correlation) and
    the optional A-term sandwich."""
    return 2 * correlations + (_SANDWICH_FMAS[correlations] if with_aterms else 0)


def _pixel_vis_products(plan: Plan) -> tuple[float, float]:
    """(sum of N^2 * M over work items, total gridded visibilities)."""
    n2 = float(plan.subgrid_size * plan.subgrid_size)
    items = plan.items
    m = (items["time_end"] - items["time_start"]).astype(np.float64) * (
        items["channel_end"] - items["channel_start"]
    ).astype(np.float64)
    return float(n2 * m.sum()), float(m.sum())


def gridder_counts(
    plan: Plan, with_aterms: bool = False, correlations: int = 4
) -> KernelCounts:
    """Algorithm 1 totals for the whole plan, at ``correlations`` (4 or 1)
    complex values per visibility and subgrid pixel."""
    vis_bytes = _VIS_BYTES * _check_correlations(correlations) // 4
    pixel_vis, n_vis = _pixel_vis_products(plan)
    n2 = plan.subgrid_size**2
    k = plan.n_subgrids
    # corrections: taper multiply (a complex scale per correlation) and,
    # optionally, the A-term sandwich.
    corrections = k * n2 * _correction_fmas(correlations, with_aterms)
    per_item_bytes = (
        n_vis * (vis_bytes + _UVW_BYTES / max(plan.n_channels, 1))  # vis + uvw reads
        + k * n2 * vis_bytes  # subgrid writes
        + k * n2 * 4  # taper read
        + (2 * k * n2 * vis_bytes if with_aterms else 0)
    )
    return KernelCounts(
        name="gridder",
        fmas=_fmas_per_pixel_vis(correlations) * pixel_vis + corrections,
        sincos_evals=pixel_vis,
        bytes_device=per_item_bytes,
        bytes_shared=(GRIDDER_SHARED_BYTES - _VIS_BYTES + vis_bytes) * pixel_vis,
        visibilities=n_vis,
        n_subgrids=k,
    )


def degridder_counts(
    plan: Plan, with_aterms: bool = False, correlations: int = 4
) -> KernelCounts:
    """Algorithm 2 totals for the whole plan, at ``correlations`` (4 or 1)
    complex values per visibility and subgrid pixel."""
    vis_bytes = _VIS_BYTES * _check_correlations(correlations) // 4
    pixel_vis, n_vis = _pixel_vis_products(plan)
    n2 = plan.subgrid_size**2
    k = plan.n_subgrids
    corrections = k * n2 * _correction_fmas(correlations, with_aterms)
    per_item_bytes = (
        n_vis * (vis_bytes + _UVW_BYTES / max(plan.n_channels, 1))  # vis writes + uvw
        + k * n2 * vis_bytes  # subgrid reads
        + k * n2 * 4
        + (2 * k * n2 * vis_bytes if with_aterms else 0)
    )
    return KernelCounts(
        name="degridder",
        fmas=_fmas_per_pixel_vis(correlations) * pixel_vis + corrections,
        sincos_evals=pixel_vis,
        bytes_device=per_item_bytes,
        bytes_shared=(DEGRIDDER_SHARED_BYTES - _VIS_BYTES + vis_bytes) * pixel_vis,
        visibilities=n_vis,
        n_subgrids=k,
    )


def subgrid_fft_counts(plan: Plan, correlations: int = 4) -> KernelCounts:
    """One N x N complex FFT per subgrid and correlation (four for the
    polarisation products, one for Stokes I alone)."""
    vis_bytes = _VIS_BYTES * _check_correlations(correlations) // 4
    n = plan.subgrid_size
    k = plan.n_subgrids
    _, n_vis = _pixel_vis_products(plan)
    # 2-D complex FFT: 2N length-N transforms, 5 N log2 N flops each.
    flops = k * correlations * 2 * n * 5.0 * n * np.log2(n)
    return KernelCounts(
        name="subgrid-fft",
        fmas=flops / 2.0,
        sincos_evals=0.0,
        bytes_device=k * 2.0 * n * n * vis_bytes,  # read + write
        bytes_shared=0.0,
        visibilities=n_vis,
        n_subgrids=k,
    )


def adder_counts(plan: Plan, correlations: int = 4) -> KernelCounts:
    """Adder: read-modify-write of the grid region under every subgrid, on
    ``correlations`` (4 or 1) grid planes."""
    vis_bytes = _VIS_BYTES * _check_correlations(correlations) // 4
    n2 = plan.subgrid_size**2
    k = plan.n_subgrids
    _, n_vis = _pixel_vis_products(plan)
    return KernelCounts(
        name="adder",
        # one complex add (2 real adds = 1 FMA-equivalent) per correlation
        fmas=k * n2 * float(correlations),
        sincos_evals=0.0,
        bytes_device=k * n2 * vis_bytes * 3.0,  # read subgrid, read+write grid
        bytes_shared=0.0,
        visibilities=n_vis,
        n_subgrids=k,
    )


def splitter_counts(plan: Plan) -> KernelCounts:
    """Splitter: pure copy from the grid into subgrid buffers."""
    n2 = plan.subgrid_size**2
    k = plan.n_subgrids
    _, n_vis = _pixel_vis_products(plan)
    return KernelCounts(
        name="splitter",
        fmas=0.0,
        sincos_evals=0.0,
        bytes_device=k * n2 * _VIS_BYTES * 2.0,  # read grid, write subgrid
        bytes_shared=0.0,
        visibilities=n_vis,
        n_subgrids=k,
    )


def wprojection_counts(
    n_visibilities: float, support: int, oversample: int = 8
) -> KernelCounts:
    """W-projection gridding totals (the WPG comparator of Fig 16).

    Per visibility: 4 polarisations x ``support**2`` cells x one complex
    multiply-add (4 real FMAs); no sine/cosine in the hot loop — the kernels
    are precomputed.  Device traffic per cell: one complex64 kernel value
    (8 B) plus the 4-polarisation atomic grid update (32 B written; Romein's
    work distribution accumulates per-thread in registers, so the grid is
    not read back).  That traffic is what saturates WPG at small supports —
    the reason the paper's Fig 16 shows IDG "outperform[ing] WPG
    significantly" precisely where kernels are small.
    """
    if support <= 0:
        raise ValueError("support must be positive")
    cells = float(n_visibilities) * support * support
    return KernelCounts(
        name=f"wpg-{support}",
        fmas=16.0 * cells,
        sincos_evals=0.0,
        bytes_device=cells * (8.0 + _VIS_BYTES),  # kernel load + grid update
        bytes_shared=cells * 8.0,
        visibilities=float(n_visibilities),
        n_subgrids=0,
    )


def idg_synthetic_counts(
    n_visibilities: float,
    subgrid_size: int,
    visibilities_per_subgrid: float = 1024.0,
    with_aterms: bool = False,
) -> KernelCounts:
    """Gridder counts for a hypothetical subgrid size (Fig 16's IDG lines).

    The Fig 16 comparison varies the required kernel support: IDG must use
    subgrids at least as large as the support (Section IV), so its
    per-visibility cost is ``36 * subgrid_size**2`` ops.  This helper builds
    the counts without constructing a plan, assuming a given mean subgrid
    occupancy (the benchmark plan's real occupancy is ~1000-2000).
    """
    if subgrid_size <= 0:
        raise ValueError("subgrid_size must be positive")
    if visibilities_per_subgrid <= 0:
        raise ValueError("visibilities_per_subgrid must be positive")
    n2 = float(subgrid_size * subgrid_size)
    pixel_vis = n2 * n_visibilities
    n_subgrids = max(1, int(round(n_visibilities / visibilities_per_subgrid)))
    corrections = n_subgrids * n2 * (8 + (112 if with_aterms else 0))
    bytes_device = (
        n_visibilities * (_VIS_BYTES + _UVW_BYTES / 16.0)
        + n_subgrids * n2 * _VIS_BYTES
        + n_subgrids * n2 * 4
        + (2 * n_subgrids * n2 * _VIS_BYTES if with_aterms else 0)
    )
    return KernelCounts(
        name=f"idg-{subgrid_size}",
        fmas=FMAS_PER_PIXEL_VIS * pixel_vis + corrections,
        sincos_evals=pixel_vis,
        bytes_device=bytes_device,
        bytes_shared=GRIDDER_SHARED_BYTES * pixel_vis,
        visibilities=float(n_visibilities),
        n_subgrids=n_subgrids,
    )
