"""W-projection gridding (Cornwell, Golap & Bhatnagar 2008; WPG of [19]).

Every visibility is convolved onto the master grid with an ``N_W x N_W``
kernel: the Fourier transform of the anti-aliasing taper times the w phase
screen for the visibility's w (quantised to a configurable number of
*w planes*).  The kernel table is oversampled (default 8x, as in the paper's
WPG comparison) to handle fractional cell offsets.

Per-visibility cost is ``4 * N_W**2`` complex multiply-adds versus IDG's
amortised per-pixel sums — the trade-off Fig 16 sweeps over ``N_W``.  Kernel
*storage* scales as ``n_planes * oversample**2 * N_W**2``, the memory cost
(quadratic in support and oversampling) that Section III holds against
traditional gridding.

The implementation vectorises over visibility chunks: fancy-indexed kernel
gathers, an outer product with the 4 polarisations, and a scatter-add
(``np.add.at``) into the grid — the NumPy analogue of the atomic adds a GPU
gridder performs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import COMPLEX_DTYPE, SPEED_OF_LIGHT
from repro.gridspec import GridSpec
from repro.kernels.convolution import OversampledKernel, _oversample_image_function
from repro.kernels.spheroidal import spheroidal_taper
from repro.kernels.wkernel import w_kernel_image


@dataclass(frozen=True)
class _FlatVisibilities:
    """Per-visibility quantities shared by grid and degrid paths."""

    cell_u: np.ndarray  # (M,) int grid cell
    cell_v: np.ndarray
    sub_u: np.ndarray  # (M,) int oversampled fractional index
    sub_v: np.ndarray
    plane: np.ndarray  # (M,) int w-plane index
    inside: np.ndarray  # (M,) bool — kernel footprint fits on the grid


class WProjectionGridder:
    """Convolutional gridder/degridder with w-plane kernels.

    Parameters
    ----------
    gridspec:
        Master grid geometry (shared with IDG for apples-to-apples tests).
    support:
        Kernel width ``N_W`` in uv cells.
    oversample:
        Fractional-offset table resolution (the paper's WPG uses 8).
    n_w_planes:
        Number of w quantisation planes spanning the observed w range
        (1 = pure anti-aliasing kernel, i.e. w correction disabled).
    kernel_raster:
        Image raster used to tabulate kernels.
    """

    def __init__(
        self,
        gridspec: GridSpec,
        support: int = 8,
        oversample: int = 8,
        n_w_planes: int = 32,
        kernel_raster: int = 64,
        chunk: int = 4096,
    ):
        if support <= 0 or support > gridspec.grid_size:
            raise ValueError("support must be in (0, grid_size]")
        if oversample <= 0:
            raise ValueError("oversample must be positive")
        if n_w_planes <= 0:
            raise ValueError("n_w_planes must be positive")
        if kernel_raster < support:
            raise ValueError("kernel_raster must be >= support")
        self.gridspec = gridspec
        self.support = support
        self.oversample = oversample
        self.n_w_planes = n_w_planes
        self.kernel_raster = kernel_raster
        self.chunk = chunk
        self._taper = spheroidal_taper(kernel_raster)
        # kernel tables keyed by (plane_index, sign); built lazily per w range
        self._tables: dict[tuple[int, int], np.ndarray] = {}
        self._plane_centres: np.ndarray | None = None

    # -------------------------------------------------------------- planes

    def set_w_range(self, w_min: float, w_max: float) -> None:
        """Fix the w-plane centres; called automatically by grid/degrid."""
        if w_max < w_min:
            raise ValueError("w_max must be >= w_min")
        if self.n_w_planes == 1:
            centres = np.array([0.0])
        else:
            centres = np.linspace(w_min, w_max, self.n_w_planes)
        if self._plane_centres is None or not np.array_equal(centres, self._plane_centres):
            self._plane_centres = centres
            self._tables.clear()

    def _kernel_table(self, plane: int, sign: int) -> np.ndarray:
        """(O, O, S, S) kernel table for one w plane and direction.

        ``sign=+1`` is the gridding (imaging) direction: the kernel value for
        a visibility at cell offset ``delta`` and fraction ``f`` is
        ``C(delta - f)`` with ``C = FT(taper * exp(+2*pi*i*w*n))``.

        ``sign=-1`` is degridding (prediction).  Interpolation evaluates the
        prediction kernel at the *opposite* argument, ``C'(f - delta)`` with
        ``C' = FT(taper * exp(-2*pi*i*w*n))``; by the reflection identity
        ``C'(-x) = conj(C(x))`` this is simply the conjugate of the gridding
        table at the same lookup — which also makes degridding the exact
        adjoint of gridding.
        """
        key = (plane, sign)
        if key not in self._tables:
            if sign < 0:
                self._tables[key] = np.conj(self._kernel_table(plane, +1))
            else:
                w = float(self._plane_centres[plane])
                screen = w_kernel_image(
                    w, self.kernel_raster, self.gridspec.image_size, sign=+1.0
                )
                table = _oversample_image_function(
                    screen * self._taper, self.support, self.oversample
                )
                self._tables[key] = table.astype(np.complex64)
        return self._tables[key]

    def kernel_storage_bytes(self) -> int:
        """Bytes of tabulated kernels currently cached — the storage cost the
        paper's Section VI-E discussion centres on."""
        return sum(t.nbytes for t in self._tables.values())

    # ------------------------------------------------------------- helpers

    def _flatten(
        self, uvw_m: np.ndarray, frequencies_hz: np.ndarray, w_offset: float = 0.0
    ) -> tuple[_FlatVisibilities, np.ndarray]:
        """Quantise every (baseline, time, channel) visibility onto the grid.

        Returns the flat index bundle plus the w values (for plane setup).
        ``w_offset`` (wavelengths) is subtracted from every w — the hook the
        W-stacking driver uses to grid residual w per plane.
        """
        frequencies_hz = np.atleast_1d(np.asarray(frequencies_hz, dtype=np.float64))
        scale = frequencies_hz / SPEED_OF_LIGHT
        gs = self.gridspec
        g = gs.grid_size
        # (n_bl, T, C) pixel coordinates
        pu = uvw_m[:, :, 0, np.newaxis] * scale * gs.image_size + g // 2
        pv = uvw_m[:, :, 1, np.newaxis] * scale * gs.image_size + g // 2
        w_wl = uvw_m[:, :, 2, np.newaxis] * scale - w_offset

        pu, pv, w_wl = pu.ravel(), pv.ravel(), w_wl.ravel()

        def quantise(p):
            """Nearest cell + signed sub-cell index in [-O/2 + 1, +O/2].

            A fraction of ~-0.5 must not wrap onto the +O/2 sub-kernel of the
            *same* cell (a full-cell error); re-anchor it to the next lower
            cell, where it becomes a +0.5 fraction.
            """
            cell = np.rint(p).astype(np.int64)
            r = np.rint((p - cell) * self.oversample).astype(np.int64)
            wrap = r <= -(self.oversample // 2)
            cell = cell - wrap
            r = np.where(wrap, self.oversample // 2, r)
            return cell, r % self.oversample

        cell_u, sub_u = quantise(pu)
        cell_v, sub_v = quantise(pv)

        half = self.support // 2
        inside = (
            (cell_u - half >= 0)
            & (cell_u - half + self.support <= g)
            & (cell_v - half >= 0)
            & (cell_v - half + self.support <= g)
        )

        if self._plane_centres is None:
            self.set_w_range(float(w_wl.min()), float(w_wl.max()))
        centres = self._plane_centres
        if self.n_w_planes == 1:
            plane = np.zeros(w_wl.size, dtype=np.int64)
        else:
            step = centres[1] - centres[0]
            plane = np.clip(
                np.rint((w_wl - centres[0]) / step).astype(np.int64), 0, len(centres) - 1
            )
        return (
            _FlatVisibilities(cell_u, cell_v, sub_u, sub_v, plane, inside),
            w_wl,
        )

    # ------------------------------------------------------------- gridding

    def grid(
        self,
        uvw_m: np.ndarray,
        frequencies_hz: np.ndarray,
        visibilities: np.ndarray,
        grid: np.ndarray | None = None,
        w_offset: float = 0.0,
    ) -> np.ndarray:
        """Grid a ``(n_bl, T, C, a, a)`` visibility set (``a`` 2, or 1 for
        the Stokes-I sample alone); returns ``(a**2, G, G)``."""
        gs = self.gridspec
        visibilities = np.asarray(visibilities)
        k = visibilities.shape[-1] ** 2
        if grid is None:
            grid = gs.allocate_grid(k, dtype=COMPLEX_DTYPE)
        flat, w_wl = self._flatten(uvw_m, frequencies_hz, w_offset=w_offset)
        vis_flat = visibilities.reshape(-1, k)
        s = self.support
        half = s // 2
        g = gs.grid_size
        offsets = np.arange(s) - half

        grid_flat = grid.reshape(k, g * g)
        idx_all = np.flatnonzero(flat.inside)
        for start in range(0, idx_all.size, self.chunk):
            sel = idx_all[start : start + self.chunk]
            # group by w plane so each chunk uses one kernel table
            for plane in np.unique(flat.plane[sel]):
                table = self._kernel_table(int(plane), sign=+1)
                sub = sel[flat.plane[sel] == plane]
                kernels = table[flat.sub_v[sub], flat.sub_u[sub]]  # (m, S, S)
                # scatter indices: (m, S, S)
                rows = flat.cell_v[sub, np.newaxis] + offsets[np.newaxis, :]
                cols = flat.cell_u[sub, np.newaxis] + offsets[np.newaxis, :]
                cell_idx = (rows[:, :, np.newaxis] * g + cols[:, np.newaxis, :]).reshape(
                    sub.size, -1
                )
                contrib = kernels.reshape(sub.size, -1)
                for pol in range(k):
                    np.add.at(
                        grid_flat[pol],
                        cell_idx.ravel(),
                        (contrib * vis_flat[sub, pol, np.newaxis]).ravel(),
                    )
        return grid

    # ----------------------------------------------------------- degridding

    def degrid(
        self,
        uvw_m: np.ndarray,
        frequencies_hz: np.ndarray,
        grid: np.ndarray,
        w_offset: float = 0.0,
    ) -> np.ndarray:
        """Predict ``(n_bl, T, C, a, a)`` visibilities from an
        ``(a**2, G, G)`` model grid; zeros where the kernel footprint falls
        off the grid."""
        gs = self.gridspec
        g = gs.grid_size
        n_bl, n_times, _ = uvw_m.shape
        n_chan = np.atleast_1d(np.asarray(frequencies_hz)).size
        flat, _ = self._flatten(uvw_m, frequencies_hz, w_offset=w_offset)
        k = grid.shape[0]
        out = np.zeros((n_bl * n_times * n_chan, k), dtype=np.complex64)
        s = self.support
        half = s // 2
        offsets = np.arange(s) - half
        grid_flat = grid.reshape(k, g * g)

        idx_all = np.flatnonzero(flat.inside)
        for start in range(0, idx_all.size, self.chunk):
            sel = idx_all[start : start + self.chunk]
            for plane in np.unique(flat.plane[sel]):
                table = self._kernel_table(int(plane), sign=-1)
                sub = sel[flat.plane[sel] == plane]
                kernels = table[flat.sub_v[sub], flat.sub_u[sub]].reshape(sub.size, -1)
                rows = flat.cell_v[sub, np.newaxis] + offsets[np.newaxis, :]
                cols = flat.cell_u[sub, np.newaxis] + offsets[np.newaxis, :]
                cell_idx = (rows[:, :, np.newaxis] * g + cols[:, np.newaxis, :]).reshape(
                    sub.size, -1
                )
                for pol in range(k):
                    patches = grid_flat[pol][cell_idx]  # (m, S*S)
                    out[sub, pol] = (patches * kernels).sum(axis=1)
        a = 1 if k == 1 else 2
        return out.reshape(n_bl, n_times, n_chan, a, a)

    # -------------------------------------------------------------- metrics

    def flagged_mask(self, uvw_m: np.ndarray, frequencies_hz: np.ndarray) -> np.ndarray:
        """(n_bl, T, C) True where a visibility cannot be gridded."""
        n_bl, n_times, _ = uvw_m.shape
        n_chan = np.atleast_1d(np.asarray(frequencies_hz)).size
        flat, _ = self._flatten(uvw_m, frequencies_hz)
        return (~flat.inside).reshape(n_bl, n_times, n_chan)

    def operations_per_visibility(self) -> int:
        """Real multiply-add count per visibility: 4 pol x N_W^2 complex MACs
        (x4 real MACs each) — the cost model behind Fig 16."""
        return 4 * self.support * self.support * 4
