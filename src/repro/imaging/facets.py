"""Faceted imaging geometry: tiling the field into phase-rotated sub-images.

Faceting (Cornwell & Perley 1992, and the ``invert_by_image_partitions``
path of ARL's ftprocessor) splits a wide field into an ``n x n`` grid of
*facets*.  Each facet is imaged on its own small grid after phase-rotating
the visibilities so the facet centre becomes the phase centre:

``V' = V * exp(+2*pi*i * (u*l0 + v*m0 + w*(n0 - 1)))``,
``n0 = sqrt(1 - l0**2 - m0**2)``,

which shifts the sky by ``(-l0, -m0)``, bringing the facet to the image
centre where the w-term error of a small flat grid is smallest.  Prediction
de-rotates with the conjugate phasor.  The final image is the mosaic of the
facets' central tiles.

Geometry conventions (matching :mod:`repro.kernels.fft` rasters): image row
corresponds to ``m``, column to ``l``; a source at direction ``(l, m)``
appears at pixel ``(m/dl + G/2, l/dl + G/2)``.  All facets share the master
pixel scale, so their uv extent — ``1/pixel_scale`` — equals the master's
and the same visibilities grid onto every facet without rescaling.  Because
every facet's small grid is tangent to the same (l, m) plane, the phase
rotation alone leaves a ``w``-term error that is first-order in the offset
from the facet centre; :func:`facet_shifted_uvw` absorbs that linear term
into per-facet (u, v) shifts — the Cornwell & Perley trick — leaving only
second-order curvature mismatch, which vanishes at w = 0 and shrinks
quadratically with facet size (DESIGN.md §16 quantifies it).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.kernels.wkernel import n_term
from repro.core.pipeline import IDG
from repro.gridspec import GridSpec

__all__ = [
    "Facet",
    "FacetScheme",
    "embed_tile",
    "extract_tile",
    "facet_idg",
    "facet_rotation_phasor",
    "facet_shifted_uvw",
    "plan_facets",
]


@dataclass(frozen=True)
class Facet:
    """One tile of the facet decomposition.

    Attributes
    ----------
    index:
        ``(row, col)`` position in the facet grid.
    l0, m0:
        Direction cosines of the facet centre (the rotation target).
    row0, col0:
        Origin of this facet's tile in the master image (pixels).
    """

    index: tuple[int, int]
    l0: float
    m0: float
    row0: int
    col0: int


@dataclass(frozen=True)
class FacetScheme:
    """A full facet decomposition of a master grid.

    Attributes
    ----------
    master:
        The master grid geometry being tiled.
    n_facets:
        Facets per axis (``n_facets**2`` facets total).
    tile_size:
        Master-image pixels per facet tile (``grid_size / n_facets``).
    gridspec:
        The (shared) facet grid: ``tile_size`` padded by ``padding`` at the
        master pixel scale.  All facets use this one geometry.
    facets:
        The tiles, row-major.
    """

    master: GridSpec
    n_facets: int
    tile_size: int
    gridspec: GridSpec
    facets: tuple[Facet, ...]


def plan_facets(master: GridSpec, n_facets: int, padding: float = 1.5) -> FacetScheme:
    """Tile a master grid into ``n_facets x n_facets`` padded facets.

    ``padding`` oversizes each facet grid relative to its tile so sources
    near a tile edge stay away from the facet grid's own aliasing margin
    (the taper correction blows up near facet-image edges exactly as it
    does on the master grid).
    """
    if n_facets <= 0:
        raise ValueError("n_facets must be positive")
    if padding < 1.0:
        raise ValueError("padding must be >= 1")
    g = master.grid_size
    if g % n_facets:
        raise ValueError(
            f"grid size {g} is not divisible into {n_facets} facets per axis"
        )
    tile = g // n_facets
    if tile % 2:
        raise ValueError(
            f"facet tile size {tile} must be even (grid {g} / {n_facets} facets)"
        )
    facet_grid = int(np.ceil(tile * padding / 2.0)) * 2
    facet_grid = min(facet_grid, g)
    dl = master.pixel_scale
    gridspec = GridSpec(grid_size=facet_grid, image_size=facet_grid * dl)
    facets = []
    for fi in range(n_facets):
        for fj in range(n_facets):
            row_c = fi * tile + tile // 2
            col_c = fj * tile + tile // 2
            facets.append(
                Facet(
                    index=(fi, fj),
                    l0=(col_c - g // 2) * dl,
                    m0=(row_c - g // 2) * dl,
                    row0=fi * tile,
                    col0=fj * tile,
                )
            )
    return FacetScheme(
        master=master,
        n_facets=n_facets,
        tile_size=tile,
        gridspec=gridspec,
        facets=tuple(facets),
    )


def facet_rotation_phasor(
    uvw_m: np.ndarray,
    frequencies_hz: np.ndarray,
    l0: float,
    m0: float,
    sign: float,
) -> np.ndarray:
    """Per-visibility phase rotation to/from a facet centre.

    Returns ``exp(sign * 2*pi*i * (u*l0 + v*m0 + w*n0))`` with
    ``n0 = n_term(l0, m0) = 1 - sqrt(1 - l0**2 - m0**2)`` — the exact
    conjugate of this package's measurement-equation phase
    ``exp(-2*pi*i*(u*l + v*m + w*n_term(l, m)))`` evaluated at the facet
    centre — of shape ``(n_baselines, n_times, n_channels)``.  ``sign=+1``
    rotates measured visibilities so the facet centre becomes the phase
    centre (imaging); ``sign=-1`` restores the original phase centre
    (prediction).
    """
    frequencies_hz = np.atleast_1d(np.asarray(frequencies_hz, dtype=np.float64))
    scale = frequencies_hz / SPEED_OF_LIGHT  # (C,)
    n0 = float(n_term(np.float64(l0), np.float64(m0)))
    # (n_bl, T, C) path length in wavelengths
    path = (
        uvw_m[:, :, 0, np.newaxis] * l0
        + uvw_m[:, :, 1, np.newaxis] * m0
        + uvw_m[:, :, 2, np.newaxis] * n0
    ) * scale
    # exp(sign * 2j * pi * path), its phase and exponential formed in one
    # complex128 buffer instead of two
    phasor = np.multiply(sign * 2.0j * np.pi, path)
    del path
    return np.exp(phasor, out=phasor)


def facet_shifted_uvw(uvw_m: np.ndarray, facet: Facet) -> np.ndarray:
    """uvw with the first-order facet w term absorbed into (u, v).

    The phase rotation of :func:`facet_rotation_phasor` leaves a residual
    ``w * (n_term(l) - n_term(l_c))`` in the data, while the facet's gridder
    models ``w * n_term(l - l_c)`` — these agree at the facet centre but
    differ at first order in the offset, with slope ``d n_term/dl|_c = l_c /
    sqrt(1 - l_c^2 - m_c^2)``.  Shifting ``u += w * d n_term/dl`` and ``v +=
    w * d n_term/dm`` (the Cornwell & Perley faceting trick) absorbs that
    linear term into the geometry, leaving only second-order curvature
    mismatch.  The shift is per facet, so each facet grids with its own
    (slightly different) uvw set — and hence its own plan.
    """
    s0 = float(np.sqrt(max(1e-12, 1.0 - facet.l0**2 - facet.m0**2)))
    a = facet.l0 / s0
    b = facet.m0 / s0
    if a == 0.0 and b == 0.0:
        return uvw_m
    out = np.array(uvw_m, dtype=np.float64, copy=True)
    # rotated data phase ~ exp(-2*pi*i*((u + w*a)*l' + (v + w*b)*m')): the
    # effective baseline the facet grid sees is (u + w*a, v + w*b)
    out[:, :, 0] += a * uvw_m[:, :, 2]
    out[:, :, 1] += b * uvw_m[:, :, 2]
    return out


def extract_tile(facet_image: np.ndarray, scheme: FacetScheme, facet: Facet) -> np.ndarray:
    """The central ``tile_size`` block of a facet image — the unpadded part
    that lands in the mosaic.  Works on any ``(..., Gf, Gf)`` stack."""
    gf = scheme.gridspec.grid_size
    if facet_image.shape[-2:] != (gf, gf):
        raise ValueError(
            f"facet image pixel axes {facet_image.shape[-2:]} != ({gf}, {gf})"
        )
    half = scheme.tile_size // 2
    lo = gf // 2 - half
    hi = gf // 2 + half
    return facet_image[..., lo:hi, lo:hi]


def embed_tile(model_image: np.ndarray, scheme: FacetScheme, facet: Facet) -> np.ndarray:
    """Lift one facet's tile out of a master model image onto the (padded)
    facet grid, centred — the model this facet predicts from.

    ``model_image`` is ``(..., G, G)`` on the master raster; the returned
    array is ``(..., Gf, Gf)`` with the tile centred and the padding zero.
    """
    g = scheme.master.grid_size
    if model_image.shape[-2:] != (g, g):
        raise ValueError(
            f"model image pixel axes {model_image.shape[-2:]} != ({g}, {g})"
        )
    gf = scheme.gridspec.grid_size
    tile = scheme.tile_size
    out = np.zeros(model_image.shape[:-2] + (gf, gf), dtype=model_image.dtype)
    half = tile // 2
    lo = gf // 2 - half
    out[..., lo : lo + tile, lo : lo + tile] = model_image[
        ..., facet.row0 : facet.row0 + tile, facet.col0 : facet.col0 + tile
    ]
    return out


def facet_idg(idg: IDG, scheme: FacetScheme) -> IDG:
    """An IDG facade for the facet grid, config clamped to fit.

    The subgrid must fit inside the (small) facet grid with its kernel
    margin; keep the master ratio of support to subgrid where possible.
    """
    gf = scheme.gridspec.grid_size
    subgrid = min(idg.config.subgrid_size, max(8, gf // 2))
    if subgrid % 2:
        subgrid -= 1
    support = min(idg.config.kernel_support, max(2, subgrid // 3))
    return IDG(
        scheme.gridspec,
        replace(idg.config, subgrid_size=subgrid, kernel_support=support),
    )
