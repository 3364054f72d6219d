"""Literal, loop-level transcriptions of the paper's Algorithms 1 and 2.

These run orders of magnitude slower than the vectorised kernels and exist
purely as oracles: the ``reference`` kernel backend runs them, and tests
compare :mod:`repro.core.gridder` / :mod:`repro.core.degridder` against them
on small work items, pinning the vectorised code to the published pseudocode
line by line.

The loop structure mirrors the pseudocode exactly: the gridder iterates
pixels (y, x) outermost then visibilities (t, c), evaluating one sine/cosine
pair per (pixel, visibility) followed by the multiply-add over the ``a x a``
correlations (the paper's four polarisations for ``a = 2``, the Stokes-I
sample alone for ``a = 1``); the degridder iterates visibilities outermost
then pixels.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.contracts import shape_checked
from repro.aterms.jones import apply_adjoint_sandwich, apply_sandwich, identity_jones_field
from repro.constants import ACCUM_DTYPE, SPEED_OF_LIGHT
from repro.kernels.fft import image_coordinates


@shape_checked(
    uvw_m="(n_times, 3)",
    frequencies_hz="(n_channels,)",
    returns="(n_times * n_channels, 3)",
)
def relative_uvw_wavelengths(
    uvw_m: np.ndarray,
    frequencies_hz: np.ndarray,
    u_mid: float,
    v_mid: float,
    w_offset: float = 0.0,
) -> np.ndarray:
    """uvw of a visibility block relative to the subgrid centre, in wavelengths.

    Parameters
    ----------
    uvw_m:
        ``(n_times, 3)`` uvw in metres for the work item's timesteps.
    frequencies_hz:
        ``(n_channels,)`` frequencies for the work item's channels.

    Returns
    -------
    ``(n_times * n_channels, 3)`` array, time-major (channel fastest), with
    ``(u - u_mid, v - v_mid, w - w_offset)`` per visibility.
    """
    scale = np.asarray(frequencies_hz, dtype=np.float64) / SPEED_OF_LIGHT  # (C,)
    uvw_wl = uvw_m[:, np.newaxis, :] * scale[np.newaxis, :, np.newaxis]  # (T, C, 3)
    rel = uvw_wl.reshape(-1, 3).copy()
    rel[:, 0] -= u_mid
    rel[:, 1] -= v_mid
    rel[:, 2] -= w_offset
    return rel


def reference_gridder(
    visibilities: np.ndarray,
    uvw_rel_wl: np.ndarray,
    subgrid_size: int,
    image_size: float,
    taper: np.ndarray,
    aterm_p: np.ndarray | None = None,
    aterm_q: np.ndarray | None = None,
) -> np.ndarray:
    """Algorithm 1, executed with explicit Python loops.

    ``visibilities`` is the ``(M, a, a)`` (or ``(M, a**2)``) block of one
    work item with ``a`` 1 or 2, ``uvw_rel_wl`` its ``(M, 3)`` relative uvw
    (:func:`relative_uvw_wavelengths`), ``taper`` the ``(N, N)`` taper and
    ``aterm_p``/``aterm_q`` optional ``(N, N, a, a)`` Jones fields
    (``None`` = identity).  Returns the ``(N, N, a, a)`` subgrid.
    """
    coords = image_coordinates(subgrid_size, image_size)
    m_total = uvw_rel_wl.shape[0]
    vis = np.asarray(visibilities).reshape(m_total, -1)
    a = math.isqrt(vis.shape[1])
    vis = vis.reshape(m_total, a, a)
    subgrid = np.zeros((subgrid_size, subgrid_size, a, a), dtype=ACCUM_DTYPE)

    for y in range(subgrid_size):
        for x in range(subgrid_size):
            l = coords[x]
            m = coords[y]
            n = 1.0 - math.sqrt(max(0.0, 1.0 - l * l - m * m))
            pixel = np.zeros((a, a), dtype=ACCUM_DTYPE)  # idglint: disable=IDG003  (oracle: mirrors pseudocode)
            for k in range(m_total):
                u, v, w = uvw_rel_wl[k]
                # Line 7 of Algorithm 1: alpha = f(x, y) . g(u, v, w)
                alpha = 2.0 * math.pi * (u * l + v * m + w * n)
                phi = complex(math.cos(alpha), math.sin(alpha))
                # Lines 9-13: the multiply-add over the correlations
                for p in range(a):
                    for q in range(a):
                        pixel[p, q] += phi * vis[k, p, q]
            subgrid[y, x] = pixel

    # apply_aterm(S); apply_spheroidal(S)  (adjoint direction)
    if aterm_p is not None or aterm_q is not None:
        identity = identity_jones_field(subgrid_size, a=a)
        a_p = aterm_p if aterm_p is not None else identity
        a_q = aterm_q if aterm_q is not None else identity
        subgrid = apply_adjoint_sandwich(a_p, subgrid, a_q)
    subgrid = subgrid * taper[:, :, np.newaxis, np.newaxis]
    return subgrid


def reference_degridder(
    subgrid_image: np.ndarray,
    uvw_rel_wl: np.ndarray,
    image_size: float,
    taper: np.ndarray,
    aterm_p: np.ndarray | None = None,
    aterm_q: np.ndarray | None = None,
) -> np.ndarray:
    """Algorithm 2, executed with explicit Python loops.

    ``subgrid_image`` is one ``(N, N, a, a)`` subgrid; returns the
    ``(M, a, a)`` predicted visibilities.
    """
    subgrid_size, a = subgrid_image.shape[0], subgrid_image.shape[-1]
    coords = image_coordinates(subgrid_size, image_size)

    corrected = subgrid_image.astype(ACCUM_DTYPE)
    # apply_spheroidal(S); apply_aterm(S)  (forward direction)
    if aterm_p is not None or aterm_q is not None:
        identity = identity_jones_field(subgrid_size, a=a)
        a_p = aterm_p if aterm_p is not None else identity
        a_q = aterm_q if aterm_q is not None else identity
        corrected = apply_sandwich(a_p, corrected, a_q)
    corrected = corrected * taper[:, :, np.newaxis, np.newaxis]

    m_total = uvw_rel_wl.shape[0]
    out = np.zeros((m_total, a, a), dtype=ACCUM_DTYPE)
    for k in range(m_total):
        u, v, w = uvw_rel_wl[k]
        acc = np.zeros((a, a), dtype=ACCUM_DTYPE)  # idglint: disable=IDG003  (oracle: mirrors pseudocode)
        for y in range(subgrid_size):
            for x in range(subgrid_size):
                l = coords[x]
                m = coords[y]
                n = 1.0 - math.sqrt(max(0.0, 1.0 - l * l - m * m))
                # Line 8 of Algorithm 2 (note the negated phase)
                alpha = -2.0 * math.pi * (u * l + v * m + w * n)
                phi = complex(math.cos(alpha), math.sin(alpha))
                for p in range(a):
                    for q in range(a):
                        acc[p, q] += phi * corrected[y, x, p, q]
        out[k] = acc
    return out
