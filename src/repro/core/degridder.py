"""The degridder kernel (paper Algorithm 2), vectorised over buckets of subgrids.

The degridder is the forward direction: given an image-domain subgrid (split
from the model grid and inverse-FFT'd), it first applies the taper and the
measurement-equation A-term sandwich ``A_p S A_q^H`` per pixel, then predicts
every visibility of the work item as

``V(t, c) = sum_{y,x} S_corr(y, x) * exp(-2*pi*i * ((u-u_mid) l_x
+ (v-v_mid) m_y + (w-w_off) n(l_x, m_y)))``

— the exact conjugate of the gridder's phase, making gridding/degridding an
adjoint pair (a property the test suite checks as an inner-product identity).
As in the gridder, a whole bucket of identically shaped work items is
evaluated at once, and the hot loop is one stacked
``phasor(G, M, N**2) @ S(G, N**2, 4)`` complex matrix product plus the
sine/cosine evaluation.  :func:`degridder_bucket_fast` uses the
channel-phasor recurrence (evenly spaced channels);
:func:`degridder_bucket` is the direct sum.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.contracts import shape_checked
from repro.aterms.jones import apply_sandwich
from repro.constants import ACCUM_DTYPE
from repro.core.gridder import (
    PHASOR_RENORM_INTERVAL,
    _offset_phase_matrix,
    _phase_tensor,
    _sincos_into,
)
from repro.core.scratch import ScratchArena, thread_arena


def _corrected_pixels_bucket(
    subgrid_images: np.ndarray,
    taper: np.ndarray,
    aterm_p: np.ndarray | None,
    aterm_q: np.ndarray | None,
    arena: ScratchArena,
) -> np.ndarray:
    """Taper + A-term-corrected pixels of a bucket, as ``(G, N**2, 4)``
    complex128 (the shared preamble of both batched degridder kernels)."""
    g_total, n = subgrid_images.shape[:2]
    corrected = arena.take("degridder.corrected", (g_total, n, n, 2, 2), ACCUM_DTYPE)
    corrected[...] = subgrid_images
    if aterm_p is not None or aterm_q is not None:
        corrected = apply_sandwich(aterm_p, corrected, aterm_q)
    corrected *= taper[np.newaxis, :, :, np.newaxis, np.newaxis]
    return corrected.reshape(g_total, n * n, 4)


@shape_checked(
    subgrid_images="(G, N, N, 2, 2)",
    uvw_m="(G, T, 3)",
    scale0="(G,)",
    offsets="(G, 3)",
    lmn="(N**2, 3)",
    taper="(N, N)",
    aterm_p="(G, N, N, 2, 2)",
    aterm_q="(G, N, N, 2, 2)",
    returns="(G, T, C, 4)",
)
def degridder_bucket_fast(
    subgrid_images: np.ndarray,
    uvw_m: np.ndarray,
    scale0: np.ndarray,
    ds: float,
    n_channels: int,
    offsets: np.ndarray,
    lmn: np.ndarray,
    taper: np.ndarray,
    aterm_p: np.ndarray | None = None,
    aterm_q: np.ndarray | None = None,
    arena: ScratchArena | None = None,
) -> np.ndarray:
    """Algorithm 2 with the channel phasor recurrence, over a whole bucket.

    The exact phase conjugate of
    :func:`repro.core.gridder.gridder_bucket_fast` (same phase separation
    and recurrence), with one
    stacked ``(G, T, N**2) @ (G, N**2, 4)`` matrix product per channel step
    and the recurrence applied in place on arena buffers.

    Parameters
    ----------
    subgrid_images:
        ``(G, N, N, 2, 2)`` stacked image-domain subgrids.
    uvw_m:
        ``(G, T, 3)`` stacked uvw in metres.
    scale0:
        ``(G,)`` first-channel ``f/c`` per item.
    ds:
        Shared channel step of the ``f/c`` ladder (0 for one channel).
    n_channels:
        Channels per item (``C`` of the bucket shape).
    offsets:
        ``(G, 3)`` per-item subgrid offsets ``u_mid, v_mid, w_offset`` in
        wavelengths.
    lmn, taper, aterm_p, aterm_q:
        As in :func:`gridder_bucket_fast`.
    arena:
        Scratch arena (defaults to the calling thread's).

    Returns
    -------
    ``(G, T, C, 4)`` complex128 predicted visibilities (an arena view —
    the work-group driver scatters it into the output before the next
    batched call on this thread).
    """
    g_total, t_total = uvw_m.shape[:2]
    n_pixels2 = lmn.shape[0]
    if arena is None:
        arena = thread_arena()
    pixels = _corrected_pixels_bucket(subgrid_images, taper, aterm_p, aterm_q, arena)

    base = _phase_tensor(lmn, uvw_m, arena, "bucket.base")
    offset_phase = _offset_phase_matrix(lmn, offsets, arena, "bucket.offset_phase")
    phase = arena.take("bucket.phase", (g_total, n_pixels2, t_total), np.float64)
    phasor = arena.take("bucket.phasor", (g_total, n_pixels2, t_total), ACCUM_DTYPE)
    # conjugate of the gridding phasor: exp(-1j (s0 base - offset))
    np.multiply(base, scale0[:, np.newaxis, np.newaxis], out=phase)
    np.subtract(offset_phase[:, :, np.newaxis], phase, out=phase)
    _sincos_into(phase, phasor)
    if n_channels > 1:
        step = arena.take("bucket.step", (g_total, n_pixels2, t_total), ACCUM_DTYPE)
        np.multiply(base, -ds, out=phase)
        _sincos_into(phase, step)

    out = arena.take("degridder.out", (g_total, t_total, n_channels, 4), ACCUM_DTYPE)
    prod = arena.take("degridder.prod", (g_total, t_total, 4), ACCUM_DTYPE)
    phasor_t = np.swapaxes(phasor, 1, 2)
    np.matmul(phasor_t, pixels, out=prod)
    out[:, :, 0] = prod
    for c in range(1, n_channels):
        np.multiply(phasor, step, out=phasor)
        if c % PHASOR_RENORM_INTERVAL == 0:
            # same magnitude-drift guard as the gridder bucket kernel
            np.abs(phasor, out=phase)
            phasor /= phase
        np.matmul(phasor_t, pixels, out=prod)
        out[:, :, c] = prod
    return out


@shape_checked(
    subgrid_images="(G, N, N, 2, 2)",
    uvw_rel_wl="(G, M, 3)",
    lmn="(N**2, 3)",
    taper="(N, N)",
    aterm_p="(G, N, N, 2, 2)",
    aterm_q="(G, N, N, 2, 2)",
    returns="(G, M, 4)",
)
def degridder_bucket(
    subgrid_images: np.ndarray,
    uvw_rel_wl: np.ndarray,
    lmn: np.ndarray,
    taper: np.ndarray,
    aterm_p: np.ndarray | None = None,
    aterm_q: np.ndarray | None = None,
    arena: ScratchArena | None = None,
) -> np.ndarray:
    """Algorithm 2 as a direct sum, over a whole bucket.

    One broadcast matmul for the stacked ``(G, M, N**2)`` phase, one
    batched sine/cosine evaluation, one stacked
    ``(G, M, N**2) @ (G, N**2, 4)`` matrix product.

    Parameters
    ----------
    subgrid_images:
        ``(G, N, N, 2, 2)`` stacked image-domain subgrids.
    uvw_rel_wl:
        ``(G, M, 3)`` stacked relative uvw in wavelengths.
    lmn, taper, aterm_p, aterm_q:
        As in :func:`gridder_bucket_fast`.
    arena:
        Scratch arena (defaults to the calling thread's).

    Returns
    -------
    ``(G, M, 4)`` complex128 predicted visibilities (an arena view).
    """
    g_total, m_total = uvw_rel_wl.shape[:2]
    n_pixels2 = lmn.shape[0]
    if arena is None:
        arena = thread_arena()
    pixels = _corrected_pixels_bucket(subgrid_images, taper, aterm_p, aterm_q, arena)

    phase = arena.take("bucket.phase", (g_total, m_total, n_pixels2), np.float64)
    np.matmul(uvw_rel_wl, lmn.T, out=phase)
    phase *= -2.0 * np.pi
    phasor = arena.take("bucket.phasor", (g_total, m_total, n_pixels2), ACCUM_DTYPE)
    _sincos_into(phase, phasor)

    out = arena.take("degridder.out", (g_total, m_total, 4), ACCUM_DTYPE)
    np.matmul(phasor, pixels, out=out)
    return out
