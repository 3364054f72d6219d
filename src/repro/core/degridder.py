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
evaluated at once, and the hot loop is one stacked complex64
``S(G, K, N**2) @ phasor(G, N**2, M)`` matrix product (BLAS ``cgemm``) plus
the sine/cosine evaluation.  The phasors come from the gridder's separable
factor build (:func:`repro.core.gridder.raster_phasor`, with the phase sign
flipped): sine/cosine on ``2N + R`` l-, m- and n-factor rows per (item,
timestep) instead of on ``N**2`` pixels, so the recurrence kernel spends
``2(2N + R)`` sine/cosine pairs per (item, timestep) on its phasor and
step rather than ``2N**2``.  :func:`degridder_bucket_fast` uses the
channel-phasor recurrence (evenly spaced channels);
:func:`degridder_bucket` is the direct sum.

Precision matches the gridder: complex64 phasors, recurrence and products,
with the taper and the A-term sandwich applied to the pixels in
``ACCUM_DTYPE`` before they are rounded to ``COMPLEX_DTYPE`` for the
products.  The products put the ``K = a**2`` correlations first (four, or
one for the Stokes-I sample alone, as in the gridder): each channel is one
``(K, N**2) @ (N**2, T)`` product per item, written as a contiguous
``(K, T)`` block of a channel-major ``(G, C, K, T)`` buffer, and the kernel
returns that buffer's ``(G, T, C, K)`` transposed view.  At the default
chunk sizes for ``N = 24`` and ``T = 8, 16, 32, 96``, one channel's stacked
four-correlation product took 49-102 us this way against 101-147 us as
``(T, N**2) @ (N**2, 4)`` (2-vCPU KVM guest, Intel Xeon, OpenBLAS 0.3.31).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.contracts import shape_checked
from repro.aterms.jones import apply_sandwich
from repro.constants import ACCUM_DTYPE, COMPLEX_DTYPE, FLOAT_DTYPE
from repro.core.gridder import (
    PHASOR_RENORM_INTERVAL,
    RasterFactors,
    raster_factors,
    raster_phasor,
)
from repro.core.scratch import ScratchArena, thread_arena


def _corrected_pixels_bucket(
    subgrid_images: np.ndarray,
    taper: np.ndarray,
    aterm_p: np.ndarray | None,
    aterm_q: np.ndarray | None,
    arena: ScratchArena,
) -> np.ndarray:
    """Taper + A-term-corrected pixels of a bucket, correlation first, as
    ``(G, K, N**2)`` ``COMPLEX_DTYPE`` (the shared preamble of both batched
    degridder kernels).  The correction runs in ``ACCUM_DTYPE``; the result
    is rounded once, into the product operand."""
    g_total, n, _, a, _ = subgrid_images.shape
    corrected = arena.take("degridder.corrected", subgrid_images.shape, ACCUM_DTYPE)
    corrected[...] = subgrid_images
    if aterm_p is not None or aterm_q is not None:
        corrected = apply_sandwich(aterm_p, corrected, aterm_q)
    corrected *= taper[np.newaxis, :, :, np.newaxis, np.newaxis]
    pixels = arena.take("degridder.pixels", (g_total, a * a, n * n), COMPLEX_DTYPE)
    pixels[...] = np.swapaxes(corrected.reshape(g_total, n * n, a * a), 1, 2)
    return pixels


@shape_checked(
    subgrid_images="(G, N, N, a, a)",
    uvw_m="(G, T, 3)",
    scale0="(G,)",
    offsets="(G, 3)",
    lmn="(N**2, 3)",
    taper="(N, N)",
    aterm_p="(G, N, N, a, a)",
    aterm_q="(G, N, N, a, a)",
    returns="(G, T, C, a**2)",
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
    factors: RasterFactors | None = None,
) -> np.ndarray:
    """Algorithm 2 with the channel phasor recurrence, over a whole bucket.

    The exact phase conjugate of
    :func:`repro.core.gridder.gridder_bucket_fast` (same phase separation,
    recurrence and precision), with one stacked complex64
    ``(G, K, N**2) @ (G, N**2, T)`` matrix product per channel step, written
    straight into channel ``c`` of a ``(G, C, K, T)`` arena buffer, and the
    recurrence applied in place on arena buffers.

    Parameters
    ----------
    subgrid_images:
        ``(G, N, N, a, a)`` stacked image-domain subgrids of ``K = a**2``
        correlations.
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
    lmn, taper, aterm_p, aterm_q, factors:
        As in :func:`repro.core.gridder.gridder_bucket_fast`.
    arena:
        Scratch arena (defaults to the calling thread's).

    Returns
    -------
    ``(G, T, C, a**2)`` ``COMPLEX_DTYPE`` predicted visibilities: the
    transposed view of the channel-major arena buffer (the work-group
    driver scatters it into the output before the next batched call on this
    thread).
    """
    g_total, t_total = uvw_m.shape[:2]
    n_pixels2 = lmn.shape[0]
    if arena is None:
        arena = thread_arena()
    if factors is None:
        factors = raster_factors(lmn)
    pixels = _corrected_pixels_bucket(subgrid_images, taper, aterm_p, aterm_q, arena)

    # conjugate of the gridding phasor and step
    coords = arena.take("bucket.coords", (g_total, t_total, 3), np.float64)
    np.multiply(uvw_m, scale0[:, np.newaxis, np.newaxis], out=coords)
    coords -= offsets[:, np.newaxis, :]
    phasor = arena.take("bucket.phasor", (g_total, n_pixels2, t_total), COMPLEX_DTYPE)
    raster_phasor(factors, coords, -1.0, phasor, arena)
    if n_channels > 1:
        step = arena.take("bucket.step", (g_total, n_pixels2, t_total), COMPLEX_DTYPE)
        np.multiply(uvw_m, ds, out=coords)
        raster_phasor(factors, coords, -1.0, step, arena)

    k_total = pixels.shape[1]
    out = arena.take(
        "degridder.out", (g_total, n_channels, k_total, t_total), COMPLEX_DTYPE
    )
    np.matmul(pixels, phasor, out=out[:, 0])
    for c in range(1, n_channels):
        np.multiply(phasor, step, out=phasor)
        if c % PHASOR_RENORM_INTERVAL == 0:
            # same magnitude-drift guard as the gridder bucket kernel
            magnitude = arena.take(
                "bucket.magnitude", (g_total, n_pixels2, t_total), FLOAT_DTYPE
            )
            np.abs(phasor, out=magnitude)
            phasor /= magnitude
        np.matmul(pixels, phasor, out=out[:, c])
    return out.transpose(0, 3, 1, 2)


@shape_checked(
    subgrid_images="(G, N, N, a, a)",
    uvw_rel_wl="(G, M, 3)",
    lmn="(N**2, 3)",
    taper="(N, N)",
    aterm_p="(G, N, N, a, a)",
    aterm_q="(G, N, N, a, a)",
    returns="(G, M, a**2)",
)
def degridder_bucket(
    subgrid_images: np.ndarray,
    uvw_rel_wl: np.ndarray,
    lmn: np.ndarray,
    taper: np.ndarray,
    aterm_p: np.ndarray | None = None,
    aterm_q: np.ndarray | None = None,
    arena: ScratchArena | None = None,
    factors: RasterFactors | None = None,
) -> np.ndarray:
    """Algorithm 2 as a direct sum, over a whole bucket.

    One :func:`~repro.core.gridder.raster_phasor` build of the stacked
    complex64 ``(G, N**2, M)`` conjugate phasor from the relative uvw, and
    one stacked complex64 ``(G, K, N**2) @ (G, N**2, M)`` matrix product.

    Parameters
    ----------
    subgrid_images:
        ``(G, N, N, a, a)`` stacked image-domain subgrids.
    uvw_rel_wl:
        ``(G, M, 3)`` stacked relative uvw in wavelengths.
    lmn, taper, aterm_p, aterm_q, factors:
        As in :func:`repro.core.gridder.gridder_bucket_fast`.
    arena:
        Scratch arena (defaults to the calling thread's).

    Returns
    -------
    ``(G, M, a**2)`` ``COMPLEX_DTYPE`` predicted visibilities: the
    transposed view of a correlation-first arena buffer.
    """
    g_total, m_total = uvw_rel_wl.shape[:2]
    n_pixels2 = lmn.shape[0]
    if arena is None:
        arena = thread_arena()
    if factors is None:
        factors = raster_factors(lmn)
    pixels = _corrected_pixels_bucket(subgrid_images, taper, aterm_p, aterm_q, arena)

    phasor = arena.take("bucket.phasor", (g_total, n_pixels2, m_total), COMPLEX_DTYPE)
    raster_phasor(factors, uvw_rel_wl, -1.0, phasor, arena)

    out = arena.take("degridder.out", (g_total, pixels.shape[1], m_total), COMPLEX_DTYPE)
    np.matmul(pixels, phasor, out=out)
    return np.swapaxes(out, 1, 2)
