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
timestep) instead of on ``N**2`` pixels, so on an evenly spaced channel
ladder the kernel spends ``2(2N + R)`` sine/cosine pairs per (item,
timestep) on its phasor and step rather than ``2N**2``.
:func:`degridder_bucket` is the one degridder kernel: the channel phasor
recurrence over the channels of each row, on the rows the work-group
drivers choose (a row per timestep on an evenly spaced ladder; on any
other, a row per sample with one channel, which is the direct sum).

Precision matches the gridder: complex64 phasors, recurrence and products,
with the taper and the A-term sandwich applied to the pixels in
``ACCUM_DTYPE`` before they are rounded to ``COMPLEX_DTYPE`` for the
products.  The products put the ``K = a**2`` correlations first (four, or
one for the Stokes-I sample alone, as in the gridder): each channel is one
``(K, N**2) @ (N**2, M)`` product per item of ``M`` rows, written as a
contiguous ``(K, M)`` block of a channel-major ``(G, C, K, M)`` buffer, and
the kernel returns that buffer's ``(G, M, C, K)`` transposed view.  At the
default chunk sizes for ``N = 24`` and ``M = T = 8, 16, 32, 96``, one
channel's stacked four-correlation product took 49-102 us this way against
101-147 us as ``(T, N**2) @ (N**2, 4)`` (2-vCPU KVM guest, Intel Xeon,
OpenBLAS 0.3.31).
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


@shape_checked(
    subgrid_images="(G, N, N, a, a)",
    start="(G, M, 3)",
    step="(G, M, 3)",
    lmn="(N**2, 3)",
    taper="(N, N)",
    aterm_p="(G, N, N, a, a)",
    aterm_q="(G, N, N, a, a)",
    returns="(G, M, C, a**2)",
)
def degridder_bucket(
    subgrid_images: np.ndarray,
    start: np.ndarray,
    step: np.ndarray | None,
    n_channels: int,
    lmn: np.ndarray,
    taper: np.ndarray,
    aterm_p: np.ndarray | None = None,
    aterm_q: np.ndarray | None = None,
    arena: ScratchArena | None = None,
    factors: RasterFactors | None = None,
) -> np.ndarray:
    """Algorithm 2 over a whole bucket, with the channel phasor recurrence.

    The exact phase conjugate of :func:`repro.core.gridder.gridder_bucket`
    (same rows, phase separation, recurrence and precision): the taper and
    the A-term sandwich are applied to the pixels in ``ACCUM_DTYPE`` and
    rounded once to ``COMPLEX_DTYPE``, correlation first, then one stacked
    complex64 ``(G, K, N**2) @ (G, N**2, M)`` matrix product per channel is
    written straight into channel ``c`` of a ``(G, C, K, M)`` arena buffer,
    with the recurrence applied in place on arena buffers.

    Parameters
    ----------
    subgrid_images:
        ``(G, N, N, a, a)`` stacked image-domain subgrids of ``K = a**2``
        correlations.
    start:
        ``(G, M, 3)`` first-channel coordinates of every row in
        wavelengths, as in :func:`repro.core.gridder.gridder_bucket`.
    step:
        ``(G, M, 3)`` per-channel coordinate step of every row in
        wavelengths; ``None`` for one channel per row.
    n_channels:
        Channels per row (``C``).
    lmn, taper, aterm_p, aterm_q, factors:
        As in :func:`repro.core.gridder.gridder_bucket`.
    arena:
        Scratch arena (defaults to the calling thread's).

    Returns
    -------
    ``(G, M, C, a**2)`` ``COMPLEX_DTYPE`` predicted visibilities: the
    transposed view of the channel-major arena buffer (the work-group
    driver scatters it into the output before the next batched call on this
    thread).
    """
    g_total, n, _, a, _ = subgrid_images.shape
    m_total = start.shape[1]
    n_pixels2 = lmn.shape[0]
    if arena is None:
        arena = thread_arena()
    if factors is None:
        factors = raster_factors(lmn)
    corrected = arena.take("degridder.corrected", subgrid_images.shape, ACCUM_DTYPE)
    corrected[...] = subgrid_images
    if aterm_p is not None or aterm_q is not None:
        corrected = apply_sandwich(aterm_p, corrected, aterm_q)
    corrected *= taper[np.newaxis, :, :, np.newaxis, np.newaxis]
    pixels = arena.take("degridder.pixels", (g_total, a * a, n * n), COMPLEX_DTYPE)
    pixels[...] = np.swapaxes(corrected.reshape(g_total, n * n, a * a), 1, 2)

    # conjugate of the gridding phasor and step
    phasor = arena.take("bucket.phasor", (g_total, n_pixels2, m_total), COMPLEX_DTYPE)
    raster_phasor(factors, start, -1.0, phasor, arena)
    if n_channels > 1:
        step_phasor = arena.take("bucket.step", phasor.shape, COMPLEX_DTYPE)
        raster_phasor(factors, step, -1.0, step_phasor, arena)

    out = arena.take(
        "degridder.out", (g_total, n_channels, a * a, m_total), COMPLEX_DTYPE
    )
    np.matmul(pixels, phasor, out=out[:, 0])
    for c in range(1, n_channels):
        np.multiply(phasor, step_phasor, out=phasor)
        if c % PHASOR_RENORM_INTERVAL == 0:
            # same magnitude-drift guard as the gridder bucket kernel
            magnitude = arena.take("bucket.magnitude", phasor.shape, FLOAT_DTYPE)
            np.abs(phasor, out=magnitude)
            phasor /= magnitude
        np.matmul(pixels, phasor, out=out[:, c])
    return out.transpose(0, 3, 1, 2)
