"""The gridder kernel (paper Algorithm 1), vectorised over buckets of subgrids.

For one work item the kernel computes every subgrid pixel as a direct sum of
phase-shifted visibilities:

``S(y, x) = sum_{t,c} V(t, c) * exp(+2*pi*i * ((u-u_mid) l_x + (v-v_mid) m_y
+ (w-w_off) n(l_x, m_y)))``

(the conjugate of the measurement-equation phase — gridding is the adjoint of
prediction), then applies the A-term adjoint sandwich ``A_p^H S A_q`` and the
anti-aliasing taper.  The kernels evaluate a whole *bucket* of identically
shaped work items at once (:mod:`repro.parallel.bucketing` forms the
buckets), and the inner loop is one stacked complex matrix product
``phasor(G, N^2, M) @ V(G, M, 4)`` so NumPy dispatches it to BLAS ``*gemm``
— the Python analogue of the paper's FMA-dominated SIMD reduction
(Listing 1) — while the sine/cosine evaluation is the analogue of the
SVML/SFU cost the paper's roofline analysis centres on.

:func:`gridder_bucket_fast` uses the channel-phasor recurrence (evenly
spaced channels); :func:`gridder_bucket` is the direct sum.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.contracts import shape_checked
from repro.aterms.jones import apply_adjoint_sandwich
from repro.cache import ArtifactCache
from repro.constants import ACCUM_DTYPE
from repro.core.scratch import ScratchArena, thread_arena
from repro.hashing import content_hash
from repro.kernels.fft import image_coordinates
from repro.kernels.wkernel import n_term

#: Channel interval at which the fast path renormalises its recurrent phasor.
#: Each recurrence step multiplies by a unit-magnitude complex number whose
#: rounding error compounds multiplicatively; dividing by ``|phasor|`` every
#: 64 steps keeps wide-band (hundreds of channels) runs at single-precision
#: accuracy for the cost of one |z| per pixel-timestep per interval.
PHASOR_RENORM_INTERVAL = 64


#: Content-hash keyed cache behind :func:`subgrid_lmn` (the PR 4
#: ``lru_cache`` migrated onto the shared artifact-cache layer).  Every call
#: site with the same (subgrid size, image size) — the ``IDG`` facade,
#: work-group kernels called without a precomputed ``lmn``, w-stack layers,
#: service jobs, tests — shares one immutable matrix.
_LMN_CACHE = ArtifactCache(max_bytes=64 * 1024 * 1024, name="core.subgrid_lmn")


def _compute_subgrid_lmn(subgrid_size: int, image_size: float) -> np.ndarray:
    coords = image_coordinates(subgrid_size, image_size)
    ll = np.broadcast_to(coords[np.newaxis, :], (subgrid_size, subgrid_size))
    mm = np.broadcast_to(coords[:, np.newaxis], (subgrid_size, subgrid_size))
    nn = n_term(ll, mm)
    lmn = np.stack([ll.ravel(), mm.ravel(), nn.ravel()], axis=1)
    lmn.setflags(write=False)
    return lmn


@shape_checked(returns="(N**2, 3)")
def subgrid_lmn(subgrid_size: int, image_size: float) -> np.ndarray:
    """The ``(N**2, 3)`` matrix of (l, m, n) per subgrid pixel, row-major.

    Row ``y * N + x`` holds ``(l_x, m_y, n(l_x, m_y))`` for the coarse image
    raster spanning the full field of view.  This matrix is the fixed factor
    of the phasor product, computed once per (subgrid size, image size) and
    cached in the shared :class:`~repro.cache.ArtifactCache`; the returned
    array is shared and read-only.
    """
    subgrid_size, image_size = int(subgrid_size), float(image_size)
    key = content_hash("subgrid_lmn", subgrid_size, image_size)
    return _LMN_CACHE.get_or_create(
        key, lambda: _compute_subgrid_lmn(subgrid_size, image_size)
    )


def _phase_tensor(
    lmn: np.ndarray, uvw_m: np.ndarray, arena: ScratchArena, key: str
) -> np.ndarray:
    """``(G, N**2, T)`` metre-domain phase ``2 pi lmn . uvw`` of a bucket,
    built with one broadcast batched matmul into an arena buffer."""
    g_total, t_total = uvw_m.shape[0], uvw_m.shape[1]
    base = arena.take(key, (g_total, lmn.shape[0], t_total), np.float64)
    np.matmul(lmn, np.swapaxes(uvw_m, 1, 2), out=base)
    base *= 2.0 * np.pi
    return base


def _offset_phase_matrix(
    lmn: np.ndarray, offsets: np.ndarray, arena: ScratchArena, key: str
) -> np.ndarray:
    """``(G, N**2)`` subgrid-offset phase ``2 pi lmn . offset`` per item."""
    out = arena.take(key, (offsets.shape[0], lmn.shape[0]), np.float64)
    np.matmul(offsets, lmn.T, out=out)
    out *= 2.0 * np.pi
    return out


def _sincos_into(phase: np.ndarray, out: np.ndarray) -> None:
    """``out = exp(1j * phase)`` without temporaries: cosine and sine are
    written straight into the complex buffer's real/imaginary views (the
    same two transcendental evaluations ``np.exp`` performs, minus its
    allocations)."""
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)


@shape_checked(
    visibilities="(G, T, C, 4)",
    uvw_m="(G, T, 3)",
    scale0="(G,)",
    offsets="(G, 3)",
    lmn="(N**2, 3)",
    taper="(N, N)",
    aterm_p="(G, N, N, 2, 2)",
    aterm_q="(G, N, N, 2, 2)",
    returns="(G, N, N, 2, 2)",
)
def gridder_bucket_fast(
    visibilities: np.ndarray,
    uvw_m: np.ndarray,
    scale0: np.ndarray,
    ds: float,
    offsets: np.ndarray,
    lmn: np.ndarray,
    taper: np.ndarray,
    aterm_p: np.ndarray | None = None,
    aterm_q: np.ndarray | None = None,
    arena: ScratchArena | None = None,
) -> np.ndarray:
    """Algorithm 1 with the channel phasor recurrence, over a whole bucket.

    The phase separates as ``phi(x, t, c) = s_c * A[x, t] - B[x]`` with
    ``A = 2 pi lmn . uvw_m`` (metres), ``B = 2 pi lmn . offset``
    (wavelengths) and ``s_c = f_c / c_light``.  For evenly spaced channels
    ``s_c = s_0 + c * ds``, so

    ``exp(i s_c A) = exp(i s_0 A) * exp(i ds A)**c``

    — one pair of exponentials per (pixel, timestep) plus one complex
    multiply per channel step, instead of one exponential per (pixel,
    timestep, channel).  This is the image-domain analogue of the paper's
    batch sincos precomputation (Section V-B, optimisation 2): it reduces
    the sine/cosine count by a factor ~n_channels at the cost of extra
    FMAs, which both CPUs and GPUs have to spare (rho = 17 leaves the FMA
    pipes underused on sincos-limited architectures).

    ``G`` identically shaped work items are evaluated together — one
    broadcast matmul for the stacked metre-domain phase, one batched
    sine/cosine pair per (item, pixel, timestep), and one stacked
    ``(G, N**2, T) @ (G, T, 4)`` matrix product per channel step, with the
    recurrence multiply and its renormalisation applied in place.  All
    working memory comes from the scratch arena, so a steady stream of
    equal-shape buckets allocates nothing.

    Parameters
    ----------
    visibilities:
        ``(G, T, C, 4)`` stacked visibility blocks.
    uvw_m:
        ``(G, T, 3)`` stacked uvw in metres.
    scale0:
        ``(G,)`` first-channel ``f/c`` per item (items of one shape bucket
        may cover different channel windows).
    ds:
        Shared channel step of the ``f/c`` ladder (0 for one channel).
    offsets:
        ``(G, 3)`` per-item subgrid offsets ``u_mid, v_mid, w_offset`` in
        wavelengths.
    lmn:
        ``(N**2, 3)`` pixel directions (:func:`subgrid_lmn`).
    taper:
        ``(N, N)`` anti-aliasing taper.
    aterm_p, aterm_q:
        Optional ``(G, N, N, 2, 2)`` per-item Jones fields of the two
        stations; ``None`` means identity (the adjoint sandwich is skipped).
    arena:
        Scratch arena (defaults to the calling thread's).

    Returns
    -------
    ``(G, N, N, 2, 2)`` complex128 image-domain subgrids.  The array is a
    view into the arena — copy it out (the work-group drivers assign it
    into their output array) before the next batched call on this thread.
    """
    g_total, t_total, c_total = visibilities.shape[:3]
    n_pixels2 = lmn.shape[0]
    n = int(np.sqrt(n_pixels2))
    if arena is None:
        arena = thread_arena()

    base = _phase_tensor(lmn, uvw_m, arena, "bucket.base")
    offset_phase = _offset_phase_matrix(lmn, offsets, arena, "bucket.offset_phase")
    phase = arena.take("bucket.phase", (g_total, n_pixels2, t_total), np.float64)
    phasor = arena.take("bucket.phasor", (g_total, n_pixels2, t_total), ACCUM_DTYPE)
    np.multiply(base, scale0[:, np.newaxis, np.newaxis], out=phase)
    phase -= offset_phase[:, :, np.newaxis]
    _sincos_into(phase, phasor)
    if c_total > 1:
        step = arena.take("bucket.step", (g_total, n_pixels2, t_total), ACCUM_DTYPE)
        np.multiply(base, ds, out=phase)
        _sincos_into(phase, step)

    acc = arena.take("gridder.acc", (g_total, n_pixels2, 4), ACCUM_DTYPE)
    prod = arena.take("gridder.prod", (g_total, n_pixels2, 4), ACCUM_DTYPE)
    np.matmul(phasor, visibilities[:, :, 0], out=acc)
    for c in range(1, c_total):
        np.multiply(phasor, step, out=phasor)
        if c % PHASOR_RENORM_INTERVAL == 0:
            # the recurrence drifts off the unit circle multiplicatively;
            # pull it back before the error reaches single precision (the
            # phase buffer doubles as the magnitude scratch)
            np.abs(phasor, out=phase)
            phasor /= phase
        np.matmul(phasor, visibilities[:, :, c], out=prod)
        acc += prod

    subgrids = acc.reshape(g_total, n, n, 2, 2)
    if aterm_p is not None or aterm_q is not None:
        subgrids = apply_adjoint_sandwich(aterm_p, subgrids, aterm_q)
    subgrids *= taper[np.newaxis, :, :, np.newaxis, np.newaxis]
    return subgrids


@shape_checked(
    visibilities="(G, M, 4)",
    uvw_rel_wl="(G, M, 3)",
    lmn="(N**2, 3)",
    taper="(N, N)",
    aterm_p="(G, N, N, 2, 2)",
    aterm_q="(G, N, N, 2, 2)",
    returns="(G, N, N, 2, 2)",
)
def gridder_bucket(
    visibilities: np.ndarray,
    uvw_rel_wl: np.ndarray,
    lmn: np.ndarray,
    taper: np.ndarray,
    aterm_p: np.ndarray | None = None,
    aterm_q: np.ndarray | None = None,
    arena: ScratchArena | None = None,
) -> np.ndarray:
    """Algorithm 1 as a direct sum, over a whole bucket.

    One broadcast matmul for the stacked ``(G, N**2, M)`` phase, one
    batched sine/cosine evaluation, and one stacked
    ``(G, N**2, M) @ (G, M, 4)`` matrix product.  The work-group drivers
    use it when the channel recurrence is inapplicable (unevenly spaced
    channels).

    Parameters
    ----------
    visibilities:
        ``(G, M, 4)`` stacked flattened visibility blocks.
    uvw_rel_wl:
        ``(G, M, 3)`` stacked relative uvw in wavelengths.
    lmn, taper, aterm_p, aterm_q:
        As in :func:`gridder_bucket_fast`.
    arena:
        Scratch arena (defaults to the calling thread's).

    Returns
    -------
    ``(G, N, N, 2, 2)`` complex128 subgrids (an arena view — see
    :func:`gridder_bucket_fast`).
    """
    g_total, m_total = visibilities.shape[:2]
    n_pixels2 = lmn.shape[0]
    n = int(np.sqrt(n_pixels2))
    if arena is None:
        arena = thread_arena()

    phase = arena.take("bucket.phase", (g_total, n_pixels2, m_total), np.float64)
    np.matmul(lmn, np.swapaxes(uvw_rel_wl, 1, 2), out=phase)
    phase *= 2.0 * np.pi
    phasor = arena.take("bucket.phasor", (g_total, n_pixels2, m_total), ACCUM_DTYPE)
    _sincos_into(phase, phasor)

    acc = arena.take("gridder.acc", (g_total, n_pixels2, 4), ACCUM_DTYPE)
    np.matmul(phasor, visibilities, out=acc)

    subgrids = acc.reshape(g_total, n, n, 2, 2)
    if aterm_p is not None or aterm_q is not None:
        subgrids = apply_adjoint_sandwich(aterm_p, subgrids, aterm_q)
    subgrids *= taper[np.newaxis, :, :, np.newaxis, np.newaxis]
    return subgrids
