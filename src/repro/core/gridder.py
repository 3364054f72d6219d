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
``phasor(G, N^2, M) @ V(G, M, K)`` so NumPy dispatches it to BLAS ``cgemm``
— the Python analogue of the paper's FMA-dominated SIMD reduction
(Listing 1) — while the sine/cosine evaluation is the analogue of the
SVML/SFU cost the paper's roofline analysis centres on.

The number of correlations is a data dimension.  Visibilities hold
``K = a**2`` correlations per sample and subgrids and A-term fields are
``a x a`` per pixel: ``a = 2`` is the paper's four polarisations (Algorithm
1, lines 9-13), ``a = 1`` the Stokes-I sample ``0.5 (XX + YY)`` alone, which
the imaging processors grid whenever their A-terms are scalar fields
(:func:`repro.aterms.jones.scalar_jones_fields`).  One column per
correlation is the whole difference: the phasor, its factor build and the
recurrence are shared, and the stacked product is ``K`` columns wide.

Precision follows the paper (Section VI-A: "All computations are performed
in single precision").  Each factor-row phase is formed in float64 from the
item's relative coordinates and rounded once to ``FLOAT_DTYPE``; sine and
cosine run in float32, and the phasor, the channel step, the recurrence, its
renormalisation and every stacked product run in ``COMPLEX_DTYPE``
(complex64).  Phases stay small because the coordinates are relative to the
subgrid centre (``|l a_u| <= N/4`` cycles), so the rounded phase errs by
at most about 2e-6 rad at ``N = 24``.  The sums across channels, the A-term
sandwich and the taper stay ``ACCUM_DTYPE`` (complex128), and the
``reference`` backend (:mod:`repro.core.reference`) remains the float64
oracle the kernels are checked against.

The phasor is separable.  Its phase splits into an l, an m and an n term, so

``exp(2 pi i (l_x a_u + m_y a_v + n_p a_w)) = exp(2 pi i l_x a_u)
* exp(2 pi i m_y a_v) * exp(2 pi i n_p a_w)``

and an ``N x N`` raster has only ``N`` distinct l values, ``N`` distinct m
values and ``R`` distinct n values (``n`` depends on ``l**2 + m**2`` only;
``R = 83`` for ``N = 24``).  :func:`raster_phasor` therefore evaluates
sine/cosine on ``2N + R`` *factor rows* per (item, timestep) and assembles
the ``N**2`` pixel phasors in place: gather the n-factors by pixel, then
multiply in the m-factor of each raster row and the l-factor of each raster
column.  On an evenly spaced channel ladder the kernel needs a phasor and a
channel step per (item, timestep), so it costs ``2(2N + R)`` sine/cosine
pairs — 262 for ``N = 24`` — instead of ``2N**2`` (1152).

:func:`gridder_bucket` is the one gridder kernel.  It runs the channel
phasor recurrence over the channels of each row of its input, and the
work-group drivers choose the rows: a row per timestep on an evenly spaced
channel ladder, a row per (timestep, channel) sample on any other, where
one channel per row makes the recurrence the direct sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from repro.analysis.contracts import shape_checked
from repro.aterms.jones import apply_adjoint_sandwich
from repro.cache import ArtifactCache
from repro.constants import ACCUM_DTYPE, COMPLEX_DTYPE, FLOAT_DTYPE
from repro.core.scratch import ScratchArena, thread_arena
from repro.hashing import content_hash
from repro.kernels.fft import image_coordinates
from repro.kernels.wkernel import n_term

#: Channel interval at which the fast path renormalises its recurrent phasor.
#: Each recurrence step multiplies by a unit-magnitude complex number whose
#: rounding error compounds multiplicatively; dividing by ``|phasor|`` every
#: 64 steps keeps wide-band (hundreds of channels) runs at single-precision
#: accuracy for the cost of one |z| per pixel-timestep per interval.  In
#: complex64 the recurrence stays within 2.9e-6 of peak of the float64
#: oracle at C = 512 (``tests/core/test_precision.py``), so the interval
#: did not have to shrink.
PHASOR_RENORM_INTERVAL = 64


#: Content-hash keyed cache behind :func:`subgrid_lmn` and
#: :func:`raster_factors`, on the shared artifact-cache layer.  Every call
#: site with the same (subgrid size, image size) — the ``IDG`` facade, the
#: call tables of the work-group drivers, w-stack layers, service jobs,
#: tests — shares one immutable matrix and one set of its factors.
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


@dataclass(frozen=True, eq=False)
class RasterFactors:
    """The separable factors of a subgrid raster's ``(N**2, 3)`` lmn matrix.

    Row ``y * N + x`` of the raster is
    ``(l[x], m[y], n_values[n_index[y * N + x]])``, bit for bit.  All arrays
    are shared and read-only.

    Attributes
    ----------
    l:
        ``(N,)`` l of each raster column.
    m:
        ``(N,)`` m of each raster row.
    n_values:
        ``(R,)`` distinct n values, ascending.
    n_index:
        ``(N**2,)`` pixel -> index into ``n_values``.
    """

    l: np.ndarray
    m: np.ndarray
    n_values: np.ndarray
    n_index: np.ndarray


def _compute_raster_factors(lmn: np.ndarray) -> RasterFactors:
    lmn = np.asarray(lmn, dtype=np.float64)
    n = isqrt(lmn.shape[0]) if lmn.ndim == 2 else 0
    if lmn.ndim != 2 or lmn.shape[1] != 3 or n < 1 or n * n != lmn.shape[0]:
        raise ValueError(f"lmn must be (N**2, 3), got {lmn.shape}")
    l, m = lmn[:n, 0].copy(), lmn[::n, 1].copy()
    if not (
        np.array_equal(lmn[:, 0], np.tile(l, n))
        and np.array_equal(lmn[:, 1], np.repeat(m, n))
    ):
        raise ValueError(
            "lmn is not a subgrid raster: row y * N + x must hold (l[x], m[y], n)"
        )
    n_values, n_index = np.unique(lmn[:, 2], return_inverse=True)
    factors = RasterFactors(l, m, n_values, n_index.astype(np.intp, copy=False))
    for array in (factors.l, factors.m, factors.n_values, factors.n_index):
        array.setflags(write=False)
    return factors


def raster_factors(lmn: np.ndarray) -> RasterFactors:
    """The :class:`RasterFactors` of a raster ``lmn`` (:func:`subgrid_lmn`).

    Derived once per distinct matrix — so once per (subgrid size, image
    size) — and cached next to it; the work-group drivers look them up once
    per work group and hand them to every bucket kernel call.

    Raises
    ------
    ValueError
        When ``lmn`` is not ``(N**2, 3)`` or its l, m columns are not the
        tiled/repeated axes of an ``N x N`` raster.
    """
    key = content_hash("raster_factors", np.asarray(lmn))
    return _LMN_CACHE.get_or_create(key, lambda: _compute_raster_factors(lmn))


def _sincos_into(phase: np.ndarray, out: np.ndarray) -> None:
    """``out = exp(1j * phase)`` without temporaries: cosine and sine are
    written straight into the complex buffer's real/imaginary views (the
    same two transcendental evaluations ``np.exp`` performs, minus its
    allocations)."""
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)


def raster_phasor(
    factors: RasterFactors,
    coords: np.ndarray,
    sign: float,
    out: np.ndarray,
    arena: ScratchArena,
) -> np.ndarray:
    """Fill ``out`` with ``exp(sign * 2 pi i * lmn . coords)`` per pixel.

    The precision follows ``out``: each factor-row phase is formed in
    float64 and rounded once to the real dtype of ``out``, and sine/cosine
    and the pixel assembly run at that precision.  The kernels pass a
    ``COMPLEX_DTYPE`` destination; a complex128 one gives float64 phasors.

    Parameters
    ----------
    factors:
        The raster's :class:`RasterFactors`.
    coords:
        ``(G, K, 3)`` per-item coordinates ``(a_u, a_v, a_w)`` in
        wavelengths.
    sign:
        ``+1`` (gridder) or ``-1`` (degridder).
    out:
        ``(G, N**2, K)`` complex destination, C-contiguous.
    arena:
        Scratch arena for the ``(G, 2N + R, K)`` phases and factor rows.

    Returns
    -------
    ``out``.  Sine/cosine runs on the factor rows only; the pixel phasors
    are assembled in ``out`` itself (n-factors gathered by pixel, then the
    m-factor of each raster row and the l-factor of each column multiplied
    in), so no second phasor-sized buffer is touched.
    """
    g_total, k_total = coords.shape[:2]
    n = factors.l.size
    rows = 2 * n + factors.n_values.size
    angular = arena.take("raster.angular", (g_total, 1, k_total, 3), np.float64)
    np.multiply(coords[:, np.newaxis], sign * 2.0 * np.pi, out=angular)
    # float64 products, each rounded once into the phase buffer's dtype
    phase = arena.take("raster.phase", (g_total, rows, k_total), out.real.dtype)
    np.multiply(factors.l[:, np.newaxis], angular[..., 0], out=phase[:, :n])
    np.multiply(factors.m[:, np.newaxis], angular[..., 1], out=phase[:, n : 2 * n])
    np.multiply(factors.n_values[:, np.newaxis], angular[..., 2], out=phase[:, 2 * n :])
    factor_rows = arena.take("raster.factors", (g_total, rows, k_total), out.dtype)
    _sincos_into(phase, factor_rows)
    # mode="clip" keeps np.take from buffering out (the indices are valid)
    np.take(factor_rows[:, 2 * n :], factors.n_index, axis=1, out=out, mode="clip")
    pixels = out.reshape(g_total, n, n, k_total)
    pixels *= factor_rows[:, n : 2 * n, np.newaxis, :]
    pixels *= factor_rows[:, np.newaxis, :n, :]
    return out


@shape_checked(
    visibilities="(G, M, C, a**2)",
    start="(G, M, 3)",
    step="(G, M, 3)",
    lmn="(N**2, 3)",
    taper="(N, N)",
    aterm_p="(G, N, N, a, a)",
    aterm_q="(G, N, N, a, a)",
    returns="(G, N, N, a, a)",
)
def gridder_bucket(
    visibilities: np.ndarray,
    start: np.ndarray,
    step: np.ndarray | None,
    lmn: np.ndarray,
    taper: np.ndarray,
    aterm_p: np.ndarray | None = None,
    aterm_q: np.ndarray | None = None,
    arena: ScratchArena | None = None,
    factors: RasterFactors | None = None,
) -> np.ndarray:
    """Algorithm 1 over a whole bucket, with the channel phasor recurrence.

    Each of an item's ``M`` rows holds ``C`` channels whose coordinates
    step evenly: ``start + c * step`` for channel ``c``.  The phase of a
    pixel then separates as

    ``exp(2 pi i lmn_x . (start + c step)) = exp(2 pi i lmn_x . start)
    * exp(2 pi i lmn_x . step)**c``

    — one phasor and one step per (pixel, row) plus one complex multiply
    per channel, instead of one exponential per (pixel, row, channel).
    This is the image-domain analogue of the paper's batch sincos
    precomputation (Section V-B, optimisation 2): it reduces the
    sine/cosine count by a factor ~C at the cost of extra FMAs, which both
    CPUs and GPUs have to spare (rho = 17 leaves the FMA pipes underused
    on sincos-limited architectures).  Both the phasor and the step come
    from :func:`raster_phasor`, so a (item, row) costs ``2N + R``
    sine/cosine pairs for its phasor and as many again for a step.

    The work-group drivers pick the rows: a row per timestep with ``step
    = uvw_m * ds`` when the channel ladder is evenly spaced, else a row
    per (timestep, channel) sample with ``C = 1`` and no step, which makes
    the kernel the direct sum.

    ``G`` identically shaped work items are evaluated together — one
    batched phasor and step build and one stacked complex64
    ``(G, N**2, M) @ (G, M, K)`` matrix product per channel, with the
    recurrence multiply and its renormalisation applied in place.  Each
    channel's product is added into a complex128 accumulator.  All working
    memory comes from the scratch arena, so a steady stream of equal-shape
    buckets allocates nothing.

    Parameters
    ----------
    visibilities:
        ``(G, M, C, a**2)`` stacked ``COMPLEX_DTYPE`` visibility blocks of
        ``K = a**2`` correlations (4, or 1 for Stokes I alone).
    start:
        ``(G, M, 3)`` first-channel coordinates ``uvw * f/c - offset`` of
        every row in wavelengths, relative to the item's subgrid centre
        and w offset.
    step:
        ``(G, M, 3)`` per-channel coordinate step of every row in
        wavelengths; ``None`` for one channel per row.
    lmn:
        ``(N**2, 3)`` pixel directions (:func:`subgrid_lmn`).
    taper:
        ``(N, N)`` anti-aliasing taper.
    aterm_p, aterm_q:
        Optional ``(G, N, N, a, a)`` per-item Jones fields of the two
        stations; ``None`` means identity (the adjoint sandwich is skipped).
    arena:
        Scratch arena (defaults to the calling thread's).
    factors:
        ``lmn``'s :func:`raster_factors`, when the caller already holds
        them (looked up from ``lmn`` otherwise).

    Returns
    -------
    ``(G, N, N, a, a)`` ``ACCUM_DTYPE`` image-domain subgrids.  The array
    is a view into the arena — copy it out (the work-group drivers assign
    it into their output array) before the next batched call on this
    thread.
    """
    g_total, m_total, c_total, k_total = visibilities.shape
    n_pixels2 = lmn.shape[0]
    n, a = isqrt(n_pixels2), isqrt(k_total)
    if arena is None:
        arena = thread_arena()
    if factors is None:
        factors = raster_factors(lmn)

    phasor = arena.take("bucket.phasor", (g_total, n_pixels2, m_total), COMPLEX_DTYPE)
    raster_phasor(factors, start, 1.0, phasor, arena)
    if c_total > 1:
        step_phasor = arena.take("bucket.step", phasor.shape, COMPLEX_DTYPE)
        raster_phasor(factors, step, 1.0, step_phasor, arena)

    acc = arena.take("gridder.acc", (g_total, n_pixels2, k_total), ACCUM_DTYPE)
    prod = arena.take("gridder.prod", (g_total, n_pixels2, k_total), COMPLEX_DTYPE)
    np.matmul(phasor, visibilities[:, :, 0], out=prod)
    acc[...] = prod
    for c in range(1, c_total):
        np.multiply(phasor, step_phasor, out=phasor)
        if c % PHASOR_RENORM_INTERVAL == 0:
            # the recurrence drifts off the unit circle multiplicatively;
            # pull it back before the error reaches single precision
            magnitude = arena.take("bucket.magnitude", phasor.shape, FLOAT_DTYPE)
            np.abs(phasor, out=magnitude)
            phasor /= magnitude
        np.matmul(phasor, visibilities[:, :, c], out=prod)
        acc += prod
    subgrids = acc.reshape(g_total, n, n, a, a)
    if aterm_p is not None or aterm_q is not None:
        subgrids = apply_adjoint_sandwich(aterm_p, subgrids, aterm_q)
    subgrids *= taper[np.newaxis, :, :, np.newaxis, np.newaxis]
    return subgrids
