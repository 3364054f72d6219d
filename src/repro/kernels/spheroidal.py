"""Anti-aliasing tapers.

IDG multiplies every subgrid by a *taper* in the image domain (Algorithm 1,
``apply_spheroidal``).  In Fourier space that multiplication is a convolution
with the taper's transform — i.e. the taper plays exactly the role the
oversampled convolution kernel plays in traditional gridding, and its Fourier
decay controls how much energy aliases when the coarsely-sampled subgrid image
is replicated across the uv plane.  The paper (and ASTRON's production IDG)
use a prolate-spheroidal wave function, which is the optimal
concentration-of-energy window for this purpose; a Kaiser-Bessel window is
provided as a cheap, tunable alternative.

The *same* function, evaluated on the fine master-image pixel raster, is the
grid correction that must divide the dirty image after the final inverse FFT
(and divide the model image before degridding).
"""

from __future__ import annotations

import numpy as np

from repro.cache import ArtifactCache
from repro.hashing import content_hash

# Rational-polynomial fit of the zeroth-order prolate spheroidal wave function
# psi(alpha=1, c=pi*m/2) with support m=6, from F. Schwab, "Optimal gridding of
# visibility data in radio interferometry", Indirect Imaging (1984).  The same
# coefficients are used by AIPS, CASA and ASTRON's IDG.
_P = np.array(
    [
        [8.203343e-2, -3.644705e-1, 6.278660e-1, -5.335581e-1, 2.312756e-1],
        [4.028559e-3, -3.697768e-2, 1.021332e-1, -1.201436e-1, 6.412774e-2],
    ]
)
_Q = np.array(
    [
        [1.0000000, 8.212018e-1, 2.078043e-1],
        [1.0000000, 9.599102e-1, 2.918724e-1],
    ]
)


def evaluate_prolate_spheroidal(nu: np.ndarray) -> np.ndarray:
    """Evaluate Schwab's prolate-spheroidal function on ``|nu| <= 1``.

    Parameters
    ----------
    nu:
        Normalised coordinate(s); the function is even, equals 1 at ``nu = 0``
        and falls to 0 at ``|nu| = 1``.  Values with ``|nu| > 1`` return 0.

    Returns
    -------
    Array of the same shape as ``nu``.
    """
    nu = np.abs(np.asarray(nu, dtype=np.float64))
    out = np.zeros_like(nu)

    # Piecewise rational approximation on [0, 0.75] and [0.75, 1.0].
    edges_lo = np.array([0.0, 0.75])
    edges_hi = np.array([0.75, 1.0])
    for part in range(2):
        mask = (nu >= edges_lo[part]) & (nu <= edges_hi[part])
        if not np.any(mask):
            continue
        nu_part = nu[mask]
        delta = nu_part * nu_part - edges_hi[part] * edges_hi[part]
        top = np.zeros_like(nu_part)  # idglint: disable=IDG003  (bounded: 2 parts)
        for k in range(_P.shape[1] - 1, -1, -1):
            top = top * delta + _P[part, k]
        bot = np.zeros_like(nu_part)  # idglint: disable=IDG003  (bounded: 2 parts)
        for k in range(_Q.shape[1] - 1, -1, -1):
            bot = bot * delta + _Q[part, k]
        out[mask] = top / bot

    # Normalise so the peak is exactly 1 (evaluate the part-0 rational fit at
    # nu = 0, where delta = -0.75**2).
    d0 = -0.75 * 0.75
    top0 = 0.0
    for k in range(_P.shape[1] - 1, -1, -1):
        top0 = top0 * d0 + _P[0, k]
    bot0 = 0.0
    for k in range(_Q.shape[1] - 1, -1, -1):
        bot0 = bot0 * d0 + _Q[0, k]
    return out / (top0 / bot0)


def kaiser_bessel_taper(n_pixels: int, beta: float = 9.0) -> np.ndarray:
    """Separable 2-D Kaiser-Bessel window of shape ``(n, n)``.

    ``beta`` trades main-lobe width against sidelobe (aliasing) suppression;
    the default suits 24-pixel subgrids.  Unlike the spheroidal, the window is
    strictly positive on the open interval, which avoids divide-by-zero in the
    grid correction everywhere except the exact image edge.
    """
    window = _kaiser_bessel_window(n_pixels, beta)
    return np.outer(window, window)


def _kaiser_bessel_window(n_pixels: int, beta: float) -> np.ndarray:
    from numpy import i0

    xi = _normalised_coordinates(n_pixels)
    arg = np.clip(1.0 - xi * xi, 0.0, None)
    return i0(beta * np.sqrt(arg)) / i0(beta)


def _normalised_coordinates(n_pixels: int) -> np.ndarray:
    """Centered pixel coordinates scaled to [-1, 1): ``(x - n//2) / (n/2)``."""
    idx = np.arange(n_pixels, dtype=np.float64)
    return (idx - n_pixels // 2) / (n_pixels / 2.0)


def spheroidal_taper(n_pixels: int) -> np.ndarray:
    """Separable 2-D prolate-spheroidal taper of shape ``(n, n)``.

    Evaluated at the centered pixel raster of an ``n``-pixel image spanning the
    full field of view; this is the array Algorithm 1 multiplies into every
    subgrid.  The same function on the master raster is the grid correction
    (:func:`grid_correction`).
    """
    window = evaluate_prolate_spheroidal(_normalised_coordinates(n_pixels))
    return np.outer(window, window)


def taper_window(n_pixels: int, taper: str = "spheroidal", beta: float = 9.0) -> np.ndarray:
    """The ``(n,)`` 1-D window whose outer product with itself is the 2-D
    taper (:func:`spheroidal_taper`, :func:`kaiser_bessel_taper`)."""
    if taper == "spheroidal":
        return evaluate_prolate_spheroidal(_normalised_coordinates(n_pixels))
    if taper == "kaiser-bessel":
        return _kaiser_bessel_window(n_pixels, beta)
    raise ValueError(f"unknown taper {taper!r}; expected 'spheroidal' or 'kaiser-bessel'")


def grid_correction_window(
    n_pixels: int, taper: str = "spheroidal", beta: float = 9.0
) -> np.ndarray:
    """The ``(n,)`` 1-D factor of the grid correction.

    Both tapers are separable, so :func:`grid_correction` is the outer
    product of this window with itself, and dividing an image by the window
    along its rows and then along its columns applies the correction without
    building the ``(n, n)`` array.  Zero entries become ``inf``, as in
    :func:`grid_correction`, so dividing zeroes their row and column instead
    of emitting NaNs.
    """
    window = taper_window(n_pixels, taper, beta)
    window[window == 0.0] = np.inf
    return window


def grid_correction(n_pixels: int, taper: str = "spheroidal", beta: float = 9.0) -> np.ndarray:
    """Image-domain correction: the taper evaluated on the *fine* image raster.

    The dirty image must be divided by this array after the final inverse FFT;
    a model image must be divided by it before the forward FFT used in
    degridding.  Pixels where the taper is exactly zero (the extreme edge row
    and column of the spheroidal) are returned as ``inf`` so that dividing by
    the correction cleanly zeroes them instead of emitting NaNs.  The imaging
    path divides by :func:`grid_correction_window` twice instead.
    """
    window = grid_correction_window(n_pixels, taper, beta)
    return np.outer(window, window)


#: Content-hash keyed cache behind :func:`taper_for` (the PR 4 ``lru_cache``
#: migrated onto the shared artifact-cache layer): every ``IDG`` facade,
#: executor worker, service job and test with the same (size, family, beta)
#: shares one immutable array instead of re-evaluating the spheroidal
#: rational fit.  64 MiB bounds even grid-correction-sized tables.
_TAPER_CACHE = ArtifactCache(max_bytes=64 * 1024 * 1024, name="kernels.taper")


def _compute_taper(n_pixels: int, taper: str, beta: float) -> np.ndarray:
    window = taper_window(n_pixels, taper, beta)
    arr = np.outer(window, window)
    arr.setflags(write=False)
    return arr


def taper_for(n_pixels: int, taper: str = "spheroidal", beta: float = 9.0) -> np.ndarray:
    """Return the 2-D taper array by name (dispatch helper used by the core).

    Cached per ``(n_pixels, taper, beta)`` in the shared
    :class:`~repro.cache.ArtifactCache`; the returned array is shared and
    read-only — copy before mutating.
    """
    n_pixels, beta = int(n_pixels), float(beta)
    key = content_hash("taper", n_pixels, str(taper), beta)
    return _TAPER_CACHE.get_or_create(
        key, lambda: _compute_taper(n_pixels, taper, beta)
    )
