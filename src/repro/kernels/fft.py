"""Centered 2-D FFT helpers.

Throughout the package both image-domain arrays (sky patches, subgrids after
the inverse transform) and Fourier-domain arrays (the master grid, subgrids
before the adder) are stored *centered*: index ``n // 2`` along each axis is
the origin.  The helpers here hide the ``fftshift``/``ifftshift`` dance and fix
the sign convention once:

* ``fft_image_to_grid``  — image ``(l, m)`` → uv grid, kernel
  ``exp(-2*pi*i*(u*l + v*m))`` (matches the measurement equation, paper Eq. 1).
* ``fft_grid_to_image``  — uv grid → image, kernel ``exp(+2*pi*i*(u*l + v*m))``
  with the customary ``1/N**2`` normalisation folded in by ``ifft2``.

With centered coordinates ``x - N//2`` and ``p - N//2`` these transforms are
exactly discrete sums over the *centered* phase
``exp(∓2*pi*i*(p - N//2)*(x - N//2)/N)`` — no residual checkerboard phase —
which is what lets a subgrid FFT drop straight into the master grid at an
integer pixel offset (Section IV of the paper, "the subgrid has to be
Fourier-transformed before the result is added to the grid").

For an even ``N`` the two shifts are a checkerboard:
``fftshift(fft2(ifftshift(a))) == c * fft2(c * a)`` with
``c = (-1)**(x + y)`` (DESIGN §3).  The 2-D grid transforms of
:mod:`repro.imaging.image` use that identity and no longer call these
helpers; the subgrid FFTs (:mod:`repro.core.subgrid_fft`) and the
w-stacked processors' layer transforms still do.
"""

from __future__ import annotations

import numpy as np


def centered_fft2(
    a: np.ndarray, axes: tuple[int, int] = (-2, -1), norm: str | None = None
) -> np.ndarray:
    """Forward FFT that maps a centered array to a centered spectrum.

    Equivalent to ``fftshift(fft2(ifftshift(a)))`` over ``axes``.  For an
    input sampled at centered coordinates this computes

    ``A[q, p] = sum_{y,x} a[y, x] * exp(-2*pi*i*((p-N//2)*(x-N//2)
    + (q-M//2)*(y-M//2))/N)``,

    scaled as numpy's ``norm`` says (``"forward"``: by ``1/(M*N)``).
    """
    return np.fft.fftshift(
        np.fft.fft2(np.fft.ifftshift(a, axes=axes), axes=axes, norm=norm), axes=axes
    )


def centered_ifft2(a: np.ndarray, axes: tuple[int, int] = (-2, -1)) -> np.ndarray:
    """Inverse of :func:`centered_fft2` (includes the ``1/(M*N)`` factor)."""
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(a, axes=axes), axes=axes), axes=axes)


def fft_image_to_grid(image: np.ndarray, axes: tuple[int, int] = (-2, -1)) -> np.ndarray:
    """Transform a centered image to the centered uv grid.

    Uses the measurement-equation sign (``exp(-2*pi*i*(u*l + v*m))``): a point
    source of unit flux at the image centre produces a constant, real,
    positive grid.
    """
    return centered_fft2(image, axes=axes)


def fft_grid_to_image(grid: np.ndarray, axes: tuple[int, int] = (-2, -1)) -> np.ndarray:
    """Transform a centered uv grid to the centered image plane.

    This is the imaging direction (``exp(+2*pi*i*(u*l + v*m))`` with ``1/N**2``
    normalisation), the inverse of :func:`fft_image_to_grid`.
    """
    return centered_ifft2(grid, axes=axes)


def image_coordinates(n_pixels: int, image_size: float, dtype=np.float64) -> np.ndarray:
    """Direction-cosine coordinates of the pixel centres of a centered image.

    Parameters
    ----------
    n_pixels:
        Number of pixels along the axis.
    image_size:
        Full extent of the image in direction cosines (~ radians for small
        fields).  The pixel at index ``n_pixels // 2`` sits exactly at 0.

    Returns
    -------
    Array of shape ``(n_pixels,)`` with values
    ``(arange(n) - n//2) * image_size / n``.
    """
    idx = np.arange(n_pixels, dtype=dtype)
    return (idx - n_pixels // 2) * (image_size / n_pixels)


def fourier_coordinates(n_pixels: int, image_size: float, dtype=np.float64) -> np.ndarray:
    """uv coordinates (in wavelengths) of a centered grid's cell centres.

    The uv cell size is ``1 / image_size``; index ``n_pixels // 2`` is the
    origin.  ``image_coordinates`` and ``fourier_coordinates`` of matching
    sizes satisfy ``du * dl == 1 / n_pixels``, the resolution relation the
    centered FFT assumes.
    """
    idx = np.arange(n_pixels, dtype=dtype)
    return (idx - n_pixels // 2) / image_size


def subgrid_to_grid_offset(
    corner: tuple[int, int], subgrid_size: int, grid_size: int, image_size: float
) -> tuple[float, float]:
    """uv coordinates (wavelengths) of a subgrid's centre pixel.

    A subgrid occupies master-grid cells ``corner[0] .. corner[0]+N-1`` along u
    (and similarly along v); its centre pixel is the cell at
    ``corner + N//2``, which lies at
    ``(corner + N//2 - grid_size//2) / image_size`` wavelengths.

    Returns ``(u_mid, v_mid)`` for ``corner = (cu, cv)``.
    """
    cu, cv = corner
    du = 1.0 / image_size
    u_mid = (cu + subgrid_size // 2 - grid_size // 2) * du
    v_mid = (cv + subgrid_size // 2 - grid_size // 2) * du
    return (u_mid, v_mid)
