"""Grid <-> image conversions with taper grid correction.

The gridding pipeline deposits each visibility onto the master grid with unit
weight (see :mod:`repro.core.subgrid_fft` for the normalisation); converting
a grid into a *dirty image* therefore requires

``I(l, m) = (G**2 / W) * IFFT(grid) / taper(l, m)``

where ``W`` is the total gridded weight and the division by the taper — the
*grid correction* — undoes the image-domain multiplication every subgrid
received.  The reverse direction pre-divides a model image by the taper
before the FFT so that degridding predicts uncorrupted visibilities.

Because a physical telescope measures only one of each conjugate visibility
pair, the half-plane dirty image is complex; for a real sky the physical
(real) dirty image is its real part — each measured visibility and its
implicit conjugate contribute complex-conjugate terms that average to
``Re``.  ``stokes_i_image`` applies that identity.

Precision follows the grid: a ``complex64`` grid (what every executor
returns) is transformed, scaled and corrected in ``complex64``, a
``complex128`` grid in double.  The taper is the outer product of one 1-D
window, so the correction is two broadcast divides by that window
(:func:`apply_grid_correction`), never a ``(G, G)`` array.  The forward
direction always transforms ``complex64``: the model is rounded once,
scaled by ``G**2`` in the correction's row divide, and transformed with
``norm="forward"``, which divides the ``G**2`` out again.
"""

from __future__ import annotations

import numpy as np

from repro.constants import COMPLEX_DTYPE
from repro.gridspec import GridSpec
from repro.kernels.fft import centered_fft2, centered_ifft2
from repro.kernels.spheroidal import grid_correction_window


def apply_grid_correction(
    image: np.ndarray, window: np.ndarray, scale: float = 1.0
) -> np.ndarray:
    """Scale ``image`` and divide its two pixel axes by a separable grid
    correction, in place and in ``image``'s own precision.

    Parameters
    ----------
    image:
        ``(..., G, G)`` real or complex array, modified in place.
    window:
        ``(G,)`` 1-D correction
        (:func:`~repro.kernels.spheroidal.grid_correction_window`); ``inf``
        entries zero their row or column.
    scale:
        Factor applied with the correction (folded into the row divide).

    Returns
    -------
    ``image`` itself, equal to ``image * scale / outer(window, window)`` up
    to rounding.
    """
    real = np.finfo(image.dtype).dtype
    rows = (window / scale).astype(real)[:, np.newaxis]
    cols = window.astype(real)
    values = image
    if image.dtype.kind == "c" and image.strides[-1] == image.itemsize:
        # divide the interleaved (re, im) pairs as reals: numpy divides a
        # complex array by a real one as complex by complex, ~6x slower
        values = image.view(real)
        cols = np.repeat(cols, 2)
    values /= rows
    values /= cols
    return image


def dirty_image_from_grid(
    grid: np.ndarray,
    gridspec: GridSpec,
    weight_sum: float,
    taper: str = "spheroidal",
    taper_beta: float = 9.0,
    correct_taper: bool = True,
) -> np.ndarray:
    """Dirty image from a gridded visibility set.

    Parameters
    ----------
    grid:
        ``(4, G, G)`` master grid (or any leading shape before the two pixel
        axes).
    weight_sum:
        Total weight gridded (for unit weights: the number of gridded
        visibilities); normalises the image to flux units.
    correct_taper:
        Apply the taper grid correction (disable to inspect the raw image).

    Returns
    -------
    Complex image array of ``grid``'s shape and precision; see
    :func:`stokes_i_image` for the real Stokes-I reduction.
    """
    if weight_sum <= 0:
        raise ValueError("weight_sum must be positive")
    g = gridspec.grid_size
    image = centered_ifft2(grid, axes=(-2, -1))
    scale = g * g / weight_sum
    if correct_taper:
        return apply_grid_correction(
            image, grid_correction_window(g, taper=taper, beta=taper_beta), scale
        )
    image *= scale
    return image


def model_image_to_grid(
    model_image: np.ndarray,
    gridspec: GridSpec,
    taper: str = "spheroidal",
    taper_beta: float = 9.0,
) -> np.ndarray:
    """Prepare a model image for degridding: taper pre-correction + FFT.

    ``model_image`` is ``(..., G, G)`` (e.g. ``(4, G, G)`` per polarisation
    product, or a real ``(G, G)`` Stokes-I plane).  It is rounded to
    ``COMPLEX_DTYPE`` once and transformed in it.  Returns the
    ``COMPLEX_DTYPE`` model grid ready for :meth:`repro.core.IDG.degrid`.
    """
    g = gridspec.grid_size
    if model_image.shape[-1] != g or model_image.shape[-2] != g:
        raise ValueError(
            f"model image pixel axes {model_image.shape[-2:]} do not match grid size {g}"
        )
    plane = np.empty(model_image.shape, dtype=COMPLEX_DTYPE)
    plane[...] = model_image
    # scaled by G**2 here and divided by it in the transform: numpy runs a
    # unit-norm complex64 FFT ~2.5x slower than a forward-normalised one
    apply_grid_correction(
        plane, grid_correction_window(g, taper=taper, beta=taper_beta), g * g
    )
    return centered_fft2(plane, axes=(-2, -1), norm="forward")


def stokes_i_image(image_4pol: np.ndarray) -> np.ndarray:
    """Stokes-I image from a 4-polarisation complex image.

    ``I = Re((XX + YY) / 2)`` for the ``B = I * eye`` brightness convention
    used throughout the tests.  Taking the real part implements the
    conjugate-visibility identity: for a real sky,
    ``Re(I_half) == I_hermitian`` — the image one would get by also gridding
    every visibility's implicit conjugate at ``(-u, -v, -w)`` and normalising
    by the doubled weight (the ``2`` from the conjugate pair and the ``1/2``
    from the doubled weight cancel).
    """
    if image_4pol.shape[0] != 4:
        raise ValueError("expected polarisation-major (4, ..., G, G) image")
    combined = 0.5 * (image_4pol[0] + image_4pol[3])
    return np.real(combined)


def stokes_images(image_4pol: np.ndarray) -> dict[str, np.ndarray]:
    """Full-Stokes images from a 4-polarisation complex image.

    For linear feeds and the correlation convention of
    :func:`repro.sky.model.brightness_from_stokes`
    (``B = 0.5 [[I+Q, U+iV], [U-iV, I-Q]]``):

    * ``I = Re(XX + YY)``  * ``Q = Re(XX - YY)``
    * ``U = Re(XY + YX)``  * ``V = Im(XY - YX)``

    (the factor 0.5 of the brightness convention cancels against the sum of
    the two correlations).  Taking real/imaginary parts applies the
    conjugate-visibility identity exactly as :func:`stokes_i_image` does.
    """
    if image_4pol.shape[0] != 4:
        raise ValueError("expected polarisation-major (4, ..., G, G) image")
    xx, xy, yx, yy = image_4pol
    return {
        "I": np.real(xx + yy),
        "Q": np.real(xx - yy),
        "U": np.real(xy + yx),
        "V": np.imag(xy - yx),
    }


def find_peak(image: np.ndarray) -> tuple[int, int, float]:
    """(row, col, value) of the absolute-maximum pixel of a real image."""
    idx = int(np.argmax(np.abs(image)))
    row, col = divmod(idx, image.shape[1])
    return row, col, float(image[row, col])
