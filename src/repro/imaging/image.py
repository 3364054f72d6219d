"""Grid <-> image conversions with taper grid correction.

The gridding pipeline deposits each visibility onto the master grid with unit
weight (see :mod:`repro.core.subgrid_fft` for the normalisation); converting
a grid into a *dirty image* therefore requires

``I(l, m) = (G**2 / W) * IFFT(grid) / taper(l, m)``

where ``W`` is the total gridded weight and the division by the taper — the
*grid correction* — undoes the image-domain multiplication every subgrid
received.  The reverse direction pre-divides a model image by the taper
before the FFT so that degridding predicts uncorrupted visibilities.

Both directions are real.  A physical telescope measures only one of each
conjugate visibility pair, so the inverse transform of the half-plane grid
is complex; for a real sky the physical dirty image is its real part — each
measured visibility and its implicit conjugate contribute complex-conjugate
terms that average to ``Re``.  That real part is the inverse transform of
the grid's Hermitian part ``(A[k] + conj A[-k]) / 2`` (indices mod ``G``),
whose spectrum one half plane determines, so :func:`dirty_image_from_grid`
forms that half plane and runs a complex-to-real transform: half the
transform work and half the memory of a complex one, and a real image.  A
real model's grid is conjugate symmetric, so :func:`model_image_to_grid`
runs a real-to-complex transform and mirrors the other half.

No transform here shifts.  ``GridSpec`` sizes are even, and for an even
``G`` the centred transform ``fftshift(fft2(ifftshift(a)))`` equals
``c * fft2(c * a)`` with the checkerboard ``c = (-1)**(x + y)`` (DESIGN §3).
The grid side's ``c`` is applied in the pass that forms (dirty image) or
expands (model grid) the half plane; the image side's is the product of
``(-1)**x`` along each axis, folded into signed copies of the 1-D
correction window that :func:`apply_grid_correction` divides by.

Precision follows the grid: a ``complex64`` grid (what every executor
returns) gives a ``float32`` image, transformed, scaled and corrected in
single precision, and a ``complex128`` grid a ``float64`` image.  The
taper is the outer product of one 1-D window, so the correction is two
broadcast divides by that window, never a ``(G, G)`` array.  The forward
direction always transforms in single precision: the model is rounded once,
scaled by ``G**2`` in the correction's row divide, and transformed with
``norm="forward"``, which divides the ``G**2`` out again.
"""

from __future__ import annotations

import numpy as np

from repro.constants import COMPLEX_DTYPE, FLOAT_DTYPE
from repro.gridspec import GridSpec
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


def _signed_window(
    g: int, taper: str, taper_beta: float, correct_taper: bool = True
) -> np.ndarray:
    """The ``(G,)`` window an image divides by along each axis: the grid
    correction (ones without it) with every odd entry negated, which
    applies the image side's checkerboard ``(-1)**x`` of an unshifted
    transform along that axis."""
    window = (
        grid_correction_window(g, taper=taper, beta=taper_beta)
        if correct_taper
        else np.ones(g)
    )
    window[1::2] *= -1.0
    return window


def _checkerboard(values: np.ndarray, out: np.ndarray) -> None:
    """``out = (-1)**(row + col) * values`` for complex ``(..., G, n)``
    arrays whose last axis is contiguous, multiplied as interleaved float
    pairs, one sign pattern per row parity (``out`` may be ``values``)."""
    real = np.finfo(values.dtype).dtype
    signs = np.ones(values.shape[-1], dtype=real)
    signs[1::2] = -1.0
    signs = np.repeat(signs, 2)
    values, out = values.view(real), out.view(real)
    np.multiply(values[..., 0::2, :], signs, out=out[..., 0::2, :])
    np.multiply(values[..., 1::2, :], -signs, out=out[..., 1::2, :])


def _hermitian_half(grid: np.ndarray) -> np.ndarray:
    """``c[k] * (A[k] + conj A[-k])`` on the half plane ``k_col <= G/2`` of
    every plane ``A`` of ``grid`` (indices mod ``G``), with the
    checkerboard ``c = (-1)**(k_row + k_col)``: twice the Hermitian part of
    the unshifted spectrum, in ``grid``'s complex precision."""
    g = grid.shape[-1]
    h = g // 2 + 1
    half = np.empty(grid.shape[:-1] + (h,), dtype=np.result_type(grid.dtype, COMPLEX_DTYPE))
    # conj A[-k]: row and column 0 are their own mirrors; the other rows
    # run from G - 1 down to 1, the other columns from G - 1 down to G/2
    first = (slice(0, 1), slice(0, 1))
    for rows, mirror_rows in (first, (slice(1, None), slice(None, 0, -1))):
        for cols, mirror_cols in (first, (slice(1, None), slice(None, h - 2, -1))):
            np.conjugate(grid[..., mirror_rows, mirror_cols], out=half[..., rows, cols])
    half += grid[..., :h]
    _checkerboard(half, half)
    return half


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
    The real dirty image of every plane, of ``grid``'s shape and real
    precision (``float32`` from a ``complex64`` grid); see
    :func:`stokes_i_image` for the Stokes-I reduction of four planes.
    """
    if weight_sum <= 0:
        raise ValueError("weight_sum must be positive")
    g = gridspec.grid_size
    half = _hermitian_half(grid)
    # irfft2 in its two passes, so that the column pass runs in place
    np.fft.ifft(half, axis=-2, out=half)
    image = np.fft.irfft(half, n=g, axis=-1)
    # the 1/2 of the Hermitian part joins the flux scale
    return apply_grid_correction(
        image, _signed_window(g, taper, taper_beta, correct_taper), 0.5 * g * g / weight_sum
    )


def _real_model_grid(model: np.ndarray, window: np.ndarray) -> np.ndarray:
    """``COMPLEX_DTYPE`` grid of a real ``(..., G, G)`` model, divided by the
    signed ``window`` along both axes: one real-to-complex transform, whose
    half plane is written with the checkerboard and mirrored into the other
    half by conjugate symmetry."""
    g = model.shape[-1]
    h = g // 2 + 1
    plane = np.empty(model.shape, dtype=FLOAT_DTYPE)
    plane[...] = model
    # scaled by G**2 here and divided by it in the transform: numpy runs a
    # unit-norm single-precision FFT ~2.5x slower than a forward-normalised one
    apply_grid_correction(plane, window, g * g)
    spectrum = np.fft.rfft2(plane, norm="forward")
    del plane
    grid = np.empty(model.shape, dtype=COMPLEX_DTYPE)
    _checkerboard(spectrum, grid[..., :h])
    # grid[k] = conj grid[-k] for the columns past G/2
    mirror = slice(h - 2, 0, -1)
    np.conjugate(grid[..., :1, mirror], out=grid[..., :1, h:])
    np.conjugate(grid[..., :0:-1, mirror], out=grid[..., 1:, h:])
    return grid


def model_image_to_grid(
    model_image: np.ndarray,
    gridspec: GridSpec,
    taper: str = "spheroidal",
    taper_beta: float = 9.0,
) -> np.ndarray:
    """Prepare a model image for degridding: taper pre-correction + FFT.

    ``model_image`` is ``(..., G, G)`` (e.g. a real ``(G, G)`` Stokes-I
    plane, or ``(4, G, G)`` per polarisation product).  It is rounded to
    ``FLOAT_DTYPE`` once and transformed in single precision; a complex
    model's real and imaginary parts each go through that same real
    transform, so a real plane gives the same grid bit for bit whether it
    comes alone or inside a complex stack.  Returns the ``COMPLEX_DTYPE``
    model grid ready for :meth:`repro.core.IDG.degrid`.
    """
    g = gridspec.grid_size
    if model_image.shape[-1] != g or model_image.shape[-2] != g:
        raise ValueError(
            f"model image pixel axes {model_image.shape[-2:]} do not match grid size {g}"
        )
    window = _signed_window(g, taper, taper_beta)
    grid = _real_model_grid(np.real(model_image), window)
    if np.iscomplexobj(model_image):
        imaginary = _real_model_grid(model_image.imag, window)
        imaginary *= 1j
        grid += imaginary
    return grid


def stokes_i_image(image_4pol: np.ndarray) -> np.ndarray:
    """Stokes-I image from a 4-polarisation image.

    ``I = Re((XX + YY) / 2)`` for the ``B = I * eye`` brightness convention
    used throughout the tests.  :func:`dirty_image_from_grid` already
    returns each plane's real part, which implements the
    conjugate-visibility identity: for a real sky, ``Re(I_half) ==
    I_hermitian`` — the image one would get by also gridding every
    visibility's implicit conjugate at ``(-u, -v, -w)`` and normalising by
    the doubled weight (the ``2`` from the conjugate pair and the ``1/2``
    from the doubled weight cancel).
    """
    if image_4pol.shape[0] != 4:
        raise ValueError("expected polarisation-major (4, ..., G, G) image")
    combined = 0.5 * (image_4pol[0] + image_4pol[3])
    return np.real(combined)


def find_peak(image: np.ndarray) -> tuple[int, int, float]:
    """(row, col, value) of the absolute-maximum pixel of a real image."""
    idx = int(np.argmax(np.abs(image)))
    row, col = divmod(idx, image.shape[1])
    return row, col, float(image[row, col])
