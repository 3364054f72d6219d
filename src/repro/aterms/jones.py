"""Vectorised Jones-matrix algebra over ``a x a`` correlations.

All functions operate on arrays of shape ``(..., a, a)`` and broadcast over
the leading axes, so a Jones *field* over an ``(n, n)`` image raster is simply
an ``(n, n, a, a)`` array.  ``a = 2`` is the full 2x2 Jones matrix of the four
correlations XX, XY, YX, YY; ``a = 1`` holds one correlation, the Stokes-I
sample ``0.5 (XX + YY)``, whose A-term is the complex factor of a field that
is a scalar times the identity (:func:`scalar_jones_fields`).  For ``a = 1``
every product below is one complex multiply per pixel.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.contracts import shape_checked
from repro.constants import ACCUM_DTYPE


def identity_jones(
    shape: tuple[int, ...] = (), dtype=ACCUM_DTYPE, a: int = 2
) -> np.ndarray:
    """Identity Jones field of shape ``shape + (a, a)``."""
    out = np.zeros(shape + (a, a), dtype=dtype)
    for i in range(a):
        out[..., i, i] = 1.0
    return out


@shape_checked(returns="(n, n, a, a)")
def identity_jones_field(n: int, dtype=ACCUM_DTYPE, a: int = 2) -> np.ndarray:
    """Identity ``(n, n, a, a)`` Jones field over an ``(n, n)`` image raster.

    The shared "no A-term" stand-in used by the gridder, degridder and
    reference kernels whenever only one station of a pair has a field.
    """
    return identity_jones((n, n), dtype=dtype, a=a)


def scalar_jones_fields(
    fields: dict[tuple[int, int], np.ndarray],
) -> dict[tuple[int, int], np.ndarray] | None:
    """The ``(..., 1, 1)`` factors of 2x2 fields that are each exactly a
    scalar times the identity at every pixel, or ``None``.

    For such a field ``A = alpha I`` both sandwiches reduce to one complex
    factor per pixel (``A_p B A_q^H = alpha_p conj(alpha_q) B``), so the
    Stokes-I sample can be gridded and degridded alone with the ``[..., :1,
    :1]`` entries as its 1x1 fields.  Any field with a non-zero off-diagonal
    or unequal diagonals (polarisation leakage, say) returns ``None``: its
    correlations mix, and only the four-correlation path is exact.
    """
    for field in fields.values():
        if (
            field[..., 0, 1].any()
            or field[..., 1, 0].any()
            or not np.array_equal(field[..., 0, 0], field[..., 1, 1])
        ):
            return None
    return {key: field[..., :1, :1] for key, field in fields.items()}


def jones_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product ``a @ b`` over the trailing ``a x a`` axes
    (broadcasting).

    Written out entry by entry, ``(a @ b)[i, k] = a[i, 0] b[0, k] + a[i, 1]
    b[1, k]``: each term is one elementwise product over the leading axes,
    which for an ``(G, N, N, 2, 2)`` bucket of fields runs about 6x faster
    than an ``einsum`` contraction over the two-element axes.  1x1 matrices
    are one elementwise product.
    """
    if a.shape[-1] == 1 and b.shape[-1] == 1:
        return a * b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    out[..., 0, 0] = a00 * b00 + a01 * b10
    out[..., 0, 1] = a00 * b01 + a01 * b11
    out[..., 1, 0] = a10 * b00 + a11 * b10
    out[..., 1, 1] = a10 * b01 + a11 * b11
    return out


def hermitian(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the trailing 2x2 axes."""
    return np.conj(np.swapaxes(a, -1, -2))


@shape_checked(a_p="(..., a, a)", b="(..., a, a)", a_q="(..., a, a)", returns="(..., a, a)")
def apply_sandwich(a_p: np.ndarray, b: np.ndarray, a_q: np.ndarray) -> np.ndarray:
    """``A_p @ B @ A_q^H`` — the measurement-equation corruption of brightness.

    This is the forward direction (degridding / prediction).  The adjoint used
    in gridding is ``A_p^H @ S @ A_q`` (see :mod:`repro.core.gridder`).  For
    1x1 fields it is ``a_p B conj(a_q)``.
    """
    return jones_multiply(jones_multiply(a_p, b), hermitian(a_q))


@shape_checked(a_p="(..., a, a)", s="(..., a, a)", a_q="(..., a, a)", returns="(..., a, a)")
def apply_adjoint_sandwich(a_p: np.ndarray, s: np.ndarray, a_q: np.ndarray) -> np.ndarray:
    """``A_p^H @ S @ A_q`` — the adjoint correction applied by the gridder
    (``conj(a_p) S a_q`` for 1x1 fields)."""
    return jones_multiply(jones_multiply(hermitian(a_p), s), a_q)


def jones_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of each 2x2 matrix (closed form, broadcasting).

    Raises ``LinAlgError`` if any matrix is singular (determinant 0).
    """
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    if np.any(det == 0):
        raise np.linalg.LinAlgError("singular Jones matrix")
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 1, 1] = a[..., 0, 0]
    out[..., 0, 1] = -a[..., 0, 1]
    out[..., 1, 0] = -a[..., 1, 0]
    return out / det[..., np.newaxis, np.newaxis]


def frobenius_norm(a: np.ndarray) -> np.ndarray:
    """Frobenius norm over the trailing 2x2 axes."""
    return np.sqrt((np.abs(a) ** 2).sum(axis=(-2, -1)))
