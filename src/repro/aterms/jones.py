"""Vectorised 2x2 Jones-matrix algebra.

All functions operate on arrays of shape ``(..., 2, 2)`` and broadcast over
the leading axes, so a Jones *field* over an ``(n, n)`` image raster is simply
an ``(n, n, 2, 2)`` array.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.contracts import shape_checked
from repro.constants import ACCUM_DTYPE


def identity_jones(shape: tuple[int, ...] = (), dtype=ACCUM_DTYPE) -> np.ndarray:
    """Identity Jones field of shape ``shape + (2, 2)``."""
    out = np.zeros(shape + (2, 2), dtype=dtype)
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = 1.0
    return out


@shape_checked(returns="(n, n, 2, 2)")
def identity_jones_field(n: int, dtype=ACCUM_DTYPE) -> np.ndarray:
    """Identity Jones field over an ``(n, n)`` image raster.

    The shared "no A-term" stand-in used by the gridder, degridder and
    reference kernels whenever only one station of a pair has a field.
    """
    return identity_jones((n, n), dtype=dtype)


def jones_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product ``a @ b`` over the trailing 2x2 axes (broadcasting).

    Written out entry by entry, ``(a @ b)[i, k] = a[i, 0] b[0, k] + a[i, 1]
    b[1, k]``: each term is one elementwise product over the leading axes,
    which for an ``(G, N, N, 2, 2)`` bucket of fields runs about 6x faster
    than an ``einsum`` contraction over the two-element axes.
    """
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


@shape_checked(a_p="(..., 2, 2)", b="(..., 2, 2)", a_q="(..., 2, 2)", returns="(..., 2, 2)")
def apply_sandwich(a_p: np.ndarray, b: np.ndarray, a_q: np.ndarray) -> np.ndarray:
    """``A_p @ B @ A_q^H`` — the measurement-equation corruption of brightness.

    This is the forward direction (degridding / prediction).  The adjoint used
    in gridding is ``A_p^H @ S @ A_q`` (see :mod:`repro.core.gridder`).
    """
    return jones_multiply(jones_multiply(a_p, b), hermitian(a_q))


@shape_checked(a_p="(..., 2, 2)", s="(..., 2, 2)", a_q="(..., 2, 2)", returns="(..., 2, 2)")
def apply_adjoint_sandwich(a_p: np.ndarray, s: np.ndarray, a_q: np.ndarray) -> np.ndarray:
    """``A_p^H @ S @ A_q`` — the adjoint correction applied by the gridder."""
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
