"""Unit tests for Jones algebra (2x2, and 1x1 for the Stokes-I sample)."""

import numpy as np
import pytest

from repro.aterms.jones import (
    apply_adjoint_sandwich,
    apply_sandwich,
    frobenius_norm,
    hermitian,
    identity_jones,
    jones_inverse,
    jones_multiply,
    scalar_jones_fields,
)


def _random_field(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape + (2, 2)) + 1j * rng.standard_normal(shape + (2, 2))


def test_identity_jones_shape_and_value():
    eye = identity_jones((3, 4))
    assert eye.shape == (3, 4, 2, 2)
    np.testing.assert_allclose(eye[1, 2], np.eye(2))


def test_multiply_matches_matmul():
    a, b = _random_field((5,), 1), _random_field((5,), 2)
    out = jones_multiply(a, b)
    for k in range(5):
        np.testing.assert_allclose(out[k], a[k] @ b[k])


def test_multiply_broadcasts():
    a = _random_field((), 3)  # single matrix
    b = _random_field((4, 4), 4)
    out = jones_multiply(a, b)
    assert out.shape == (4, 4, 2, 2)
    np.testing.assert_allclose(out[2, 2], a @ b[2, 2])


def test_hermitian_involution():
    a = _random_field((6,), 5)
    np.testing.assert_allclose(hermitian(hermitian(a)), a)


def test_hermitian_reverses_products():
    a, b = _random_field((), 6), _random_field((), 7)
    np.testing.assert_allclose(
        hermitian(jones_multiply(a, b)), jones_multiply(hermitian(b), hermitian(a))
    )


def test_sandwich_identity_is_noop():
    b = _random_field((8,), 8)
    eye = identity_jones((8,))
    np.testing.assert_allclose(apply_sandwich(eye, b, eye), b)


def test_adjoint_sandwich_is_adjoint_of_sandwich():
    """<A_p X A_q^H, Y> == <X, A_p^H Y A_q> under the Frobenius inner
    product — the identity that makes gridding the adjoint of degridding."""
    a_p, a_q = _random_field((), 9), _random_field((), 10)
    x, y = _random_field((), 11), _random_field((), 12)
    lhs = np.vdot(apply_sandwich(a_p, x, a_q), y)
    rhs = np.vdot(x, apply_adjoint_sandwich(a_p, y, a_q))
    assert lhs == pytest.approx(rhs)


def test_inverse_multiplies_to_identity():
    a = _random_field((10,), 13)
    inv = jones_inverse(a)
    prod = jones_multiply(a, inv)
    np.testing.assert_allclose(prod, identity_jones((10,)), atol=1e-10)


def test_inverse_rejects_singular():
    singular = np.zeros((2, 2), dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        jones_inverse(singular)


def test_frobenius_norm():
    a = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    assert frobenius_norm(a) == pytest.approx(np.sqrt(2))
    field = _random_field((3,), 14)
    np.testing.assert_allclose(
        frobenius_norm(field), [np.linalg.norm(field[k]) for k in range(3)]
    )


def test_one_by_one_sandwiches_are_complex_products():
    """For 1x1 fields the sandwiches are ``a_p B conj(a_q)`` and its
    adjoint ``conj(a_p) S a_q``: one complex product per pixel."""
    a_p, a_q, b = (_random_field((4, 4), seed)[..., :1, :1] for seed in (14, 15, 16))
    np.testing.assert_allclose(apply_sandwich(a_p, b, a_q), a_p * b * np.conj(a_q))
    np.testing.assert_allclose(
        apply_adjoint_sandwich(a_p, b, a_q), np.conj(a_p) * b * a_q
    )
    assert identity_jones((3,), a=1).shape == (3, 1, 1)


def test_scalar_fields_reduce_to_their_factor():
    """A scalar times the identity is exactly the 2x2 sandwich of its
    factor, so its Stokes-I sample needs only the 1x1 entry; a field with
    an off-diagonal term or unequal diagonals has no such factor."""
    factor = _random_field((5, 5), 17)[..., 0, 0]
    scalar = identity_jones((5, 5)) * factor[..., np.newaxis, np.newaxis]
    reduced = scalar_jones_fields({(0, 0): scalar, (1, 0): identity_jones((5, 5))})
    assert reduced[(0, 0)].shape == (5, 5, 1, 1)
    np.testing.assert_array_equal(reduced[(0, 0)][..., 0, 0], factor)
    b = _random_field((5, 5), 18)
    full = apply_sandwich(scalar, b, scalar)
    one = apply_sandwich(reduced[(0, 0)], b[..., :1, :1], reduced[(0, 0)])
    np.testing.assert_allclose(one[..., 0, 0], full[..., 0, 0])
    leaky = scalar.copy()
    leaky[..., 0, 1] = 1e-3
    assert scalar_jones_fields({(0, 0): scalar, (1, 0): leaky}) is None
    unequal = scalar.copy()
    unequal[..., 1, 1] *= 1.5
    assert scalar_jones_fields({(0, 0): unequal}) is None
