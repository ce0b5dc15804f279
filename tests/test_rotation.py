"""Exact rational orthogonal matrices."""

from fractions import Fraction

import numpy as np
import pytest

from harmonic_ratios.rotation import (
    RationalOrthogonalMatrix,
    cayley,
    cayley_from_params,
    identity,
    random_rotation,
    reflection_to,
)


def test_constructor_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        RationalOrthogonalMatrix(((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))))


def test_constructor_rejects_non_square():
    with pytest.raises(ValueError):
        RationalOrthogonalMatrix(((Fraction(1),), (Fraction(0), Fraction(1))))


def test_cayley_half_2d():
    rot = cayley_from_params(2, [Fraction(1, 2)])
    assert rot.rows == (
        (Fraction(3, 5), Fraction(-4, 5)),
        (Fraction(4, 5), Fraction(3, 5)),
    )


def test_cayley_3d_orthogonal():
    rot = cayley_from_params(3, [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)])
    # the dataclass validator ran; double-check determinant is +1 (a rotation)
    det = float(np.linalg.det(np.array(rot.rows, dtype=float)))
    assert det == pytest.approx(1.0, abs=1e-12)


def times(m, n):
    """The rows of the product of two matrices, exactly."""
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*n.rows))
        for row in m.rows
    )


def test_transpose_is_inverse():
    rot = cayley_from_params(2, [Fraction(1, 3)])
    assert times(rot, rot.transpose()) == identity(2).rows
    assert times(rot.transpose(), rot) == identity(2).rows


def test_apply_exact():
    # the image of e1 is the first column
    rot = cayley_from_params(2, [Fraction(1, 2)])
    img = rot.column(0)
    assert img == (Fraction(3, 5), Fraction(4, 5))
    # exact isometry
    assert sum(v * v for v in img) == 1


def test_column():
    rot = cayley_from_params(2, [Fraction(1, 2)])
    assert rot.column(0) == (Fraction(3, 5), Fraction(4, 5))


@pytest.mark.parametrize("w", [
    (Fraction(0), Fraction(1)),
    (Fraction(-1), Fraction(0)),
    (Fraction(-1, 3), Fraction(2, 3), Fraction(2, 3)),
    (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)),
])
def test_reflection_maps_e1_to_w(w):
    rot = reflection_to(w)  # the constructor checks exact orthogonality
    assert rot.column(0) == w
    assert rot.rows == rot.transpose().rows  # a reflection is symmetric


def test_random_rotation_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(5):
        rot = random_rotation(3, rng)
        assert times(rot, rot.transpose()) == identity(3).rows


def test_cayley_accepts_full_square_input():
    rot_a = cayley([[0, Fraction(1, 2)], [0, 0]])
    rot_b = cayley_from_params(2, [Fraction(1, 2)])
    assert rot_a.rows == rot_b.rows
