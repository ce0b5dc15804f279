"""Exact division by homogeneous harmonic polynomials."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmonic_ratios import Polynomial, divide_by_harmonic, harmonic_basis, rotate
from harmonic_ratios.division import (
    NotDivisible,
    NotHarmonic,
    NotHomogeneous,
    ZeroInput,
    normalize_rotation,
)
from harmonic_ratios.rotation import cayley_from_params

X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)


class TestKnownCases:
    def test_textbook_pair(self):
        p = X**3 * Y - X * Y**3
        q = X * Y
        out = divide_by_harmonic(p, q)
        assert out.quotient == X * X - Y * Y
        assert out.residual_verified

    def test_quotient_times_divisor(self):
        p = (X * X - Y * Y) * (X**2 * Y - Y**3) + X * Y
        out = divide_by_harmonic(p * (X * Y), X * Y)
        assert out.quotient == p

    def test_divide_by_itself(self):
        q = X * X - Y * Y
        assert divide_by_harmonic(q, q).quotient == Polynomial.constant(2, 1)

    def test_zero_dividend(self):
        out = divide_by_harmonic(Polynomial.zero(2), X * Y)
        assert out.quotient.is_zero()


class TestRejections:
    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            divide_by_harmonic(X * X + Y * Y, X * Y)

    def test_non_harmonic_divisor(self):
        with pytest.raises(NotHarmonic):
            divide_by_harmonic(X**4, X * X)

    def test_non_homogeneous_divisor(self):
        with pytest.raises(NotHomogeneous):
            divide_by_harmonic(X * X, X + Polynomial.constant(2, 1))

    def test_zero_divisor(self):
        with pytest.raises(ZeroInput):
            divide_by_harmonic(X, Polynomial.zero(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            divide_by_harmonic(X, Polynomial.variable(3, 0))


def random_harmonic(dim, degree, rng):
    basis = harmonic_basis(dim, degree)
    while True:
        coeffs = [Fraction(int(rng.integers(-4, 5))) for _ in basis]
        q = Polynomial.zero(dim)
        for c, b in zip(coeffs, basis):
            q = q + b.scale(c)
        if not q.is_zero():
            return q


def random_polynomial(dim, max_degree, rng):
    terms = {}
    from harmonic_ratios import multiindex as mi

    for alpha in mi.iter_up_to_degree(dim, max_degree):
        if rng.random() < 0.3:
            terms[alpha] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4)))
    p = Polynomial(dim, terms)
    return p if not p.is_zero() else Polynomial.constant(dim, 1)


class TestRoundTrip:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_randomized(self, dim):
        rng = np.random.default_rng(11 + dim)
        for _ in range(20):
            q = random_harmonic(dim, int(rng.integers(1, 5)), rng)
            r = random_polynomial(dim, int(rng.integers(0, 4)), rng)
            out = divide_by_harmonic(q * r, q)
            assert out.quotient == r
            assert out.residual_verified

    def test_divisibility_is_rotation_invariant(self):
        rng = np.random.default_rng(3)
        rot = cayley_from_params(2, [Fraction(1, 3)])
        q = random_harmonic(2, 3, rng)
        r = random_polynomial(2, 3, rng)
        out = divide_by_harmonic(rotate(q * r, rot), rotate(q, rot))
        assert out.quotient == rotate(r, rot)


class TestNormalizeRotation:
    def test_already_normalized_uses_identity(self):
        rot, k = normalize_rotation(X * X - Y * Y)
        assert k == 2
        assert rot.column(0) == (Fraction(1), Fraction(0))

    def test_finds_rotation_when_pivot_vanishes(self):
        # x*y has no x^2 coefficient; a rotation must supply one
        rot, k = normalize_rotation(X * Y)
        assert k == 2
        lead = (X * Y).evaluate(rot.column(0))
        assert lead != 0

    def test_leading_part_of_series(self):
        from harmonic_ratios import TruncatedSeries

        s = TruncatedSeries.from_polynomial(X * Y + X**4, 4)
        rot, k = normalize_rotation(s)
        assert k == 2

    def test_first_stereographic_hit_as_reflection(self):
        # x*y vanishes at e1 and at the first candidates (0, -+1), from
        # z = -+1; the next, z = -2, gives w = (-3/5, -4/5)
        rot, k = normalize_rotation(X * Y)
        assert k == 2
        assert rot.column(0) == (Fraction(-3, 5), Fraction(-4, 5))
        assert rot.rows == rot.transpose().rows

    def test_takes_only_the_divisor(self):
        with pytest.raises(TypeError):
            normalize_rotation(X * Y, (Fraction(1, 2),))

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            normalize_rotation(Polynomial.zero(2))
