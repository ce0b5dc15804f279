"""Coefficient recursion for ratios of truncated series."""

from fractions import Fraction

import numpy as np
import pytest

from harmonic_ratios import (
    Polynomial,
    TruncatedSeries,
    catalog_get,
    series_ratio,
)
from harmonic_ratios import multiindex as mi
from harmonic_ratios.division import (
    InsufficientDegree,
    NotDivisible,
    ResidualNonzero,
    ZeroInput,
)

X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)


def poly_series(p: Polynomial, degree: int, center=None) -> TruncatedSeries:
    return TruncatedSeries.from_polynomial(p, degree, center)


def dense_ratio_oracle(u: TruncatedSeries, v: TruncatedSeries, n_out: int):
    """Independent oracle: solve u = v * f as one dense rational linear system.

    Unknowns are all f_beta with |beta| <= n_out; equations match every
    product coefficient of total degree <= n_out + k.  Plain Gaussian
    elimination on Fractions, no shared code with the recursion.
    """
    k = v.leading_degree()
    unknowns = list(mi.iter_up_to_degree(u.dim, n_out))
    col = {b: j for j, b in enumerate(unknowns)}
    equations = list(mi.iter_up_to_degree(u.dim, n_out + k))
    rows = []
    rhs = []
    for alpha in equations:
        row = [Fraction(0)] * len(unknowns)
        for beta in unknowns:
            if all(b <= a for b, a in zip(beta, alpha)):
                coeff = v.coefficient(mi.sub(alpha, beta))
                if coeff:
                    row[col[beta]] = coeff
        rows.append(row)
        rhs.append(u.coefficient(alpha))
    # Gaussian elimination (rows >= cols; consistent when u/v is a series)
    m, n = len(rows), len(unknowns)
    r = 0
    where = [-1] * n
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rhs[r], rhs[pivot] = rhs[pivot], rhs[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        rhs[r] *= inv
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
                rhs[i] -= f * rhs[r]
        where[c] = r
        r += 1
    assert all(w >= 0 for w in where), "oracle system is underdetermined"
    # remaining rows must be consistent
    for i in range(r, m):
        assert rhs[i] == 0, "oracle system is inconsistent"
    return {unknowns[c]: rhs[where[c]] for c in range(n) if rhs[where[c]] != 0}


class TestPolynomialRatios:
    def test_simple_quotient(self):
        u = poly_series((X * X - Y * Y) * (X * Y), 8)
        v = poly_series(X * Y, 8)
        out = series_ratio(u, v, 4)
        assert Polynomial(2, out.quotient.terms) == X * X - Y * Y
        assert out.residual_verified

    def test_agrees_with_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f_true = Polynomial(
                2,
                {
                    a: Fraction(int(rng.integers(-5, 6)))
                    for a in mi.iter_up_to_degree(2, 3)
                    if rng.random() < 0.5
                },
            )
            v_poly = X + Y * Y  # leading degree 1, pivot at (1, 0)
            u = poly_series(f_true * v_poly, 8)
            v = poly_series(v_poly, 8)
            got = series_ratio(u, v, 4).quotient
            oracle = dense_ratio_oracle(u, v, 4)
            assert dict(got.coefficients) == oracle

    def test_rotation_branch_agrees_with_oracle(self):
        # divisor x*y has zero pivot coefficient, which once forced a rotation
        f_true = X * X - Y * Y + Polynomial.constant(2, 3)
        u = poly_series(f_true * (X * Y), 10)
        v = poly_series(X * Y, 10)
        out = series_ratio(u, v, 4)
        assert v.coefficient((2, 0)) == 0
        assert not hasattr(out, "rotation")
        assert dict(out.quotient.coefficients) == dense_ratio_oracle(u, v, 4)

    def test_quotient_of_zero(self):
        u = TruncatedSeries(2, (0, 0), 8, {})
        v = poly_series(X, 8)
        out = series_ratio(u, v, 4)
        assert out.quotient.is_zero() and out.residual_verified


class TestTranscendentalRatio:
    def test_tanh_expansion(self):
        """u/v for (e^y sin x, cosh y sin x) is 1 + tanh y; the expected
        coefficients come from an independent 1D series division."""
        n = 8
        u = catalog_get("expsin").taylor((0, 0), n + 1)
        v = catalog_get("coshsin").taylor((0, 0), n + 1)
        out = series_ratio(u, v, n)
        assert out.residual_verified
        # sinh/cosh series in one variable, divided longhand
        import math

        sinh = [
            Fraction(1, math.factorial(j)) if j % 2 == 1 else Fraction(0)
            for j in range(n + 1)
        ]
        cosh = [
            Fraction(1, math.factorial(j)) if j % 2 == 0 else Fraction(0)
            for j in range(n + 1)
        ]
        tanh = [Fraction(0)] * (n + 1)
        rem = list(sinh)
        for j in range(n + 1):
            tanh[j] = rem[j]
            for i in range(j, n + 1):
                rem[i] -= tanh[j] * cosh[i - j]
        expected = {(0, 0): Fraction(1)}
        for j, c in enumerate(tanh):
            if c:
                expected[(0, j)] = expected.get((0, j), Fraction(0)) + c
        assert dict(out.quotient.coefficients) == expected


class TestFailures:
    def test_insufficient_degree(self):
        u = poly_series(X * X, 3)
        v = poly_series(X, 3)
        with pytest.raises(InsufficientDegree):
            series_ratio(u, v, 4)

    def test_not_divisible_low_leading_degree(self):
        u = poly_series(Polynomial.constant(2, 1), 6)
        v = poly_series(X, 6)
        with pytest.raises(NotDivisible):
            series_ratio(u, v, 2)

    def test_residual_nonzero_strict(self):
        u = poly_series(X * X + Y * Y * Y, 8)  # not a multiple of x*y
        v = poly_series(X * Y, 8)
        with pytest.raises(ResidualNonzero):
            series_ratio(u, v, 3)

    def test_residual_nonzero_lenient(self):
        u = poly_series(X * X + Y * Y * Y, 8)
        v = poly_series(X * Y, 8)
        out = series_ratio(u, v, 3, strict=False)
        assert not out.residual_verified

    def test_zero_divisor(self):
        u = poly_series(X, 4)
        v = TruncatedSeries(2, (0, 0), 4, {})
        with pytest.raises(ZeroInput):
            series_ratio(u, v, 2)

    def test_center_mismatch(self):
        u = poly_series(X, 4)
        v = poly_series(X, 4, center=(1, 0))
        with pytest.raises(ValueError):
            series_ratio(u, v, 2)


class TestOffOriginCenter:
    def test_shared_center(self):
        center = (Fraction(1, 2), Fraction(-1, 3))
        f_true = X + Y
        v_poly = X * Y - Polynomial.constant(2, Fraction(1, 7))
        u = poly_series(f_true * v_poly, 8, center)
        v = poly_series(v_poly, 8, center)
        out = series_ratio(u, v, 4)
        assert out.residual_verified
        # the quotient series must expand f_true about the same center
        expected = poly_series(f_true, 4, center)
        assert out.quotient.coefficients == expected.coefficients
