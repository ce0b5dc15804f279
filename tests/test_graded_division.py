"""Graded division against the rotated coefficient recursion it replaced.

``rotated_recursion`` is the former ``series_ratio`` core, kept here as the
oracle: rotate so that the divisor has a nonzero coefficient at
(k, 0, ..., 0), solve each ratio coefficient in ``prec`` order from one
shifted convolution equation, and rotate the result back.  An exact quotient
is unique, so on divisible inputs both must agree coefficient for
coefficient.
"""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from harmonic_ratios import (
    Polynomial,
    TruncatedSeries,
    bound_certificate,
    coefficient_bound_check,
    divide_by_harmonic,
    harmonic_basis,
    measure_growth,
    normalize_rotation,
    series_ratio,
    verify_certificate,
)
from harmonic_ratios import multiindex as mi
from harmonic_ratios.division import NotDivisible, ResidualNonzero

SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def rotated_recursion(u: TruncatedSeries, v: TruncatedSeries, n_out: int) -> TruncatedSeries:
    k = v.leading_degree()
    k_tilde = (k,) + (0,) * (u.dim - 1)
    if v.coefficient(k_tilde) != 0:
        rot = None
        u_r, v_r = u, v
    else:
        rot, _ = normalize_rotation(v)
        u_r, v_r = u.rotate(rot), v.rotate(rot)
    v_coeffs, u_coeffs = v_r.coefficients, u_r.coefficients
    c = v_coeffs[k_tilde]
    f_coeffs = {}
    for beta in sorted(mi.iter_up_to_degree(u.dim, n_out), key=mi.prec_key):
        rhs = u_coeffs.get(mi.add(beta, k_tilde), Fraction(0))
        for gamma, f_gamma in f_coeffs.items():
            if sum(gamma) > sum(beta):
                continue
            if not all(a <= b for a, b in zip(gamma, mi.add(beta, k_tilde))):
                continue
            assert mi.prec(gamma, beta)  # well-foundedness of the recursion
            vc = v_coeffs.get(mi.sub(mi.add(beta, k_tilde), gamma))
            if vc is not None:
                rhs -= f_gamma * vc
        if rhs:
            f_coeffs[beta] = rhs / c
    f_rot = TruncatedSeries(u.dim, u.center, n_out, f_coeffs)
    return f_rot if rot is None else f_rot.rotate(rot.transpose())


def e1(dim):
    return (1,) + (0,) * (dim - 1)


@st.composite
def harmonic_forms(draw, dim, k, zero_pivot):
    """A nonzero homogeneous harmonic q of degree k whose coefficient at
    (k, 0, ..., 0), which is q(e1), is zero or not as asked."""
    basis = harmonic_basis(dim, k)
    coeffs = [Fraction(c) for c in draw(
        st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))]
    pivots = [b.evaluate(e1(dim)) for b in basis]
    if zero_pivot:
        i = next(i for i, p in enumerate(pivots) if p)
        coeffs[i] -= sum(c * p for c, p in zip(coeffs, pivots)) / pivots[i]
    q = Polynomial.zero(dim)
    for c, b in zip(coeffs, basis):
        q = q + b.scale(c)
    assume(not q.is_zero())
    assume((q.evaluate(e1(dim)) == 0) == zero_pivot)
    return q


@st.composite
def dense_polys(draw, dim, lo, hi):
    """A polynomial with integer coefficients on most monomials of degree
    lo..hi."""
    terms = {}
    for alpha in mi.iter_up_to_degree(dim, hi):
        if sum(alpha) >= lo and draw(st.integers(0, 3)):
            terms[alpha] = draw(st.integers(-4, 4))
    return Polynomial(dim, terms)


@st.composite
def divisible_cases(draw, zero_pivot):
    dim = draw(st.integers(2, 4))
    k = draw(st.integers(1, 3 if dim < 4 else 2))
    n_f = draw(st.integers(0, 3 if dim < 4 else 2))
    q = draw(harmonic_forms(dim, k, zero_pivot))
    f = draw(dense_polys(dim, 0, n_f))
    # a divisor with higher-order terms exercises the sum over v_(k+j)
    h = draw(dense_polys(dim, k + 1, k + 1)) if draw(st.booleans()) else Polynomial.zero(dim)
    return q, f, q + h, n_f + draw(st.integers(0, 1))


def as_series(p, degree):
    return TruncatedSeries.from_polynomial(p, degree)


@pytest.mark.parametrize("zero_pivot", [True, False])
@SETTINGS
@given(data=st.data())
def test_series_ratio_matches_rotated_recursion(zero_pivot, data):
    q, f, v_poly, n_out = data.draw(divisible_cases(zero_pivot))
    k = q.total_degree()
    u = as_series(v_poly * f, n_out + k)
    v = as_series(v_poly, n_out + k)
    out = series_ratio(u, v, n_out)
    assert out.residual_verified
    assert out.quotient.coefficients == rotated_recursion(u, v, n_out).coefficients
    assert Polynomial(u.dim, out.quotient.terms) == f
    assert divide_by_harmonic(q * f, q).quotient == f


@pytest.mark.parametrize("zero_pivot", [True, False])
@SETTINGS
@given(data=st.data())
def test_no_strict_residual_sits_off_the_leading_monomial(zero_pivot, data):
    """Inputs that do not divide have no unique quotient; only the verdict
    and where the residual lives are fixed."""
    dim = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(1, 2))
    n_out = data.draw(st.integers(0, 3 if dim < 4 else 2))
    q = data.draw(harmonic_forms(dim, k, zero_pivot))
    u = as_series(data.draw(dense_polys(dim, k, n_out + k)), n_out + k)
    v = as_series(q, n_out + k)
    out = series_ratio(u, v, n_out, strict=False)
    full = u - v * out.quotient
    residual = TruncatedSeries(dim, u.center, n_out + k, {
        alpha: c for alpha, c in full.terms.items() if sum(alpha) <= n_out + k
    })
    assert out.residual_verified == residual.is_zero()
    if not out.residual_verified:
        with pytest.raises(ResidualNonzero):
            series_ratio(u, v, n_out)
        with pytest.raises(NotDivisible):
            divide_by_harmonic(Polynomial(dim, u.terms), q)
    lead = max(q.terms, key=mi.graded_key)
    assert not any(
        all(a <= b for a, b in zip(lead, alpha)) for alpha in residual.coefficients
    )


def stereographic_points(dim):
    """The candidate order ``normalize_rotation`` documents, written out
    independently."""
    for norm2 in itertools.count(1):
        m = int(norm2**0.5) + 1
        for z in itertools.product(range(-m, m + 1), repeat=dim - 1):
            if sum(x * x for x in z) == norm2:
                yield tuple(Fraction(x, 1 + norm2) for x in [1 - norm2] + [2 * x for x in z])


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("misses", [0, 1, 3, 6])
def test_normalize_rotation_skips_vanishing_candidates(dim, misses):
    """A product of linear forms that vanishes at e1 and at the first
    ``misses`` candidates: the reflection goes to the next one."""
    x = [Polynomial.variable(dim, i) for i in range(dim)]
    form = x[1]  # vanishes at e1
    candidates = stereographic_points(dim)
    for _ in range(misses):
        w = next(candidates)
        form = form * (x[0].scale(w[1]) - x[1].scale(w[0]) if w[:2] != (0, 0) else x[0])
    expected = next(w for w in candidates if form.evaluate(w) != 0)
    rot, k = normalize_rotation(form)
    assert k == misses + 1
    assert rot.column(0) == expected
    assert form.evaluate(rot.column(0)) != 0
    n = range(dim)
    assert all(
        sum(rot.rows[i][m] * rot.rows[j][m] for m in n) == (i == j) for i in n for j in n
    )


def test_normalize_rotation_identity_when_pivot_nonzero():
    x = [Polynomial.variable(4, i) for i in range(4)]
    rot, k = normalize_rotation(x[0] * x[0] - x[1] * x[1])
    assert k == 2 and rot.column(0) == e1(4)


def cpu_seconds(fn):
    t0 = time.process_time()
    result = fn()
    return result, time.process_time() - t0


def test_4d_xy_divisor_is_fast():
    """The rotation search this replaces was estimated at ~520 s in 4D."""
    x = [Polynomial.variable(4, i) for i in range(4)]
    q = x[0] * x[1]
    f = (x[0] + x[2]) ** 2 - x[3] * x[1] + Polynomial.constant(4, 3)
    (rot, k), elapsed = cpu_seconds(lambda: normalize_rotation(q))
    assert k == 2 and q.evaluate(rot.column(0)) != 0
    assert elapsed < 1.0
    u, v = as_series(q * f, 7), as_series(q, 7)
    out, elapsed = cpu_seconds(lambda: series_ratio(u, v, 5))
    assert Polynomial(4, out.quotient.terms) == f
    assert elapsed < 1.0


def test_4d_certificate_pipeline():
    """normalize_rotation -> measure_growth -> bound_certificate ->
    coefficient_bound_check, with the divisor x1 x2 - x3 x4 whose pivot
    coefficient is zero."""
    x = [Polynomial.variable(4, i) for i in range(4)]
    q = x[0] * x[1] - x[2] * x[3]
    f = x[0] - x[1] * x[2] + Polynomial.constant(4, 2)
    n = 4
    u, v = as_series(q * f, n + 2), as_series(q, n + 2)
    rot, k = normalize_rotation(v)
    u_r, v_r = u.rotate(rot), v.rotate(rot)
    a, c, r, k = measure_growth(u_r, v_r)
    cert = bound_certificate(a, c, r, k, n=4)
    assert verify_certificate(cert, n_check=4).passed
    f_r = series_ratio(u_r, v_r, n).quotient
    assert f_r.coefficients == as_series(f, n).rotate(rot).coefficients
    report = coefficient_bound_check(f_r, cert)
    assert report.passed, report.extremes
