"""The one exact product loop, and the series that is a polynomial.

``_accumulate_product`` does every multiplication of term maps: ``Polynomial``
products, the ratio series convolution and its residual check.  The oracles
below are plain ``Polynomial`` arithmetic and a plain nested loop.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from harmonic_ratios import Polynomial, TruncatedSeries
from harmonic_ratios import multiindex as mi
from harmonic_ratios.polynomial import _accumulate_product

SETTINGS = settings(max_examples=60, deadline=None)


def sparse_polys(dim):
    """Small sparse polynomials: few terms of degree <= 4, small rational
    coefficients, so that products often cancel."""
    index = st.tuples(*[st.integers(0, 2)] * dim)
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.dictionaries(index, coeff, max_size=6).map(lambda t: Polynomial(dim, t))


@st.composite
def poly_triples(draw):
    dim = draw(st.integers(2, 3))
    return tuple(draw(sparse_polys(dim)) for _ in range(3))


def truncated(p, degree):
    return Polynomial(p.dim, {a: c for a, c in p.terms.items() if sum(a) <= degree})


@SETTINGS
@given(polys=poly_triples(), cut=st.integers(0, 8))
def test_cut_product_is_the_full_product_truncated(polys, cut):
    p, q, _ = polys
    out = {}
    _accumulate_product(out, p.terms, q.terms, max_degree=cut)
    assert Polynomial(p.dim, out) == truncated(p * q, cut)
    assert all(c != 0 for c in out.values())


@SETTINGS
@given(polys=poly_triples())
def test_negative_accumulation_subtracts_the_product(polys):
    p, q, r = polys
    out = dict(r.terms)
    _accumulate_product(out, p.terms, q.terms, sign=-1)
    assert Polynomial(p.dim, out) == r - p * q
    assert all(c != 0 for c in out.values())


@SETTINGS
@given(polys=poly_triples())
def test_product_keeps_the_nested_loop_insertion_order(polys):
    p, q, _ = polys
    expected = {}
    for a, ca in p.terms.items():
        for b, cb in q.terms.items():
            key = mi.add(a, b)
            s = expected.get(key, Fraction(0)) + ca * cb
            if s:
                expected[key] = s
            else:
                expected.pop(key, None)
    assert list((p * q).terms.items()) == list(expected.items())


class TestSeriesIsAPolynomial:
    S = TruncatedSeries(2, (0, 0), 3, {(1, 0): 1, (1, 2): Fraction(-1, 2)})

    def test_equal_series(self):
        assert self.S == TruncatedSeries(2, (0, 0), 3, dict(self.S.coefficients))

    def test_center_or_degree_tells_series_apart(self):
        terms = dict(self.S.coefficients)
        assert self.S != TruncatedSeries(2, (Fraction(1, 2), 0), 3, terms)
        assert self.S != TruncatedSeries(2, (0, 0), 4, terms)

    def test_never_equal_to_a_bare_polynomial(self):
        p = self.S.as_polynomial()
        assert type(p) is Polynomial and p.terms == self.S.terms
        assert self.S != p and p != self.S

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(self.S)

    def test_arithmetic_gives_a_bare_polynomial(self):
        product = self.S * self.S
        assert type(product) is Polynomial
        assert product == self.S.as_polynomial() * self.S.as_polynomial()

    def test_coefficients_are_the_terms(self):
        assert self.S.coefficients is self.S.terms
        assert self.S.coefficient((1, 2)) == Fraction(-1, 2)
