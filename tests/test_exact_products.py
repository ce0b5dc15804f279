"""The exact kernels, and the series that is a polynomial.

``_accumulate_product`` does every multiplication of term maps: ``Polynomial``
products, the ratio series convolution and its residual check.
``_divide_form`` does every division by a form.  Both compute on packed
stores; the tests call them through the two functions of those names below,
which take and give ``Fraction`` maps as the kernels once did.  The oracles
are plain ``Polynomial`` arithmetic and the ``Fraction`` loops that the
kernels replaced, ``fraction_product`` and ``fraction_divide_form``.
"""

import heapq
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from harmonic_ratios import Polynomial, TruncatedSeries, divide_by_harmonic, harmonic_basis
from harmonic_ratios import multiindex as mi
from harmonic_ratios import division, polynomial
from harmonic_ratios.division import NotDivisible
from harmonic_ratios.polynomial import _aligned

SETTINGS = settings(max_examples=60, deadline=None)


def _accumulate_product(out, p, q, sign=1, max_degree=math.inf):
    """out += sign * p * q for Fraction maps, by the store kernel: the
    three maps under one packing and over one denominator, and ``out``
    read back in its new order."""
    if not p or not q:
        return
    dim = len(next(iter(p)))
    stores = [Polynomial(dim, m)._store for m in (out, p, q)]
    pk, (o_nums, p_nums, q_nums) = _aligned(
        max(map(sum, p)) + max(map(sum, q)), *stores
    )
    d_out, d_p, d_q = (s[2] for s in stores)
    den = math.lcm(d_out, d_p * d_q)
    nums = {key: n * (den // d_out) for key, n in o_nums.items()}
    limit = None if max_degree == math.inf else (max_degree + 1) << pk.degree_shift
    polynomial._accumulate_product(nums, p_nums, q_nums, sign * (den // (d_p * d_q)), limit)
    out.clear()
    out.update((pk.unpack(key), Fraction(n, den)) for key, n in nums.items())


def _divide_form(target, divisor):
    """Divide the Fraction map ``target`` by ``divisor`` in place, by the
    store kernel: return the quotient map, and leave the remainder in
    ``target``, both in the kernel's order."""
    if not target:
        return {}
    store = Polynomial(divisor.dim, target)._store
    top = max(max(map(sum, target)), divisor.total_degree())
    pk, (t_nums, d_nums) = _aligned(top, store, divisor._store)
    (q_nums, q_den), (r_nums, r_den) = division._divide_form(
        (t_nums, store[2]), (d_nums, divisor._store[2]), pk
    )
    target.clear()
    target.update((pk.unpack(key), Fraction(n, r_den)) for key, n in r_nums.items())
    return {pk.unpack(key): Fraction(n, q_den) for key, n in q_nums.items()}


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


def fraction_product(out, p, q, sign=1, max_degree=math.inf):
    """out += sign * p * q, one Fraction operation per product."""
    q_items = [(b, cb, sum(b)) for b, cb in q.items()]
    for a, ca in p.items():
        room, ca = max_degree - sum(a), sign * ca
        for b, cb, db in q_items:
            if db > room:
                continue
            key = mi.add(a, b)
            s = out.get(key, 0) + ca * cb
            if s:
                out[key] = s
            else:
                out.pop(key, None)


def fraction_divide_form(target, divisor):
    """Leading-term reduction of ``target`` by ``divisor`` in Fractions."""
    lead, c_lead = divisor.sorted_terms()[-1]
    tail = [
        (tuple(b - a for a, b in zip(lead, beta)), c)
        for beta, c in divisor.terms.items()
        if beta != lead
    ]
    quotient = {}
    heap = [((-sum(a), tuple(-e for e in reversed(a))), a) for a in target]
    heapq.heapify(heap)
    while heap:
        _, alpha = heapq.heappop(heap)
        if alpha not in target or not all(a <= b for a, b in zip(lead, alpha)):
            continue
        q = target.pop(alpha) / c_lead
        quotient[mi.sub(alpha, lead)] = q
        for offset, c in tail:
            gamma = mi.add(alpha, offset)
            if gamma not in target:
                heapq.heappush(heap, ((-sum(gamma), tuple(-e for e in reversed(gamma))), gamma))
            s = target.get(gamma, 0) - q * c
            if s:
                target[gamma] = s
            else:
                del target[gamma]
    return quotient


def term_maps(dim, max_exp=3, max_size=8):
    index = st.tuples(*[st.integers(0, max_exp)] * dim)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    return st.dictionaries(index, coeff, max_size=max_size).map(
        lambda t: {a: c for a, c in t.items() if c}
    )


@st.composite
def map_triples(draw):
    dim = draw(st.integers(1, 4))
    return tuple(draw(term_maps(dim)) for _ in range(3))


# leading coefficients that clear to 1, -1, 7 over 3, a large prime, and
# a large prime over 5
LEADS = [Fraction(1), Fraction(-1), Fraction(7, 3), Fraction(1000003), Fraction(-5, 1000003)]


@st.composite
def divisions(draw):
    """(target, divisor): a divisor with one of ``LEADS`` as its leading
    coefficient, and a target that is a multiple of it plus a few terms."""
    dim = draw(st.integers(1, 4))
    divisor = Polynomial(dim, draw(term_maps(dim, max_exp=2, max_size=4)))
    if divisor.is_zero():
        divisor = Polynomial.variable(dim, dim - 1)
    _, c_lead = divisor.sorted_terms()[-1]
    divisor = divisor.scale(draw(st.sampled_from(LEADS)) / c_lead)
    target = divisor * Polynomial(dim, draw(term_maps(dim)))
    target = target + Polynomial(dim, draw(term_maps(dim, max_size=3)))
    return dict(target.terms), divisor


ORACLE = settings(max_examples=150, deadline=None)


class TestKernelsAgainstFractionLoops:
    @ORACLE
    @given(maps=map_triples(), cut=st.one_of(st.none(), st.integers(-1, 12)))
    def test_product_into_an_empty_map(self, maps, cut):
        p, q, _ = maps
        max_degree = math.inf if cut is None else cut
        out, expected = {}, {}
        _accumulate_product(out, p, q, max_degree=max_degree)
        fraction_product(expected, p, q, max_degree=max_degree)
        assert list(out.items()) == list(expected.items())
        assert all(type(c) is Fraction for c in out.values())

    @ORACLE
    @given(maps=map_triples(), cut=st.one_of(st.none(), st.integers(-1, 12)))
    def test_negative_product_into_a_nonempty_map(self, maps, cut):
        p, q, r = maps
        max_degree = math.inf if cut is None else cut
        out, expected = dict(r), dict(r)
        _accumulate_product(out, p, q, sign=-1, max_degree=max_degree)
        fraction_product(expected, p, q, sign=-1, max_degree=max_degree)
        assert out == expected and 0 not in out.values()
        # the terms of out that survive keep their places
        kept = [a for a in out if a in r]
        assert kept == [a for a in r if a in out]

    @ORACLE
    @given(case=divisions())
    def test_divide_form(self, case):
        target, divisor = case
        remainder, expected_remainder = dict(target), dict(target)
        quotient = _divide_form(remainder, divisor)
        expected = fraction_divide_form(expected_remainder, divisor)
        assert list(quotient.items()) == list(expected.items())
        assert list(remainder.items()) == list(expected_remainder.items())
        assert all(type(c) is Fraction for c in [*quotient.values(), *remainder.values()])

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(2, 4),
        degree=st.integers(1, 3),
        pick=st.integers(0, 100),
        lead=st.sampled_from(LEADS),
        r=st.data(),
    )
    def test_not_divisible_message(self, dim, degree, pick, lead, r):
        basis = harmonic_basis(dim, degree)
        q = basis[pick % len(basis)]
        q = q.scale(lead / q.sorted_terms()[-1][1])
        extra = Polynomial(dim, r.draw(term_maps(dim, max_size=3)))
        p = q * Polynomial(dim, r.draw(term_maps(dim))) + extra
        remainder = dict(p.terms)
        fraction_divide_form(remainder, q)
        if not remainder:
            assert divide_by_harmonic(p, q).residual_verified
            return
        lt_r = max(remainder, key=mi.graded_key)
        with pytest.raises(NotDivisible) as info:
            divide_by_harmonic(p, q)
        assert str(info.value) == (
            f"leading monomial {lt_r} is not a multiple of {q.sorted_terms()[-1][0]}"
        )

    def test_a_cancelled_monomial_goes_in_where_it_reappears(self):
        # x^2 gets 1, then -1 (dropped), then 3; x^3 gets 1, then -1
        p = Polynomial(1, {(0,): 1, (1,): 1, (2,): 1})
        q = Polynomial(1, {(2,): 1, (1,): -1, (0,): 3})
        expected = [((1,), 2), ((0,), 3), ((4,), 1), ((2,), 3)]
        assert list((p * q).terms.items()) == expected
        oracle = {}
        fraction_product(oracle, p.terms, q.terms)
        assert list(oracle.items()) == expected

    def test_a_term_of_out_cancelled_and_restored_keeps_its_place(self):
        # in the nested loop x^2 of out goes 1, 0, 3: the product's sums are
        # merged into out after the loop, so it is never dropped
        out = {(2,): Fraction(1), (3,): Fraction(5)}
        p = {(0,): Fraction(1), (1,): Fraction(1)}
        q = {(2,): Fraction(1), (1,): Fraction(-3)}
        _accumulate_product(out, p, q, sign=-1)
        assert list(out.items()) == [((2,), 3), ((3,), 4), ((1,), 3)]

    def test_wide_exponent_fields(self):
        # coordinates past 127 and 255 need wider packed fields
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p = x**200 * y**3 - Fraction(2, 3) * y**130 + Polynomial.constant(2, 5)
        q = Fraction(7, 3) * x**60 * y**2 - y**300
        out, expected = {}, {}
        _accumulate_product(out, p.terms, q.terms, max_degree=400)
        fraction_product(expected, p.terms, q.terms, max_degree=400)
        assert list(out.items()) == list(expected.items())
        target = dict((p * q).terms)
        quotient = _divide_form(target, q)
        assert Polynomial(2, quotient) == p and not target


class TestSeriesIsAPolynomial:
    S = TruncatedSeries(2, (0, 0), 3, {(1, 0): 1, (1, 2): Fraction(-1, 2)})

    def test_equal_series(self):
        assert self.S == TruncatedSeries(2, (0, 0), 3, dict(self.S.coefficients))

    def test_center_or_degree_tells_series_apart(self):
        terms = dict(self.S.coefficients)
        assert self.S != TruncatedSeries(2, (Fraction(1, 2), 0), 3, terms)
        assert self.S != TruncatedSeries(2, (0, 0), 4, terms)

    def test_never_equal_to_a_bare_polynomial(self):
        p = Polynomial(self.S.dim, self.S.terms)
        assert p.terms == self.S.terms
        assert self.S != p and p != self.S

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(self.S)

    def test_arithmetic_gives_a_bare_polynomial(self):
        product = self.S * self.S
        assert type(product) is Polynomial
        p = Polynomial(self.S.dim, self.S.terms)
        assert product == p * p

    def test_coefficients_are_the_terms(self):
        assert self.S.coefficients == self.S.terms
        assert self.S.coefficient((1, 2)) == Fraction(-1, 2)
