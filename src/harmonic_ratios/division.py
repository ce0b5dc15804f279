"""Exact division by homogeneous harmonic polynomials and series ratios.

Both routines below divide by one homogeneous form with the kernel
``_divide_form``: leading-term reduction under the graded-then-prec monomial
order.  For a single divisor L this is decisive: the terms whose monomial
lt(L) does not divide are set aside as the remainder, and the dividend is a
multiple of L exactly when that remainder is empty.

``divide_by_harmonic`` divides a polynomial by a homogeneous harmonic
divisor with one call of the kernel.

``series_ratio`` computes the Taylor coefficients of the ratio u/v of two
series sharing a center.  With v = L + v_(k+1) + ..., where L is the leading
form and k its degree, the degree-d form of the ratio solves

    L * f_d = u_(d+k) - sum_(j >= 1) v_(k+j) * f_(d-j),

one exact division of forms per degree, in the original coordinates.  The
remainders of these divisions are the residual u - v*f, which is checked
exactly through degree n_out + k afterwards.

``normalize_rotation`` gives callers that need a nonzero divisor coefficient
at (k, 0, ..., 0), such as ``certificates.measure_growth``, an exact
orthogonal change of variables that provides one.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple, Union

from .polynomial import (
    Numerators,
    Polynomial,
    _accumulate_product,
    _aligned,
    _by_degree,
    _Packing,
    _reduced,
)
from .rotation import RationalOrthogonalMatrix, identity, reflection_to
from .series import TruncatedSeries


class DivisionError(Exception):
    """Base class for division failures."""


class NotHomogeneous(DivisionError):
    pass


class NotHarmonic(DivisionError):
    pass


class NotDivisible(DivisionError):
    """Reduction hit a leading monomial the divisor does not divide, or the
    dividend's leading degree is too low.  Signals that the divisor's zero
    set is not contained in the dividend's."""


class ResidualNonzero(DivisionError):
    """The computed quotient does not multiply back to the dividend; the
    inputs do not divide as series."""


class InsufficientDegree(DivisionError):
    pass


class ZeroInput(DivisionError):
    pass


# numerators by packed key over one positive denominator
Form = Tuple[Numerators, int]


@dataclass
class DivisionOutcome:
    quotient: Union[Polynomial, TruncatedSeries]
    residual_verified: bool


def _divide_form(
    target: Form, divisor: Form, pk: _Packing
) -> Tuple[Form, Form]:
    """Divide ``target`` by ``divisor``: (quotient, remainder).

    A form here is a pair (numerators by packed key, positive denominator),
    with the keys of both under ``pk``, which must hold the larger of the
    two degrees.  The results come as such pairs too, over one denominator
    each, not reduced, their terms in the order they were made.

    Leading-term reduction, largest monomial first.  A term whose monomial
    lt(divisor) does not divide is set aside: it goes to the remainder, and
    the target is a multiple of the divisor exactly when the remainder is
    empty.  Reducing a term changes only smaller monomials, so a term is
    final once it is popped.

    The reduction is fraction-free.  With the divisor's numerators l_beta
    over E, l the leading one, and the target's over D, a pending term is a
    numerator n and a power g, worth n / (D * l**g); reducing it gives the
    quotient term n * E / (D * l**(g+1)) and subtracts n * l_beta at power
    g + 1 from the term at alpha - lead + beta, after bringing the two to
    the larger power.  So the loop multiplies and adds integers only, and
    at the end every output term is brought to the largest power reached.
    The packed keys' order is the graded-then-prec order, and divisibility
    by the leading monomial is one test of the guard bits.
    """
    t_nums, d = target
    l_nums, e = divisor
    if not t_nums:
        return ({}, 1), ({}, 1)
    lead_key = max(l_nums)
    ell = l_nums[lead_key]
    # the other terms of the divisor, as key offsets from its leading one
    tail = [(beta - lead_key, l) for beta, l in l_nums.items() if beta != lead_key]
    pending = {key: (n, 0) for key, n in t_nums.items()}
    powers = [1]  # powers[g] = l**g
    quotient: Dict[int, Tuple[int, int]] = {}
    heap = [-key for key in pending]  # largest key pops first
    heapq.heapify(heap)
    while heap:
        key = -heapq.heappop(heap)
        if key not in pending or not pk.divides(lead_key, key):
            continue
        n, g = pending.pop(key)
        g += 1
        if g == len(powers):
            powers.append(powers[-1] * ell)
        quotient[key - lead_key] = (n, g)
        for offset, l in tail:
            gamma = key + offset
            old = pending.get(gamma)
            if old is None:
                heapq.heappush(heap, -gamma)
                pending[gamma] = (-n * l, g)
                continue
            m, h = old
            if h < g:
                m, h = m * powers[g - h], g
            s = m - n * l * powers[h - g]
            if s:
                pending[gamma] = (s, h)
            else:
                del pending[gamma]
    # everything over D * l**top, made positive
    top = len(powers) - 1
    den, sign = d * powers[top], 1
    if den < 0:
        den, sign = -den, -1
    e *= sign
    return (
        ({key: n * e * powers[top - g] for key, (n, g) in quotient.items()}, den),
        ({key: sign * m * powers[top - h] for key, (m, h) in pending.items()}, den),
    )


def divide_by_harmonic(p: Polynomial, q: Polynomial) -> DivisionOutcome:
    """Divide P by a homogeneous harmonic Q, exactly or not at all."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    if q.is_zero():
        raise ZeroInput("divisor is the zero polynomial")
    if not q.is_homogeneous():
        raise NotHomogeneous("divisor must be homogeneous")
    if not q.laplacian().is_zero():
        raise NotHarmonic("divisor must be harmonic")

    pk, (p_nums, q_nums) = _aligned(0, p._store, q._store)
    (quotient, den), (remainder, _) = _divide_form(
        (p_nums, p._store[2]), (q_nums, q._store[2]), pk
    )
    if remainder:
        raise NotDivisible(
            f"leading monomial {pk.unpack(max(remainder))} is not a multiple "
            f"of {pk.unpack(max(q_nums))}"
        )
    quotient = Polynomial._from_store(p.dim, pk, quotient, den)
    if q * quotient != p:
        raise ResidualNonzero("divisor times quotient does not give the dividend")
    return DivisionOutcome(quotient=quotient, residual_verified=True)


def _stereographic_points(dim: int) -> Iterator[Tuple[Fraction, ...]]:
    """Rational unit vectors (1 - |z|^2, 2z) / (1 + |z|^2), the inverse
    stereographic images of the integer points z of Z^(dim-1), by increasing
    |z|^2 and lexicographically within one |z|^2; z = 0 gives e1."""
    for norm2 in itertools.count(0):
        m = math.isqrt(norm2)
        for z in itertools.product(range(-m, m + 1), repeat=dim - 1):
            if sum(x * x for x in z) == norm2:
                yield tuple(
                    Fraction(x, 1 + norm2) for x in (1 - norm2, *(2 * x for x in z))
                )


def normalize_rotation(v: Polynomial) -> Tuple[RationalOrthogonalMatrix, int]:
    """An exact orthogonal O with (v o O) having a nonzero coefficient at
    (k, 0, ..., 0), where k is the leading degree of v.

    That coefficient is L(w) for the leading form L of v and w = O e1.  w is
    the first point of ``_stereographic_points`` with L(w) != 0; O is the
    identity if w = e1, else the Householder reflection that maps e1 to w.
    The search ends: L(w) * (1 + |z|^2)^k is a nonzero polynomial in z of
    degree at most 2k in each variable, so it does not vanish on the whole
    box [-k, k]^(dim-1) (Schwartz-Zippel).  A truncated series is the
    polynomial of its displacement.
    """
    if v.is_zero():
        raise ZeroInput("zero polynomial has no leading part")
    k, leading = v.leading_part()
    w = next(w for w in _stereographic_points(v.dim) if leading.evaluate(w) != 0)
    return (identity(v.dim) if w[0] == 1 else reflection_to(w)), k


def series_ratio(
    u: TruncatedSeries,
    v: TruncatedSeries,
    n_out: int,
    strict: bool = True,
) -> DivisionOutcome:
    """Taylor coefficients of u/v up to total degree ``n_out``.

    Both inputs must share center and dimension and be truncated at degree at
    least ``n_out + k`` where k is the leading degree of v.  On success the
    quotient series f satisfies u = v * f exactly through degree n_out + k;
    this is checked coefficient-by-coefficient.  With ``strict`` a failed
    check raises ResidualNonzero, otherwise the outcome carries
    ``residual_verified=False``; every nonzero residual coefficient then sits
    on a monomial that the leading monomial of v's leading form does not
    divide.
    """
    if u.dim != v.dim:
        raise ValueError("dimension mismatch")
    if u.center != v.center:
        raise ValueError("series have different centers")
    if v.is_zero():
        raise ZeroInput("division by a zero series")
    k = v.leading_degree()
    if u.max_degree < n_out + k or v.max_degree < n_out + k:
        raise InsufficientDegree(
            f"inputs must be truncated at degree >= {n_out + k} "
            f"(got {u.max_degree} and {v.max_degree})"
        )
    if u.is_zero():
        # the zero function is divisible by anything; the residual is trivially zero
        f = TruncatedSeries(u.dim, u.center, n_out, {})
        return DivisionOutcome(quotient=f, residual_verified=True)
    if u.leading_degree() < k:
        raise NotDivisible(
            f"numerator leading degree {u.leading_degree()} is below the "
            f"denominator leading degree {k}"
        )

    # every form of u, v and f under one packing, which holds degree n_out + k
    pk, (u_nums, v_nums) = _aligned(n_out + k, u._store, v._store)
    du, dv = u._store[2], v._store[2]
    shift = pk.degree_shift
    u_forms, v_forms = _by_degree(u_nums, shift), _by_degree(v_nums, shift)
    leading = (v_forms[k], dv)
    f_forms: List[Form] = []
    for d in range(n_out + 1):
        # u_(d+k) - sum_(j >= 1) v_(k+j) * f_(d-j) over one denominator;
        # what L does not divide is left behind and shows up in the
        # residual check below
        u_d = u_forms.get(d + k, {})
        parts = [
            (v_forms[k + j], f_forms[d - j])
            for j in range(1, d + 1)
            if k + j in v_forms and f_forms[d - j][0]
        ]
        den = math.lcm(du, *[dv * f_den for _, (_, f_den) in parts])
        target = {key: n * (den // du) for key, n in u_d.items()}
        for v_j, (f_j, f_den) in parts:
            _accumulate_product(target, v_j, f_j, -(den // (dv * f_den)))
        quotient, _ = _divide_form((target, den), leading, pk)
        f_forms.append(_reduced(*quotient))
    f_den = math.lcm(*[f_den for _, f_den in f_forms])
    f_nums: Dict[int, int] = {}
    for nums, den in f_forms:
        f_nums.update((key, n * (f_den // den)) for key, n in nums.items())
    f = TruncatedSeries._from_store(
        u.dim, pk, f_nums, f_den, center=u.center, max_degree=n_out
    )

    # full residual validation through degree n_out + k: an independent
    # multiplication u - v * f, not the remainders of the divisions above
    _, f_nums, f_den = f._store
    limit = (n_out + k + 1) << shift  # the keys of degree <= n_out + k
    den = math.lcm(du, dv * f_den)
    residual = {key: n * (den // du) for key, n in u_nums.items() if key < limit}
    _accumulate_product(residual, v_nums, f_nums, -(den // (dv * f_den)), limit)
    if not residual:
        return DivisionOutcome(quotient=f, residual_verified=True)
    if strict:
        bad = min(residual)
        raise ResidualNonzero(
            f"residual coefficient at {pk.unpack(bad)} is "
            f"{Fraction(residual[bad], den)}; the inputs do not divide as series"
        )
    return DivisionOutcome(quotient=f, residual_verified=False)
