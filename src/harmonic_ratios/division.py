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

from . import multiindex as mi
from .multiindex import MultiIndex
from .polynomial import Polynomial, _Packing, _accumulate_product, _numerators
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


@dataclass
class DivisionOutcome:
    quotient: Union[Polynomial, TruncatedSeries]
    residual_verified: bool


def _divide_form(
    target: Dict[MultiIndex, Fraction], divisor: Polynomial
) -> Dict[MultiIndex, Fraction]:
    """Divide the term dict ``target`` by ``divisor`` in place; return the
    quotient terms.

    Leading-term reduction, largest monomial first.  A term whose monomial
    lt(divisor) does not divide is set aside: on return ``target`` holds
    exactly those terms, the remainder.  Reducing a term changes only
    smaller monomials, so a term is final once it is popped.

    The reduction is fraction-free.  The divisor's coefficients are cleared
    to integers l_beta over one denominator E, with l the leading one, and
    the target's to numerators over one denominator D.  A pending term is a
    numerator n and a power g, worth n / (D * l**g); reducing it gives the
    quotient term n * E / (D * l**(g+1)) and subtracts n * l_beta at power
    g + 1 from the term at alpha - lead + beta, after bringing the two to
    the larger power.  So the loop multiplies and adds integers only, and
    each output term becomes one ``Fraction`` at the end.  Monomials are
    packed keys (``_Packing``), whose order is the graded-then-prec order.
    """
    if not target:
        return {}
    lead, c_lead = divisor.leading_term()
    # every term keeps its degree or drops below it, so no coordinate
    # exceeds the larger of the two degrees
    pk = _Packing(divisor.dim, max(max(map(sum, target)), sum(lead)))
    pack, unpack = pk.pack, pk.unpack
    lead_key = pack(lead)
    l_nums, e = _numerators(divisor.terms)
    ell = c_lead.numerator * (e // c_lead.denominator)
    # the other terms of the divisor, as key offsets from its leading one
    tail = [
        (pack(beta) - lead_key, l)
        for beta, l in zip(divisor.terms, l_nums)
        if beta != lead
    ]
    t_nums, d = _numerators(target)
    pending = {pack(alpha): (n, 0) for alpha, n in zip(target, t_nums)}
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
    target.clear()
    for key, (m, h) in pending.items():
        target[unpack(key)] = Fraction(m, d * powers[h])
    return {
        unpack(key): Fraction(n * e, d * powers[g])
        for key, (n, g) in quotient.items()
    }


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

    remainder = dict(p.terms)
    quotient = Polynomial._trusted(p.dim, _divide_form(remainder, q))
    if remainder:
        lt_r = max(remainder, key=mi.graded_key)
        raise NotDivisible(
            f"leading monomial {lt_r} is not a multiple of {q.leading_term()[0]}"
        )
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


def _forms(s: TruncatedSeries) -> Dict[int, Dict[MultiIndex, Fraction]]:
    """The coefficients of ``s`` grouped by total degree."""
    forms: Dict[int, Dict[MultiIndex, Fraction]] = {}
    for alpha, c in s.terms.items():
        forms.setdefault(sum(alpha), {})[alpha] = c
    return forms


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

    u_forms, v_forms = _forms(u), _forms(v)
    leading = Polynomial(u.dim, v_forms[k])
    f_forms: List[Dict[MultiIndex, Fraction]] = []
    f_coeffs: Dict[MultiIndex, Fraction] = {}
    for d in range(n_out + 1):
        # u_(d+k) - sum_(j >= 1) v_(k+j) * f_(d-j); what L does not divide
        # is left behind and shows up in the residual check below
        target = dict(u_forms.get(d + k, {}))
        for j in range(1, d + 1):
            _accumulate_product(target, v_forms.get(k + j, {}), f_forms[d - j], sign=-1)
        f_d = _divide_form(target, leading)
        f_forms.append(f_d)
        f_coeffs.update(f_d)
    f = TruncatedSeries._trusted(u.dim, f_coeffs, center=u.center, max_degree=n_out)

    # full residual validation through degree n_out + k: an independent
    # multiplication u - v * f, not the remainders of the divisions above
    cut = n_out + k
    residual = {a: c for a, c in u.terms.items() if sum(a) <= cut}
    _accumulate_product(residual, v.terms, f.terms, sign=-1, max_degree=cut)
    if not residual:
        return DivisionOutcome(quotient=f, residual_verified=True)
    if strict:
        bad = min(residual, key=mi.graded_key)
        raise ResidualNonzero(
            f"residual coefficient at {bad} is {residual[bad]}; "
            "the inputs do not divide as series"
        )
    return DivisionOutcome(quotient=f, residual_verified=False)

