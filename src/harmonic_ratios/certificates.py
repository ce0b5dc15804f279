"""Convergence certificates for series-ratio coefficients.

A certificate packages constants A > 0 and R = (R1, ..., Rn) such that the
ratio coefficients obey |f_beta| <= A * R^beta, which gives absolute
convergence of the ratio series on the polydisc {|x_i| < 1/R_i}.

The construction takes growth data of the inputs -- |u_alpha|, |v_alpha|
bounded by a * r^|alpha|, the pivot coefficient |v_(k,0,...,0)| = c -- and
chooses R1 = t*r, R2 = ... = Rn = s*R1 with t and s doubled alternately
(t first, favouring r << R1) until the closed-form geometric-product bound

    (1 - R1/R2)^-1 ... (1 - R1/Rn)^-1 (1 - r/R1)^-1 - 1  <=  1 / (2 a0 r^k)

holds, where a0 = a/c and A = 2 a0 r^k.  ``verify_certificate`` then checks
the per-index inequality

    a0 r^|beta+kt| + a0 A sum_{*} R^gamma r^|beta+kt-gamma|  <=  A R^beta

exactly for every |beta| <= N (kt = (k,0,...,0); the star condition is
gamma <= beta+kt componentwise, |gamma| <= |beta|, gamma != beta).  The
verification is independent of the construction: it enumerates and sums,
it does not reuse the geometric shortcut.  It clears every denominator once,
so each slack is one integer, and it sweeps beta depth-first: the sum over
gamma factors by coordinate, and each coordinate prefix's truncated product
is folded once for all the indices beta that share it.

The sweep visits one index per class of indices that the inequality cannot
tell apart.  Coordinates with equal radius and equal shift (axis 0 carries
the extra k, every other axis none) form a group, read from the certificate
itself; swapping two values within a group leaves R^beta, |beta| and the box
gamma <= beta+kt the same up to that swap, so every term of the inequality
is unchanged.  The construction gives R2 = ... = Rn, so there a slack
depends only on beta_1 and the multiset of the tail; a certificate with
distinct radii has one-coordinate groups and sweeps every index.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

from . import multiindex as mi
from .reports import VerificationReport
from .series import TruncatedSeries


class IllFormedCertificate(ArithmeticError):
    """A constructed certificate fails its own construction inequalities."""


@dataclass(frozen=True)
class BoundCertificate:
    a0: Fraction          # a / c
    r: Fraction
    k: int
    n: int
    A: Fraction
    R: Tuple[Fraction, ...]

    def __post_init__(self):
        if self.a0 <= 0 or self.r <= 0 or self.A <= 0:
            raise ValueError("certificate constants must be positive")
        if self.k < 0 or self.n < 2:
            raise ValueError("need k >= 0 and n >= 2")
        if len(self.R) != self.n or any(ri <= 0 for ri in self.R):
            raise ValueError("R must be n positive radii")

    @property
    def polydisc(self) -> Tuple[Fraction, ...]:
        """Radii of the guaranteed convergence polydisc, 1/R_i per axis."""
        return tuple(1 / ri for ri in self.R)

    def product_slack(self) -> Fraction:
        """Threshold minus the geometric-product value; >= 0 iff the
        construction inequality holds."""
        prod = Fraction(1)
        for ri in self.R[1:]:
            prod *= 1 / (1 - self.R[0] / ri)
        prod *= 1 / (1 - self.r / self.R[0])
        return 1 / (2 * self.a0 * self.r**self.k) - (prod - 1)

    def is_well_formed(self) -> bool:
        return (
            self.a0 * self.r**self.k / self.A <= Fraction(1, 2)
            and all(ri >= self.r for ri in self.R)
            and self.r < self.R[0]
            and all(self.R[0] < ri for ri in self.R[1:])
            and self.product_slack() >= 0
        )


def bound_certificate(a, c, r, k: int, n: int) -> BoundCertificate:
    """Construct a certificate from input growth data (see module docstring)."""
    a, c, r = Fraction(a), Fraction(c), Fraction(r)
    if a <= 0 or c <= 0 or r <= 0:
        raise ValueError("a, c, r must be positive")
    if k < 0:
        raise ValueError("k must be non-negative")
    if n < 2:
        raise ValueError("n must be at least 2")
    a0 = a / c
    A = 2 * a0 * r**k

    def candidate(t: int, s: int) -> BoundCertificate:
        r1 = t * r
        return BoundCertificate(a0=a0, r=r, k=k, n=n, A=A, R=(r1,) + (s * r1,) * (n - 1))

    t, s = 2, 2
    double_t = True  # r << R1 is prioritized, per the construction recipe
    while (cert := candidate(t, s)).product_slack() < 0:
        if double_t:
            t *= 2
        else:
            s *= 2
        double_t = not double_t
    if not cert.is_well_formed():
        raise IllFormedCertificate(f"constructed certificate {cert} is not well formed")
    return cert


def _scaled_ints(cert: BoundCertificate) -> Tuple[int, int, List[int]]:
    """Common denominator d and the integers d*r, [d*R_i]."""
    dens = [cert.r.denominator] + [ri.denominator for ri in cert.R]
    d = math.lcm(*dens)
    return d, int(cert.r * d), [int(ri * d) for ri in cert.R]


def _add_shifted(S: List[int], P: List[int], c: int, shift: int) -> None:
    """S += c * z^shift * P in place, truncated at len(S) - 1."""
    S[shift:] = [s + c * p for s, p in zip(S[shift:], P)]


def _class_links(R_i: List[int], k: int) -> List[Tuple[int, int]]:
    """For each coordinate, the previous coordinate of its group (equal
    radius, equal shift) or -1, and its 1-based rank within the group."""
    last: dict = {}
    links: List[Tuple[int, int]] = []
    for i, Ri in enumerate(R_i):
        key = (Ri, k if i == 0 else 0)
        j = last.get(key, -1)
        links.append((j, links[j][1] + 1 if j >= 0 else 1))
        last[key] = i
    return links


def _star_products(
    R_pows: List[List[int]], k: int, links: List[Tuple[int, int]],
    prefix: mi.MultiIndex, runs: Tuple[int, ...], count: int,
    P: List[int], R_prefix: int,
) -> Iterator[Tuple[mi.MultiIndex, int, int, List[int]]]:
    """Yield (beta, count, (d*R)^beta, S) for every class representative
    beta that extends ``prefix`` with |beta| <= len(P) - 1, depth-first.

    A representative's values do not increase along each group of
    ``links`` (see ``_class_links``); count is the number of indices in its
    class, the product over the groups of (group size)! / prod (number of
    coordinates holding each value)!.  It is kept along the descent: the
    coordinate of rank q in its group that continues a run of rho equal
    values multiplies it by q / rho.  ``runs`` holds each prefix
    coordinate's run length.

    P is the product over the prefix's coordinates of sum_{e <= bound_i}
    (d*R_i)^e z^e, truncated at len(P) - 1 (bound_0 carries the extra k).
    S[m] for m <= |beta| is the sum of (d*R)^gamma over gamma <= beta + kt
    with |gamma| = m.  S is folded in place: read it before resuming.
    """
    i, N = len(prefix), len(P) - 1
    pows = R_pows[i]
    j, rank = links[i]
    lo = k if i == 0 else 0
    top = N - sum(prefix) if j < 0 else min(N - sum(prefix), prefix[j])
    S = list(P)
    for e in range(1, lo + 1):
        _add_shifted(S, P, pows[e], e)
    for b in range(top + 1):
        if b:
            # bound b + lo - 1 -> b + lo adds one shifted multiple of P
            _add_shifted(S, P, pows[b + lo], b + lo)
        run = runs[j] + 1 if j >= 0 and b == prefix[j] else 1
        beta, R_beta = prefix + (b,), R_prefix * pows[b]
        # an integer: the class counts of a prefix are multinomials
        beta_count = count * rank // run
        if i == len(R_pows) - 1:
            yield beta, beta_count, R_beta, S
        else:
            yield from _star_products(
                R_pows, k, links, beta, runs + (run,), beta_count, S, R_beta
            )


def verify_certificate(cert: BoundCertificate, n_check: int) -> VerificationReport:
    """Check the per-index inequality exactly for all |beta| <= n_check.

    All arithmetic is exact.  The inequality is cleared of every denominator
    once: the radii by their common denominator d (each side of the star sum
    is homogeneous of degree |beta| + k in the radii), a0 and A by their own.
    Each beta's slack is then one Python integer, d^(|beta|+k) * den(a0) *
    den(A) times the true slack; the worst index is the one with the least
    true slack, compared across degrees through powers of d.

    The star sum needs S[m] = sum of (d*R)^gamma over gamma <= beta+kt with
    |gamma| = m, for m <= |beta|: the coefficients of the product over the
    coordinates of sum_{e <= bound_i} (d*R_i)^e z^e.  The sweep
    (``_star_products``) walks beta depth-first, one coordinate at a time,
    and folds each prefix's product once, truncated at n_check, for every
    beta that shares the prefix; raising a coordinate's bound from b to b+1
    adds (d*R_i)^(b+1) z^(b+1) times the parent prefix.  Truncation at
    n_check leaves the coefficients of degree <= |beta| as they are.

    The sweep checks one index per class: coordinates with equal radius
    and equal shift, as read from ``cert`` (axis 0 joins only when k = 0),
    form a group, and permuting values within a group changes no term of
    the inequality.  The representative's values do not increase along each
    group; it stands for its class's count of indices, which
    ``indices_checked`` and ``violations`` add up, so both still count
    indices.  Ties for the worst index and the first violation are resolved
    in ``mi.iter_up_to_degree`` order (``mi.graded_key``), as if every
    index were checked in that order: within a class, the representative
    has the least ``mi.graded_key``, since that key compares the last
    coordinate first, so it is the index the full enumeration would pick.
    """
    if n_check < 0:
        raise ValueError("n_check must be non-negative")
    k, N = cert.k, n_check
    d, r_i, R_i = _scaled_ints(cert)
    max_pow = N + k + 1
    # (d*r)^(N+k-j) at index j: the slice [N-m : N+1] pairs S[0..m] with
    # the descending powers (d*r)^(m+k) ... (d*r)^k
    r_desc = [r_i**e for e in range(max_pow)][::-1]
    R_pows = [[Ri**e for e in range(max_pow)] for Ri in R_i]
    a_num, a_den = cert.a0.numerator, cert.a0.denominator
    A_num, A_den = cert.A.numerator, cert.A.denominator
    # slack = A (dR)^beta d^k - a0 (dr)^(|beta|+k) - a0 A star, times a_den A_den
    c_rhs = A_num * a_den * d**k
    c_free = a_num * A_den
    c_star = a_num * A_num

    d_pows = [d**e for e in range(N + 1)]
    worst_key: Optional[int] = None
    worst_beta: Optional[mi.MultiIndex] = None
    first_violation: Optional[mi.MultiIndex] = None
    violations = checked = 0
    links = _class_links(R_i, k)
    for beta, count, R_beta, S in _star_products(
        R_pows, k, links, (), (), 1, [1] + [0] * N, 1
    ):
        checked += count
        db = sum(beta)
        tail = r_desc[N - db : N + 1]
        # gamma = beta is excluded: it is the (d*R)^beta term of S[db]
        star = sum(map(operator.mul, S[: db + 1], tail)) - R_beta * tail[-1]
        slack = c_rhs * R_beta - c_free * tail[0] - c_star * star
        # the same multiple d^(N+k) den(a0) den(A) of the true slack for every beta
        key = slack * d_pows[N - db]
        if (
            worst_key is None
            or key < worst_key
            or (key == worst_key and mi.graded_key(beta) < mi.graded_key(worst_beta))
        ):
            worst_key, worst_beta = key, beta
        if slack < 0:
            violations += count
            if first_violation is None or mi.graded_key(beta) < mi.graded_key(first_violation):
                first_violation = beta

    return VerificationReport(
        name="certificate_inequality",
        passed=not violations,
        extremes={
            "worst_slack": float(Fraction(worst_key, a_den * A_den * d ** (N + k))),
            "worst_beta": list(worst_beta),
            "violations": violations,
        },
        samples={"indices_checked": checked},
        tolerance=0.0,
        notes=f"exact rational check for all |beta| <= {n_check}"
        + (f"; first violation at {first_violation}" if violations else ""),
    )


def measure_growth(
    u: TruncatedSeries, v: TruncatedSeries, r=1
) -> Tuple[Fraction, Fraction, Fraction, int]:
    """Measure (a, c, r, k) from truncations already normalized so that the
    divisor's (k, 0, ..., 0) coefficient is nonzero.

    To normalize, take ``O, _ = division.normalize_rotation(v)`` and pass
    ``u.rotate(O)`` and ``v.rotate(O)``; the ratio of the rotated pair is the
    rotated ratio, so its certificate bounds that series.

    a is the smallest rational with |u_alpha|, |v_alpha| <= a * r^|alpha| over
    every stored coefficient; c is |v_(k,0,...,0)| exactly.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("r must be positive")
    if v.is_zero():
        raise ValueError("divisor series is zero")
    k = v.leading_degree()
    k_tilde = (k,) + (0,) * (v.dim - 1)
    c = abs(v.coefficient(k_tilde))
    if c == 0:
        raise ValueError("divisor is not normalized: zero pivot coefficient")
    a = Fraction(0)
    for s in (u, v):
        for alpha, coeff in s.coefficients.items():
            bound = abs(coeff) / r ** sum(alpha)
            if bound > a:
                a = bound
    if a == 0:
        a = Fraction(1)
    return a, c, r, k


def coefficient_bound_check(
    f: TruncatedSeries, cert: BoundCertificate
) -> VerificationReport:
    """Check |f_beta| <= A * R^beta for every computed coefficient, exactly."""
    worst_ratio = Fraction(0)
    worst_beta: Optional[mi.MultiIndex] = None
    failures = checked = 0
    for beta in mi.iter_up_to_degree(f.dim, f.max_degree):
        checked += 1
        bound = cert.A
        for ri, b in zip(cert.R, beta):
            bound *= ri**b
        val = abs(f.coefficient(beta))
        ratio = val / bound
        if ratio > worst_ratio:
            worst_ratio, worst_beta = ratio, beta
        if val > bound:
            failures += 1
    return VerificationReport(
        name="coefficient_bound",
        passed=failures == 0,
        extremes={
            "worst_ratio": float(worst_ratio),
            "worst_beta": list(worst_beta) if worst_beta is not None else None,
            "violations": failures,
        },
        samples={"coefficients_checked": checked},
        tolerance=0.0,
        notes="exact comparison against A * R^beta",
    )
