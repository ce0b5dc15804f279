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

exactly in rational arithmetic for every |beta| <= N (kt = (k,0,...,0); the
star condition is gamma <= beta+kt componentwise, |gamma| <= |beta|,
gamma != beta).  The verification is independent of the construction: it
enumerates and sums, it does not reuse the geometric shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

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
    threshold = 1 / (2 * a0 * r**k)

    def product_minus_one(t: int, s: int) -> Fraction:
        prod = Fraction(1, 1) / (1 - Fraction(1, t))
        prod *= (Fraction(1) / (1 - Fraction(1, s))) ** (n - 1)
        return prod - 1

    t, s = 2, 2
    double_t = True  # r << R1 is prioritized, per the construction recipe
    while product_minus_one(t, s) > threshold:
        if double_t:
            t *= 2
        else:
            s *= 2
        double_t = not double_t
    r1 = t * r
    radii = (r1,) + (s * r1,) * (n - 1)
    cert = BoundCertificate(a0=a0, r=r, k=k, n=n, A=A, R=radii)
    if not cert.is_well_formed():
        raise IllFormedCertificate(f"constructed certificate {cert} is not well formed")
    return cert


def _scaled_ints(cert: BoundCertificate) -> Tuple[int, int, List[int]]:
    """Common denominator d and the integers d*r, [d*R_i]."""
    dens = [cert.r.denominator] + [ri.denominator for ri in cert.R]
    d = math.lcm(*dens)
    return d, int(cert.r * d), [int(ri * d) for ri in cert.R]


def verify_certificate(cert: BoundCertificate, n_check: int) -> VerificationReport:
    """Exhaustively check the per-index inequality for all |beta| <= n_check.

    All arithmetic is exact.  Internally the inequality is cleared of
    denominators (each side of the star sum is homogeneous of degree
    |beta| + k in the radii), so the inner sums run over Python integers.
    """
    n, k = cert.n, cert.k
    d, r_i, R_i = _scaled_ints(cert)
    max_pow = n_check + k + 1
    r_pows = [r_i**e for e in range(max_pow)]
    R_pows = [[Ri**e for e in range(max_pow)] for Ri in R_i]
    d_pow_k = d**k

    worst_slack: Optional[Fraction] = None
    worst_beta: Optional[mi.MultiIndex] = None
    failures = []
    checked = 0

    for beta in mi.iter_up_to_degree(n, n_check):
        checked += 1
        db = sum(beta)
        bounds = (beta[0] + k,) + beta[1:]
        # S[m] = sum over gamma <= beta+kt with |gamma| = m of (d*R)^gamma,
        # built coordinate by coordinate as a truncated polynomial product
        S = [0] * (db + 1)
        S[0] = 1
        for i, b in enumerate(bounds):
            new = [0] * (db + 1)
            pows = R_pows[i]
            for m, acc in enumerate(S):
                if acc == 0:
                    continue
                top = min(b, db - m)
                for e in range(top + 1):
                    new[m + e] += acc * pows[e]
            S = new
        R_beta = 1
        for i, b in enumerate(beta):
            R_beta *= R_pows[i][b]
        S[db] -= R_beta  # exclude gamma = beta
        # scaled star sum: sum_m S[m] * (d*r)^(|beta|+k-m) = d^(|beta|+k) * true sum
        star = sum(S[m] * r_pows[db + k - m] for m in range(db + 1))
        lhs = cert.a0 * r_pows[db + k] + cert.a0 * cert.A * star
        rhs = cert.A * R_beta * d_pow_k
        slack = Fraction(rhs) - lhs
        if worst_slack is None or slack < worst_slack:
            worst_slack, worst_beta = slack, beta
        if slack < 0:
            failures.append(beta)

    # report the slack in unscaled units at the worst index
    scale = Fraction(d) ** (sum(worst_beta) + k)
    return VerificationReport(
        name="certificate_inequality",
        passed=not failures,
        extremes={
            "worst_slack": float(worst_slack / scale),
            "worst_beta": list(worst_beta),
            "violations": len(failures),
        },
        samples={"indices_checked": checked},
        tolerance=0.0,
        notes=f"exact rational check for all |beta| <= {n_check}"
        + (f"; first violation at {failures[0]}" if failures else ""),
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
    failures = 0
    for beta in mi.iter_up_to_degree(f.dim, f.max_degree):
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
        samples={"coefficients_checked": sum(1 for _ in mi.iter_up_to_degree(f.dim, f.max_degree))},
        tolerance=0.0,
        notes="exact comparison against A * R^beta",
    )
