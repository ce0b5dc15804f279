"""Truncated Taylor series with exact rational coefficients.

A ``TruncatedSeries`` stores the coefficients of an expansion

    sum_{|alpha| <= N}  c_alpha * (x - center)^alpha

up to a total degree N.  Coefficients are exact rationals; a missing index
means zero.  The series knows nothing about the function it truncates; all
operations are on the stored coefficients only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from . import multiindex as mi
from .multiindex import MultiIndex
from .polynomial import Polynomial, rotate
from .rotation import RationalOrthogonalMatrix


@dataclass(frozen=True)
class TruncatedSeries:
    dim: int
    center: Tuple[Fraction, ...]
    max_degree: int
    coefficients: Dict[MultiIndex, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.max_degree < 0:
            raise ValueError("truncation degree must be >= 0")
        center = tuple(Fraction(c) for c in self.center)
        if len(center) != self.dim:
            raise ValueError("center dimension mismatch")
        object.__setattr__(self, "center", center)
        clean: Dict[MultiIndex, Fraction] = {}
        for a, c in self.coefficients.items():
            a = mi.validate(a, self.dim)
            if sum(a) > self.max_degree:
                raise ValueError(f"index {a} exceeds truncation degree {self.max_degree}")
            c = Fraction(c)
            if c != 0:
                clean[a] = c
        object.__setattr__(self, "coefficients", clean)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_polynomial(
        p: Polynomial, max_degree: int, center: Sequence = None
    ) -> "TruncatedSeries":
        """Taylor expansion of a polynomial about ``center`` (default origin)."""
        if center is None:
            center = (Fraction(0),) * p.dim
        shifted = p.shift(center)
        coeffs = {a: c for a, c in shifted.terms.items() if sum(a) <= max_degree}
        return TruncatedSeries(p.dim, tuple(Fraction(c) for c in center), max_degree, coeffs)

    # -- queries -------------------------------------------------------------

    def coefficient(self, alpha: Sequence[int]) -> Fraction:
        return self.coefficients.get(mi.validate(alpha, self.dim), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coefficients

    def leading_degree(self) -> int:
        """Least total degree with nonzero coefficient; -1 if all zero."""
        if not self.coefficients:
            return -1
        return min(sum(a) for a in self.coefficients)

    def homogeneous_part(self, degree: int) -> Polynomial:
        """Degree-d part as a polynomial in the displacement variables."""
        return Polynomial(
            self.dim,
            {a: c for a, c in self.coefficients.items() if sum(a) == degree},
        )

    def as_polynomial(self) -> Polynomial:
        """The truncation as a polynomial in the displacement (x - center)."""
        return Polynomial(self.dim, dict(self.coefficients))

    def sorted_coefficients(self):
        return sorted(self.coefficients.items(), key=lambda t: mi.graded_key(t[0]))

    # -- operations ----------------------------------------------------------

    def truncate(self, max_degree: int) -> "TruncatedSeries":
        if max_degree > self.max_degree:
            raise ValueError("cannot extend a truncation")
        coeffs = {a: c for a, c in self.coefficients.items() if sum(a) <= max_degree}
        return TruncatedSeries(self.dim, self.center, max_degree, coeffs)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        n = min(self.max_degree, other.max_degree)
        out = {a: c for a, c in self.coefficients.items() if sum(a) <= n}
        for a, c in other.coefficients.items():
            if sum(a) <= n:
                s = out.get(a, Fraction(0)) - c
                if s:
                    out[a] = s
                else:
                    out.pop(a, None)
        return TruncatedSeries(self.dim, self.center, n, out)

    def mul_truncated(self, other: "TruncatedSeries", max_degree: int) -> "TruncatedSeries":
        """Exact product of the truncations, cut at ``max_degree``.

        The caller is responsible for choosing a cut low enough that all kept
        coefficients are fully determined by the inputs.
        """
        self._check_compatible(other)
        out: Dict[MultiIndex, Fraction] = {}
        for a, ca in self.coefficients.items():
            da = sum(a)
            for b, cb in other.coefficients.items():
                if da + sum(b) > max_degree:
                    continue
                key = mi.add(a, b)
                s = out.get(key, Fraction(0)) + ca * cb
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return TruncatedSeries(self.dim, self.center, max_degree, out)

    def rotate(self, matrix: RationalOrthogonalMatrix) -> "TruncatedSeries":
        """Orthogonal change of the displacement variables, center kept.

        The coefficients become those of the function x -> f(center + O(x - center)),
        so rotation acts on the local frame only.  Total degrees are preserved,
        hence the truncation degree is unchanged.
        """
        p = rotate(self.as_polynomial(), matrix)
        return TruncatedSeries(self.dim, self.center, self.max_degree, dict(p.terms))

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if self.center != other.center:
            raise ValueError("series have different centers")
