"""Truncated Taylor series with exact rational coefficients.

A ``TruncatedSeries`` is the polynomial

    sum_{|alpha| <= N}  c_alpha * (x - center)^alpha

in the displacement x - center, together with that center and the
truncation degree N.  It is a ``Polynomial`` in the displacement variables,
held in the same packed store, so queries, arithmetic and evaluation are
inherited; arithmetic returns a bare ``Polynomial``, and
``Polynomial(s.dim, s.terms)`` is the truncation as one.  ``coefficients``
is ``terms``, built afresh from the store on each read.  Like a
polynomial, a series compares by value and is unhashable.  The series
knows nothing about the function it truncates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .polynomial import Polynomial, rotate
from .rotation import RationalOrthogonalMatrix


class TruncatedSeries(Polynomial):
    """A polynomial in x - center whose terms all have degree <= max_degree."""

    __slots__ = ("center", "max_degree")

    def __init__(self, dim: int, center: Sequence, max_degree: int, coefficients=None):
        super().__init__(dim, coefficients)
        if max_degree < 0:
            raise ValueError("truncation degree must be >= 0")
        self.center = tuple(Fraction(c) for c in center)
        if len(self.center) != self.dim:
            raise ValueError("center dimension mismatch")
        self.max_degree = max_degree
        for a in coefficients or {}:  # a zero coefficient is still out of range
            if sum(a) > max_degree:
                raise ValueError(f"index {a} exceeds truncation degree {max_degree}")

    @property
    def coefficients(self):
        return self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.dim == other.dim
            and self.center == other.center
            and self.max_degree == other.max_degree
            and self._same_store(other)
        )

    @staticmethod
    def from_polynomial(
        p: Polynomial, max_degree: int, center: Sequence = None
    ) -> "TruncatedSeries":
        """Taylor expansion of a polynomial about ``center`` (default origin)."""
        center = (0,) * p.dim if center is None else center
        pk, nums, den = p.shift(center)._store
        if max_degree < 0:
            raise ValueError("truncation degree must be >= 0")
        limit = (max_degree + 1) << pk.degree_shift  # keys of degree <= max_degree
        return TruncatedSeries._from_store(
            p.dim, pk, {key: n for key, n in nums.items() if key < limit}, den,
            center=tuple(Fraction(c) for c in center), max_degree=max_degree,
        )

    def rotate(self, matrix: RationalOrthogonalMatrix) -> "TruncatedSeries":
        """Orthogonal change of the displacement variables, center kept.

        The coefficients become those of the function x -> f(center + O(x - center)),
        so rotation acts on the local frame only.  Total degrees are preserved,
        hence the truncation degree is unchanged.
        """
        return TruncatedSeries._from_store(
            self.dim, *rotate(self, matrix)._store,
            center=self.center, max_degree=self.max_degree,
        )
