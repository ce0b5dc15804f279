"""Exactly orthogonal matrices with rational entries.

Rational orthogonal matrices are produced by the Cayley transform
O = (I - S)(I + S)^(-1) of a rational skew-symmetric S, or as the Householder
reflection that maps e1 to a rational unit vector.  Orthogonality is always
checked exactly, so a rotated polynomial keeps its harmonicity with no
rounding caveats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

Row = Tuple[Fraction, ...]


def _mat(rows: Sequence[Sequence]) -> Tuple[Row, ...]:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


@dataclass(frozen=True)
class RationalOrthogonalMatrix:
    """n x n rational matrix with M Mt = I, checked exactly on construction."""

    rows: Tuple[Row, ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(n):
                dot = sum(self.rows[i][k] * self.rows[j][k] for k in range(n))
                if dot != (1 if i == j else 0):
                    raise ValueError("matrix is not exactly orthogonal")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> Tuple[Fraction, ...]:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "RationalOrthogonalMatrix":
        n = self.dim
        return RationalOrthogonalMatrix(
            tuple(tuple(self.rows[j][i] for j in range(n)) for i in range(n))
        )


def identity(n: int) -> RationalOrthogonalMatrix:
    return RationalOrthogonalMatrix(
        tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    )


def reflection_to(w: Sequence) -> RationalOrthogonalMatrix:
    """Householder reflection I - 2 u u^T / (u^T u), u = e1 - w, which maps
    e1 to the rational unit vector w (w != e1)."""
    n = len(w)
    u = [int(i == 0) - Fraction(x) for i, x in enumerate(w)]
    uu = sum(x * x for x in u)
    return RationalOrthogonalMatrix(
        tuple(tuple(int(i == j) - 2 * u[i] * u[j] / uu for j in range(n)) for i in range(n))
    )


def cayley(skew_upper: Sequence[Sequence]) -> RationalOrthogonalMatrix:
    """Cayley transform of the skew-symmetric matrix with the given strict
    upper triangle (row-major list of rows of decreasing length, or a full
    square matrix whose lower part is ignored)."""
    rows = [[Fraction(v) for v in r] for r in skew_upper]
    n = len(rows)
    S = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rows[i][j] if len(rows[i]) == n else rows[i][j - i - 1]
            S[i][j] = v
            S[j][i] = -v
    # solve (I + S) X = (I - S) by rational Gaussian elimination
    aug = [
        [Fraction(int(i == j)) + S[i][j] for j in range(n)]
        + [Fraction(int(i == j)) - S[i][j] for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        pivot = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [vi - f * vc for vi, vc in zip(aug[i], aug[c])]
    return RationalOrthogonalMatrix(_mat([row[n:] for row in aug]))


def cayley_from_params(n: int, params: Sequence) -> RationalOrthogonalMatrix:
    """Cayley transform from the n(n-1)/2 strict-upper-triangle parameters."""
    expected = n * (n - 1) // 2
    if len(params) != expected:
        raise ValueError(f"need {expected} skew parameters for dim {n}")
    it = iter(params)
    rows = [[next(it) for _ in range(n - i - 1)] for i in range(n)]
    return cayley(rows)


def random_rotation(n: int, rng, max_num: int = 5) -> RationalOrthogonalMatrix:
    """Random rational rotation via Cayley with small random skew parameters."""
    m = n * (n - 1) // 2
    params = [
        Fraction(int(rng.integers(-max_num, max_num + 1)), int(rng.integers(1, max_num + 1)))
        for _ in range(m)
    ]
    return cayley_from_params(n, params)
