"""Multi-indices and their orderings.

A multi-index is a tuple of non-negative integers, one per variable; it names
the monomial x1^a1 * ... * xn^an and its total degree is the sum of entries.

Two orders are used throughout the package:

* ``prec`` -- the strict total order that compares coordinates from the last
  one backwards (last coordinate decides; ties move one coordinate to the
  left).  This is the order the series-division recursion is well-founded
  against.
* graded-then-prec -- compare total degrees first, break ties with ``prec``.
  This is a monomial order (compatible with addition of exponents) and is
  the global iteration/leading-term order for deterministic output.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence, Tuple

MultiIndex = Tuple[int, ...]


def validate(alpha: Sequence[int], dim: int | None = None) -> MultiIndex:
    """Return alpha as a tuple, checking entries are non-negative ints."""
    t = tuple(int(a) for a in alpha)
    if any(a < 0 for a in t):
        raise ValueError(f"multi-index entries must be non-negative: {t}")
    if dim is not None and len(t) != dim:
        raise ValueError(f"multi-index {t} has length {len(t)}, expected {dim}")
    return t


def prec(gamma: MultiIndex, beta: MultiIndex) -> bool:
    """Strict order: True iff gamma comes before beta (last coordinate decides)."""
    if len(gamma) != len(beta):
        raise ValueError("dimension mismatch")
    return tuple(reversed(gamma)) < tuple(reversed(beta))


def prec_key(alpha: MultiIndex) -> Tuple[int, ...]:
    """Sort key realizing ``prec``."""
    return tuple(reversed(alpha))


def graded_key(alpha: MultiIndex) -> Tuple[int, Tuple[int, ...]]:
    """Sort key realizing the graded-then-prec order."""
    return (sum(alpha), tuple(reversed(alpha)))


def add(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    return tuple(a + b for a, b in zip(alpha, beta))


def sub(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    """Componentwise difference; raises if any entry would go negative."""
    d = tuple(a - b for a, b in zip(alpha, beta))
    if any(x < 0 for x in d):
        raise ValueError(f"{alpha} - {beta} has a negative entry")
    return d


def iter_degree(dim: int, total: int) -> Iterator[MultiIndex]:
    """All multi-indices of the given dimension and exact total degree.

    Yielded in ``prec`` order (the stars-and-bars walk below happens to agree
    with it after sorting; we sort explicitly to keep the contract obvious).
    """
    if dim == 1:
        yield (total,)
        return
    out = []
    for cuts in combinations(range(total + dim - 1), dim - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(total + dim - 2 - prev)
        out.append(tuple(parts))
    out.sort(key=prec_key)
    yield from out


def iter_up_to_degree(dim: int, max_total: int) -> Iterator[MultiIndex]:
    """All multi-indices with total degree <= max_total, graded-then-prec order."""
    for d in range(max_total + 1):
        yield from iter_degree(dim, d)
