"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a dimension plus a map from multi-index to ``Fraction``.
Zero coefficients are never stored, so structural equality of the term maps
is polynomial identity.  All arithmetic is exact; floating-point evaluation
is a separate code path (`evaluate_array`) used only by the numeric layers.

Float evaluation sums the terms nested by axis, last axis outermost: the
terms are grouped by their exponent of the last axis, each group by its
exponent of the axis before, down to axis 0, and every level is summed in
increasing exponent, with each power x_i**e computed once per call.  The
order depends only on the terms, so a point's value is the same bits
whether it comes alone, in a batch or on a tensor grid.  The nesting, with
the coefficients as floats, is a plan built by the first float evaluation
and kept on the polynomial; exact construction and arithmetic never build
it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from . import multiindex as mi
from .multiindex import MultiIndex

Rational = Fraction
Terms = Dict[MultiIndex, Fraction]


class CoefficientOverflow(ArithmeticError):
    """A coefficient too large for any float: the polynomial has exact
    arithmetic but no float evaluation."""


class _Packing:
    """Multi-indices of one dimension packed into one int each.

    The key of a = (a_0, ..., a_(n-1)) is

        sum_i a_i * B**i  +  |a| * B**n,    B = 2**bits,

    with bits one more than the bit length of ``top``, a bound on every
    coordinate the keys hold.  Adding keys adds exponents and degrees, and
    the keys compare in graded-then-prec order (degree, then the last
    coordinate first).  The top bit of each coordinate field is a guard: it
    is 0 in every key, so that ``divides`` can test all fields at once.
    """

    __slots__ = ("bits", "shifts", "field", "degree_shift", "guards")

    def __init__(self, dim: int, top: int):
        self.bits = bits = int(top).bit_length() + 1
        self.degree_shift = width = bits * dim
        self.shifts = range(0, width, bits)
        self.field = field = (1 << bits) - 1
        # the field pattern 0...01 repeated, times the top bit of a field
        self.guards = ((1 << width) - 1) // field << (bits - 1)

    def pack(self, alpha: MultiIndex) -> int:
        key, bits = sum(alpha), self.bits
        for e in reversed(alpha):
            key = key << bits | e
        return key

    def unpack(self, key: int) -> MultiIndex:
        field = self.field
        return tuple([key >> s & field for s in self.shifts])

    def divides(self, lead: int, key: int) -> bool:
        """Whether the monomial of ``lead`` divides that of ``key``: the
        guards survive the fieldwise subtraction exactly when no field
        borrows."""
        guards = self.guards
        return (key | guards) - lead & guards == guards


def _numerators(terms: Terms) -> Tuple[List[int], int]:
    """The coefficients of ``terms`` as integer numerators over their least
    common denominator, and that denominator."""
    den = math.lcm(*[c.denominator for c in terms.values()])
    return [c.numerator * (den // c.denominator) for c in terms.values()], den


def _accumulate_product(
    out: Terms, p: Terms, q: Terms, sign: int = 1, max_degree: float = math.inf
) -> None:
    """out += sign * p * q in place, for term maps p and q.

    Only products of total degree <= ``max_degree`` are kept, and a sum
    that cancels is dropped.  The products are summed in Python ints: the
    monomials as packed keys (``_Packing``), each side's coefficients as
    numerators over that side's common denominator.  Then every monomial
    the product touched is merged into ``out`` with one ``Fraction``.
    New monomials go in in the order of the plain nested loop over p, then
    q; one whose running sum cancels goes in again where it reappears.  The
    terms that ``out`` already has keep their places unless the product
    cancels them.
    """
    if not p or not q:
        return
    top = max(map(max, p)) + max(map(max, q))
    dim = len(next(iter(p)))
    pk = _Packing(dim, top)
    pack = pk.pack
    p_nums, dp = _numerators(p)
    q_nums, dq = _numerators(q)
    p_items = [(pack(a), sign * n) for a, n in zip(p, p_nums)]
    q_items = list(zip(map(pack, q), q_nums))
    # the keys of degree > max_degree reach the limit; no product has a
    # degree above dim * top
    limit = int(min(max_degree, dim * top) + 1) << pk.degree_shift
    acc: Dict[int, int] = {}
    for ka, na in p_items:
        for kb, nb in q_items:
            key = ka + kb
            if key >= limit:
                continue
            s = acc.get(key, 0) + na * nb
            if s:
                acc[key] = s
            else:
                del acc[key]
    den, unpack = dp * dq, pk.unpack
    for key, n in acc.items():
        alpha = unpack(key)
        c = out.get(alpha)
        if c is None:
            out[alpha] = Fraction(n, den)
            continue
        n = c.numerator * den + n * c.denominator
        if n:
            out[alpha] = Fraction(n, c.denominator * den)
        else:
            del out[alpha]


def _float_plan(terms: Terms, dim: int):
    """The float evaluation plan of a term map: (level, powers).

    The terms are nested by axis, last axis outermost: one group per
    exponent of the last axis, each split into groups by its exponent of
    the axis before, and so on down to axis 0, where a group is one
    coefficient.  A level is a tuple of (value, factors) pairs in
    increasing exponent; the value is a float coefficient or a level of
    lower axes, and ``factors`` indexes the powers it is multiplied by, in
    axis order.  A group with a single subgroup is folded into its
    subgroup's pair (its factor appended), which multiplies in the same
    order as the nested sum.  ``powers`` lists the (axis, exponent) pairs
    of exponent >= 2; power index i < dim is x_i itself, index dim + j the
    j-th listed power.  A coefficient that no float holds raises
    ``CoefficientOverflow``.
    """
    powers = sorted({(i, e) for a in terms for i, e in enumerate(a) if e >= 2})
    index = {p: dim + j for j, p in enumerate(powers)}
    index.update({(i, 1): i for i in range(dim)})

    def nest(items, axis):
        by_exp: Dict[int, list] = {}
        for a, c in items:
            by_exp.setdefault(a[axis], []).append((a, c))
        level = []
        for e, group in sorted(by_exp.items()):
            if axis == 0:
                a, c = group[0]
                try:
                    value, factors = float(c), ()
                except OverflowError:
                    raise CoefficientOverflow(
                        "the polynomial's coefficients exceed the float range "
                        f"(the coefficient of {a} is about 10^"
                        f"{int(math.log10(abs(c.numerator)) - math.log10(c.denominator))})"
                    ) from None
            else:
                sub = nest(group, axis - 1)
                value, factors = sub[0] if len(sub) == 1 else (sub, ())
            level.append((value, factors + (index[axis, e],) if e else factors))
        return tuple(level)

    return (nest(list(terms.items()), dim - 1) if terms else ()), tuple(powers)


def _nested_sum(level, powers):
    """Value of a plan level (see ``_float_plan``) on the evaluated
    ``powers``: its pairs summed in order, each value times its factors.
    A level of one constant gives a float; an empty one gives None."""
    total = None
    for value, factors in level:
        v = value if type(value) is float else _nested_sum(value, powers)
        for k in factors:
            v = v * powers[k]
        if total is None:
            total = v
            continue
        try:
            total += v  # in place when total is an array that v fits into
        except ValueError:  # v spans an axis that total does not
            total = total + v
    return total


class Polynomial:
    """Immutable-by-convention sparse polynomial over the rationals."""

    # ``_plan``, the float evaluation plan, is set by the first
    # ``evaluate_array`` call; polynomials are immutable by convention, so
    # it never goes stale
    __slots__ = ("dim", "terms", "_plan")

    def __init__(self, dim: int, terms: Mapping[MultiIndex, object] | None = None):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = int(dim)
        clean: Terms = {}
        if terms:
            for alpha, c in terms.items():
                alpha = mi.validate(alpha, dim)
                c = Fraction(c)
                if c != 0:
                    clean[alpha] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, dim: int, terms: Terms, **slots) -> "Polynomial":
        """An instance of ``cls`` from terms its caller has checked.

        ``dim`` is >= 1, every exponent tuple is a tuple of ``dim``
        non-negative ints and every coefficient a ``Fraction``; zero
        coefficients are dropped.  ``slots`` sets a subclass's other slots,
        such as a series' center and truncation degree, as given.
        """
        p = cls.__new__(cls)
        p.dim, p.terms = dim, {a: c for a, c in terms.items() if c}
        for name, value in slots.items():
            setattr(p, name, value)
        return p

    @staticmethod
    def zero(dim: int) -> "Polynomial":
        return Polynomial(dim, {})

    @staticmethod
    def constant(dim: int, c) -> "Polynomial":
        return Polynomial(dim, {(0,) * dim: Fraction(c)})

    @staticmethod
    def variable(dim: int, idx: int) -> "Polynomial":
        if not 0 <= idx < dim:
            raise ValueError(f"variable index {idx} out of range for dim {dim}")
        e = [0] * dim
        e[idx] = 1
        return Polynomial(dim, {tuple(e): Fraction(1)})

    @staticmethod
    def monomial(dim: int, alpha: Sequence[int], coeff=1) -> "Polynomial":
        return Polynomial(dim, {mi.validate(alpha, dim): Fraction(coeff)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def leading_degree(self) -> int:
        """Smallest total degree with a nonzero term; -1 for zero."""
        if not self.terms:
            return -1
        return min(sum(a) for a in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(a) for a in self.terms}
        return len(degs) <= 1

    def coefficient(self, alpha: Sequence[int]) -> Fraction:
        return self.terms.get(mi.validate(alpha, self.dim), Fraction(0))

    def sorted_terms(self) -> List[Tuple[MultiIndex, Fraction]]:
        """Terms in graded-then-prec order (the canonical iteration order)."""
        return sorted(self.terms.items(), key=lambda t: mi.graded_key(t[0]))

    def leading_term(self) -> Tuple[MultiIndex, Fraction]:
        """Largest term under the graded-then-prec monomial order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        alpha = max(self.terms, key=mi.graded_key)
        return alpha, self.terms[alpha]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"Polynomial({self.dim}, 0)"
        parts = [f"{c}*x^{a}" for a, c in self.sorted_terms()]
        return "Polynomial(" + " + ".join(parts) + ")"

    # -- arithmetic --------------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, 0) + c
        return Polynomial._trusted(self.dim, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.dim, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial._trusted(self.dim, {a: c * v for a, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_dim(other)
        out: Terms = {}
        _accumulate_product(out, self.terms, other.terms)
        return Polynomial._trusted(self.dim, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.dim, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def partial(self, idx: int) -> "Polynomial":
        """Exact partial derivative with respect to variable idx."""
        out: Terms = {}
        for a, c in self.terms.items():
            if a[idx] == 0:
                continue
            b = list(a)
            b[idx] -= 1
            out[tuple(b)] = c * a[idx]
        return Polynomial._trusted(self.dim, out)

    def gradient(self) -> List["Polynomial"]:
        return [self.partial(i) for i in range(self.dim)]

    def laplacian(self) -> "Polynomial":
        out = Polynomial.zero(self.dim)
        for i in range(self.dim):
            out = out + self.partial(i).partial(i)
        return out

    def is_harmonic(self) -> bool:
        return self.laplacian().is_zero()

    # -- structure ---------------------------------------------------------

    def homogeneous_part(self, degree: int) -> "Polynomial":
        return Polynomial(
            self.dim, {a: c for a, c in self.terms.items() if sum(a) == degree}
        )

    def homogeneous_parts(self) -> List[Tuple[int, "Polynomial"]]:
        """Decompose into homogeneous pieces, degrees strictly increasing.

        Raises on the zero polynomial (it has no leading part).
        """
        if not self.terms:
            raise ValueError("zero polynomial has no homogeneous decomposition")
        buckets: Dict[int, Terms] = {}
        for a, c in self.terms.items():
            buckets.setdefault(sum(a), {})[a] = c
        return [
            (d, Polynomial(self.dim, buckets[d])) for d in sorted(buckets)
        ]

    def leading_part(self) -> Tuple[int, "Polynomial"]:
        """The nonzero homogeneous part of least degree."""
        return self.homogeneous_parts()[0]

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact evaluation at a point with rational (or int) coordinates."""
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for a, c in self.terms.items():
            m = c
            for x, e in zip(pt, a):
                if e:
                    m *= x**e
            total += m
        return total

    def evaluate_array(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorized float evaluation; coords is one array per variable.

        The arrays broadcast against each other, so a tensor grid can be
        given as the open mesh ``np.ix_(*axes)`` instead of full coordinate
        arrays.  The sum is nested by axis (see ``_float_plan``): the terms
        are grouped by their exponent of the last axis, each group by its
        exponent of the axis before, and so on down to axis 0, whose groups
        are single float coefficients.  Every level is the sum, in
        increasing exponent e, of its groups' values times x_i**e, and each
        power x_i**e is computed once per call.  Every point thus gets the
        same float operations whatever the form of its coordinates, so the
        result is bit for bit the same on an open mesh, a full mesh or a
        batch of any size; on an open mesh only the last axis's products
        and sums span the whole grid.  The plan is built on the first call
        and kept on the polynomial.
        """
        if len(coords) != self.dim:
            raise ValueError("coordinate array count mismatch")
        coords = [np.asarray(c, dtype=np.float64) for c in coords]
        try:
            level, powers = self._plan
        except AttributeError:
            self._plan = level, powers = _float_plan(self.terms, self.dim)
        total = _nested_sum(level, coords + [coords[i] ** e for i, e in powers])
        shape = np.broadcast(*coords).shape
        if isinstance(total, np.ndarray) and total.shape == shape:
            return total
        out = np.zeros(shape)  # w is constant or misses an axis
        if total is not None:
            out[...] = total
        return out

    # -- substitution ------------------------------------------------------

    def _substitute_forms(self, forms: Sequence["Polynomial"]) -> "Polynomial":
        """P(l_1, ..., l_n) for polynomials l_i, each power l_i^e built once."""
        cache: Dict[Tuple[int, int], Polynomial] = {}
        out = Polynomial.zero(self.dim)
        for a, coeff in self.terms.items():
            term = Polynomial.constant(self.dim, coeff)
            for i, e in enumerate(a):
                if e:
                    if (i, e) not in cache:
                        cache[i, e] = forms[i] ** e
                    term = term * cache[i, e]
            out = out + term
        return out

    def compose_linear(self, columns: Sequence[Sequence]) -> "Polynomial":
        """Substitute x_i <- sum_j M[i][j] * x_j for a rational matrix M.

        ``columns`` is the matrix as rows M[i][j]; the result is P(Mx).
        """
        rows = [[Fraction(v) for v in row] for row in columns]
        if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
            raise ValueError("matrix shape mismatch")
        return self._substitute_forms([
            Polynomial(self.dim, {tuple(int(j == t) for t in range(self.dim)): rows[i][j]
                                  for j in range(self.dim) if rows[i][j] != 0})
            for i in range(self.dim)
        ])

    def shift(self, center: Sequence) -> "Polynomial":
        """Taylor shift: return Q with Q(x) = P(x + center), exact."""
        c = [Fraction(v) for v in center]
        if len(c) != self.dim:
            raise ValueError("center dimension mismatch")
        return self._substitute_forms([
            Polynomial.variable(self.dim, i) + Polynomial.constant(self.dim, c[i])
            for i in range(self.dim)
        ])


def harmonic_basis(dim: int, degree: int) -> List[Polynomial]:
    """Exact rational basis of homogeneous harmonic polynomials.

    Solves the linear system "Laplacian of a general degree-d form vanishes"
    over the rationals by Gaussian elimination, so every returned polynomial
    is exactly harmonic.
    """
    monos = list(mi.iter_degree(dim, degree))
    target = list(mi.iter_degree(dim, degree - 2)) if degree >= 2 else []
    if not target:
        return [Polynomial.monomial(dim, m) for m in monos]
    row_of = {m: i for i, m in enumerate(target)}
    # matrix of the Laplacian: rows = degree-(d-2) monomials, cols = degree-d ones
    nrows, ncols = len(target), len(monos)
    mat = [[Fraction(0)] * ncols for _ in range(nrows)]
    for j, m in enumerate(monos):
        for i in range(dim):
            if m[i] >= 2:
                b = list(m)
                b[i] -= 2
                mat[row_of[tuple(b)]][j] += m[i] * (m[i] - 1)
    # rational row reduction
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [vi - f * vr for vi, vr in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        coeffs = {monos[fc]: Fraction(1)}
        for ri, pc in enumerate(pivots):
            v = -mat[ri][fc]
            if v:
                coeffs[monos[pc]] = v
        basis.append(Polynomial(dim, coeffs))
    return basis


def rotate(p: Polynomial, matrix) -> Polynomial:
    """Orthogonal change of variables: return P(Ox).

    The matrix must be a RationalOrthogonalMatrix (exact orthogonality is
    enforced by its constructor), so total degree and harmonicity are
    preserved exactly.
    """
    from .rotation import RationalOrthogonalMatrix

    if not isinstance(matrix, RationalOrthogonalMatrix):
        raise TypeError("rotate requires a RationalOrthogonalMatrix")
    if matrix.dim != p.dim:
        raise ValueError("matrix dimension mismatch")
    return p.compose_linear(matrix.rows)
