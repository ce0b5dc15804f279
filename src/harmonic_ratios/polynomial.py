"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a dimension plus its terms, each a multi-index and a
nonzero rational coefficient.  The terms are held in a packed store: every
multi-index is one int key (``_Packing``), every coefficient an integer
numerator over one denominator shared by all terms, with that denominator
positive and coprime to the numerators taken together.  The store is
canonical, so structural equality of stores is polynomial identity.  All
exact arithmetic and the exact kernels (``_accumulate_product`` here,
``division._divide_form``) run on stores in Python ints, and the parser and
formatter of ``io_formats`` read and write stores directly.  The store is
the only representation: the queries (coefficients, the terms in order,
homogeneous parts, exact evaluation) read it, and ``terms``, the map from
multi-index to ``Fraction``, is built afresh from it on every read.
Floating-point evaluation is a separate code path (`evaluate_array`) used
only by the numeric layers.

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

import functools
import math
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import multiindex as mi
from .multiindex import MultiIndex

Terms = Dict[MultiIndex, Fraction]
Numerators = Dict[int, int]


class CoefficientOverflow(ArithmeticError):
    """A coefficient too large for any float: the polynomial has exact
    arithmetic but no float evaluation."""


class _Packing:
    """Multi-indices of one dimension packed into one int each.

    The key of a = (a_0, ..., a_(n-1)) is

        sum_i a_i * B**i  +  |a| * B**n,    B = 2**bits,

    and ``top`` = 2**(bits - 1) - 1 bounds every coordinate the keys hold.
    Adding keys adds exponents and degrees, and the keys compare in
    graded-then-prec order (degree, then the last coordinate first).  The
    top bit of each coordinate field is a guard: it is 0 in every key, so
    that ``divides`` can test all fields at once.  ``_packing`` hands out
    one shared instance per dimension and width, so stores under one
    packing are told by identity.
    """

    __slots__ = ("dim", "bits", "top", "shifts", "field", "degree_shift", "guards")

    def __init__(self, dim: int, bits: int):
        self.dim, self.bits = dim, bits
        self.top = (1 << (bits - 1)) - 1
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


@functools.lru_cache(maxsize=None)
def _packing_of_width(dim: int, bits: int) -> _Packing:
    return _Packing(dim, bits)


def _packing(dim: int, top: int) -> _Packing:
    """The shared packing of ``dim`` coordinates up to at least ``top``;
    fields are at least 8 bits wide, so most stores share one packing."""
    return _packing_of_width(dim, max(8, int(top).bit_length() + 1))


# A store: (packing, numerators by key, denominator).
Store = Tuple[_Packing, Numerators, int]


def _reduced(nums: Numerators, den: int) -> Tuple[Numerators, int]:
    """numerators over a positive ``den``, divided by their common factor
    with it: the canonical form, whose denominator is the least common
    denominator of the coefficients."""
    g = math.gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {key: n // g for key, n in nums.items()}, den // g


def _over_lcm(terms: Mapping[int, Tuple[int, int]]) -> Tuple[Numerators, int]:
    """Coefficients by key, as reduced (numerator, positive denominator)
    pairs, turned into numerators over their least common denominator and
    that denominator; zero terms are dropped."""
    den = math.lcm(*[d for _, d in terms.values()])
    if den == 1:
        return {key: n for key, (n, _) in terms.items() if n}, 1
    return {key: n * (den // d) for key, (n, d) in terms.items() if n}, den


def _repacked(nums: Numerators, old: _Packing, new: _Packing) -> Numerators:
    if old is new:
        return nums
    pack, unpack = new.pack, old.unpack
    return {pack(unpack(key)): n for key, n in nums.items()}


def _aligned(top: int, *stores: Store) -> Tuple[_Packing, List[Numerators]]:
    """One packing for the keys of ``stores`` that holds coordinates up to
    ``top`` as well, and each store's numerators under it; a store already
    under that packing is passed as it is."""
    pk = max((s[0] for s in stores), key=lambda k: k.bits)
    if pk.top < top:
        pk = _packing(pk.dim, top)
    return pk, [_repacked(nums, old, pk) for old, nums, _ in stores]


def _by_degree(nums: Numerators, shift: int) -> Dict[int, Numerators]:
    """The numerators grouped by total degree, which is the key's bits from
    ``shift`` up."""
    forms: Dict[int, Numerators] = {}
    for key, n in nums.items():
        forms.setdefault(key >> shift, {})[key] = n
    return forms


def _accumulate_product(
    out: Numerators,
    p: Numerators,
    q: Numerators,
    factor: int = 1,
    limit: Optional[int] = None,
) -> None:
    """out += factor * p * q in place, for numerator maps under one packing.

    Keys add and numerators multiply; the caller puts the three maps over
    denominators that make this the rational sum it wants, through
    ``factor``.  Only products whose key is below ``limit`` are kept (a
    degree cut: ``(d + 1) << degree_shift`` keeps degrees <= d), and a sum
    that cancels is dropped.  The products are summed in a map of their
    own, then merged into ``out``.  New monomials go in in the order of the
    plain nested loop over p, then q; one whose running sum cancels goes
    in again where it reappears.  The terms that ``out`` already has keep
    their places unless the product cancels them.  The packing must hold
    every product below ``limit``; a product above it may spill over its
    fields, but only into larger keys.
    """
    if not p or not q:
        return
    if limit is None:
        limit = max(p) + max(q) + 1
    p_items = [(k, factor * n) for k, n in p.items()]
    q_items = list(q.items())
    acc: Numerators = {} if out else out
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
    if acc is out:
        return
    for key, n in acc.items():
        s = out.get(key, 0) + n
        if s:
            out[key] = s
        else:
            del out[key]


def _float_plan(store: Store, dim: int):
    """The float evaluation plan of a store: (level, powers).

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
    pk, nums, den = store
    terms = [(pk.unpack(key), n) for key, n in nums.items()]
    powers = sorted({(i, e) for a, _ in terms for i, e in enumerate(a) if e >= 2})
    index = {p: dim + j for j, p in enumerate(powers)}
    index.update({(i, 1): i for i in range(dim)})

    def nest(items, axis):
        by_exp: Dict[int, list] = {}
        for a, c in items:
            by_exp.setdefault(a[axis], []).append((a, c))
        level = []
        for e, group in sorted(by_exp.items()):
            if axis == 0:
                a, n = group[0]
                try:
                    value, factors = n / den, ()  # correctly rounded
                except OverflowError:
                    c = Fraction(n, den)
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

    return (nest(terms, dim - 1) if terms else ()), tuple(powers)


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
    """Immutable-by-convention sparse polynomial over the rationals; equal
    by value, and not hashable."""

    # ``_store`` is the packed store (see the module docstring), always
    # set; ``_plan``, the float evaluation plan, is set by the first
    # ``evaluate_array`` call, and polynomials are immutable by convention,
    # so it does not go stale
    __slots__ = ("dim", "_store", "_plan")

    def __init__(self, dim: int, terms: Mapping[MultiIndex, object] | None = None):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = int(dim)
        pairs: Dict[MultiIndex, Tuple[int, int]] = {}
        for alpha, c in (terms or {}).items():
            c = Fraction(c)
            if c != 0:
                pairs[mi.validate(alpha, dim)] = c.numerator, c.denominator
        pk = _packing(self.dim, max(map(sum, pairs), default=0))
        self._store = (pk, *_over_lcm({pk.pack(a): c for a, c in pairs.items()}))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_store(
        cls, dim: int, pk: _Packing, nums: Numerators, den: int, **slots
    ) -> "Polynomial":
        """An instance of ``cls`` from a store that its caller has built.

        The keys are under ``pk`` (which holds every coordinate), the
        numerators are nonzero and ``den`` is positive; they are reduced
        here.  ``slots`` sets a subclass's other slots, such as a series'
        center and truncation degree, as given.
        """
        p = cls.__new__(cls)
        p.dim = dim
        p._store = (pk, *_reduced(nums, den))
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

    @property
    def terms(self) -> Terms:
        """The terms as a map from multi-index to ``Fraction``, in store
        order; a new map on every read."""
        pk, nums, den = self._store
        unpack = pk.unpack
        return {unpack(key): Fraction(n, den) for key, n in nums.items()}

    def is_zero(self) -> bool:
        return not self._store[1]

    def term_count(self) -> int:
        """Number of nonzero terms."""
        return len(self._store[1])

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        pk, nums, _ = self._store
        # the degree is the most significant field of a key
        return max(nums) >> pk.degree_shift if nums else -1

    def leading_degree(self) -> int:
        """Smallest total degree with a nonzero term; -1 for zero."""
        pk, nums, _ = self._store
        return min(nums) >> pk.degree_shift if nums else -1

    def is_homogeneous(self) -> bool:
        return self.total_degree() == self.leading_degree()

    def coefficient(self, alpha: Sequence[int]) -> Fraction:
        alpha = mi.validate(alpha, self.dim)
        pk, nums, den = self._store
        if max(alpha) > pk.top:  # no key holds it
            return Fraction(0)
        return Fraction(nums.get(pk.pack(alpha), 0), den)

    def sorted_terms(self) -> List[Tuple[MultiIndex, Fraction]]:
        """Terms in graded-then-prec order (the canonical iteration order),
        which is the order of their keys."""
        pk, nums, den = self._store
        return [(pk.unpack(key), Fraction(nums[key], den)) for key in sorted(nums)]

    def _same_store(self, other: "Polynomial") -> bool:
        (pa, na, da), (pb, nb, db) = self._store, other._store
        if da != db or len(na) != len(nb):
            return False
        if pa is not pb:
            _, (na, nb) = _aligned(0, self._store, other._store)
        return na == nb

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.dim == other.dim
            and self._same_store(other)
        )

    def __repr__(self) -> str:
        if self.is_zero():
            return f"Polynomial({self.dim}, 0)"
        parts = [f"{c}*x^{a}" for a, c in self.sorted_terms()]
        return "Polynomial(" + " + ".join(parts) + ")"

    # -- arithmetic --------------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        pk, (na, nb) = _aligned(0, self._store, other._store)
        da, db = self._store[2], other._store[2]
        den = math.lcm(da, db)
        sa, sb = den // da, den // db
        out = {key: n * sa for key, n in na.items()}
        for key, n in nb.items():
            out[key] = out.get(key, 0) + n * sb
        out = {key: n for key, n in out.items() if n}
        return Polynomial._from_store(self.dim, pk, out, den)

    def __neg__(self) -> "Polynomial":
        pk, nums, den = self._store
        return Polynomial._from_store(self.dim, pk, {k: -n for k, n in nums.items()}, den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        pk, nums, den = self._store
        out = {key: c.numerator * n for key, n in nums.items()} if c else {}
        return Polynomial._from_store(self.dim, pk, out, den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_dim(other)
        top = max(self.total_degree(), 0) + max(other.total_degree(), 0)
        pk, (na, nb) = _aligned(top, self._store, other._store)
        out: Numerators = {}
        _accumulate_product(out, na, nb)
        return Polynomial._from_store(self.dim, pk, out, self._store[2] * other._store[2])

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
        pk, nums, den = self._store
        shift, field = pk.shifts[idx], pk.field
        step = (1 << shift) + (1 << pk.degree_shift)
        out: Numerators = {}
        for key, n in nums.items():
            e = key >> shift & field
            if e:
                out[key - step] = n * e
        return Polynomial._from_store(self.dim, pk, out, den)

    def gradient(self) -> List["Polynomial"]:
        return [self.partial(i) for i in range(self.dim)]

    def laplacian(self) -> "Polynomial":
        """The sum of the second partials, axis 0's first."""
        pk, nums, den = self._store
        field, step_degree = pk.field, 2 << pk.degree_shift
        out: Numerators = {}
        for shift in pk.shifts:
            step = (2 << shift) + step_degree
            for key, n in nums.items():
                e = key >> shift & field
                if e >= 2:
                    s = out.get(key - step, 0) + n * e * (e - 1)
                    if s:
                        out[key - step] = s
                    else:
                        del out[key - step]
        return Polynomial._from_store(self.dim, pk, out, den)

    def is_harmonic(self) -> bool:
        return self.laplacian().is_zero()

    # -- structure ---------------------------------------------------------

    def homogeneous_part(self, degree: int) -> "Polynomial":
        pk, nums, den = self._store
        part = _by_degree(nums, pk.degree_shift).get(degree, {})
        return Polynomial._from_store(self.dim, pk, part, den)

    def leading_part(self) -> Tuple[int, "Polynomial"]:
        """The nonzero homogeneous part of least degree, and that degree."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading part")
        k = self.leading_degree()
        return k, self.homogeneous_part(k)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact evaluation at a point with rational (or int) coordinates."""
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        pt = [Fraction(x) for x in point]
        pk, nums, den = self._store
        total = Fraction(0)
        for key, n in nums.items():
            for x, e in zip(pt, pk.unpack(key)):
                if e:
                    n *= x**e
            total += n
        return total / den

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
            self._plan = level, powers = _float_plan(self._store, self.dim)
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
        pk, nums, den = self._store
        cache: Dict[Tuple[int, int], Polynomial] = {}
        out = Polynomial.zero(self.dim)
        for key, n in nums.items():
            term = Polynomial.constant(self.dim, n)
            for i, e in enumerate(pk.unpack(key)):
                if e:
                    if (i, e) not in cache:
                        cache[i, e] = forms[i] ** e
                    term = term * cache[i, e]
            out = out + term
        return out.scale(Fraction(1, den))

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
        if not any(c):  # x_i + 0 substituted term by term is P itself
            return Polynomial._from_store(self.dim, *self._store)
        return self._substitute_forms([
            Polynomial.variable(self.dim, i) + Polynomial.constant(self.dim, c[i])
            for i in range(self.dim)
        ])


def harmonic_basis(dim: int, degree: int) -> List[Polynomial]:
    """Exact rational basis of the homogeneous harmonic polynomials of
    ``degree``: one member per monomial x^alpha with alpha_0 <= 1, in
    ``mi.iter_degree`` order.

    With a = alpha_0 and p = x^alpha / x_0^a, which does not involve x_0,
    the member is

        h = sum_j (-1)^j * a! / (a + 2j)! * x_0^(a + 2j) * Laplacian^j(p),

    whose Laplacian telescopes to 0.  Its only term with x_0-exponent at
    most 1 is x^alpha, so h is the member that the reduced row echelon form
    of the Laplacian on degree-``degree`` forms gives for that free monomial.
    """
    basis = []
    for alpha in mi.iter_degree(dim, degree):
        e = alpha[0]
        if e > 1:
            continue
        # at step j: e = a + 2j, c = (-1)^j * a! / e! and p = Laplacian^j of
        # x^alpha / x_0^a
        p = Polynomial.monomial(dim, (0, *alpha[1:]))
        h, c = Polynomial.zero(dim), Fraction(1)
        while not p.is_zero():
            h = h + p * Polynomial.monomial(dim, (e,) + (0,) * (dim - 1), c)
            p = p.laplacian()
            c /= -(e + 1) * (e + 2)
            e += 2
        basis.append(h)
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
