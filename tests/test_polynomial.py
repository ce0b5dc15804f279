"""Exact polynomial arithmetic, calculus, and the harmonic basis."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmonic_ratios import (
    Polynomial,
    TruncatedSeries,
    catalog_get,
    harmonic_basis,
    rotate,
)
from harmonic_ratios import multiindex as mi
from harmonic_ratios.polynomial import CoefficientOverflow
from harmonic_ratios.rotation import cayley_from_params, identity


def polynomials(dim=2, max_degree=4, max_terms=6):
    coeff = st.fractions(
        min_value=-10, max_value=10, max_denominator=8
    )
    index = st.tuples(*[st.integers(0, max_degree)] * dim).filter(
        lambda a: sum(a) <= max_degree
    )
    return st.dictionaries(index, coeff, max_size=max_terms).map(
        lambda terms: Polynomial(dim, terms)
    )


X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = Polynomial(2, {(1, 0): 0, (0, 1): 1})
        assert (1, 0) not in p.terms

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            Polynomial(0)

    def test_wrong_index_length(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(1, 0, 0): 1})

    def test_variable_out_of_range(self):
        with pytest.raises(ValueError):
            Polynomial.variable(2, 2)


class TestArithmetic:
    def test_known_product(self):
        assert (X + Y) * (X - Y) == X * X - Y * Y

    def test_pow(self):
        assert (X + Y) ** 3 == X**3 + 3 * X**2 * Y + 3 * X * Y**2 + Y**3

    def test_scale(self):
        assert (X.scale(Fraction(1, 2)) * 2) == X

    @given(polynomials(), polynomials(), polynomials())
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polynomials(), polynomials())
    def test_mul_commutative(self, p, q):
        assert p * q == q * p

    @given(polynomials())
    def test_sub_self_is_zero(self, p):
        assert (p - p).is_zero()


class TestCalculus:
    def test_partial(self):
        p = X**3 * Y
        assert p.partial(0) == 3 * X**2 * Y
        assert p.partial(1) == X**3

    def test_laplacian_of_saddle_is_zero(self):
        assert (X * X - Y * Y).laplacian().is_zero()

    def test_laplacian_of_r_squared(self):
        assert (X * X + Y * Y).laplacian() == Polynomial.constant(2, 4)

    @given(polynomials(), polynomials())
    def test_laplacian_linear(self, p, q):
        assert (p + q).laplacian() == p.laplacian() + q.laplacian()

    @given(polynomials(max_degree=3), polynomials(max_degree=3))
    def test_product_rule_via_gradient(self, p, q):
        for i in range(2):
            lhs = (p * q).partial(i)
            assert lhs == p.partial(i) * q + p * q.partial(i)


class TestStructure:
    @given(polynomials())
    def test_homogeneous_parts_reassemble(self, p):
        if p.is_zero():
            return
        total = Polynomial.zero(p.dim)
        for d in range(p.leading_degree(), p.total_degree() + 1):
            part = p.homogeneous_part(d)
            assert part.is_zero() or part.total_degree() == part.leading_degree() == d
            total = total + part
        assert total == p
        assert p.homogeneous_part(p.total_degree() + 1).is_zero()

    def test_homogeneous_parts_of_zero_raise(self):
        assert Polynomial.zero(2).homogeneous_part(0).is_zero()
        with pytest.raises(ValueError):
            Polynomial.zero(2).leading_part()

    def test_leading_part(self):
        p = X * Y + X**3
        k, lead = p.leading_part()
        assert k == 2 and lead == X * Y

    def test_leading_term_graded_order(self):
        # same degree: the reversed-tuple comparison breaks the tie
        p = X * X + Y * Y
        alpha, _ = p.sorted_terms()[-1]
        assert alpha == (0, 2)


class TestEvaluation:
    def test_exact(self):
        p = X * X - Y
        assert p.evaluate((Fraction(1, 2), Fraction(1, 3))) == Fraction(-1, 12)

    @given(polynomials())
    def test_array_matches_exact(self, p):
        pts = [(1, 2), (-1, 0), (Fraction(1, 2), Fraction(-3, 4))]
        arr = p.evaluate_array(
            [np.array([float(pt[i]) for pt in pts]) for i in range(2)]
        )
        for val, pt in zip(arr, pts):
            assert val == pytest.approx(float(p.evaluate(pt)), abs=1e-12)

    @given(
        st.integers(1, 3).flatmap(
            lambda dim: st.tuples(
                st.one_of(
                    polynomials(dim=dim, max_degree=5),
                    st.just(Polynomial.zero(dim)),
                    st.fractions(-10, 10, max_denominator=8).map(
                        lambda c: Polynomial.constant(dim, c)
                    ),
                ),
                st.lists(
                    st.lists(st.floats(-2, 2), min_size=1, max_size=5),
                    min_size=dim,
                    max_size=dim,
                ),
            )
        )
    )
    def test_open_mesh_matches_dense_mesh(self, case):
        p, axes = case
        axes = [np.array(a) for a in axes]
        sparse = p.evaluate_array(np.ix_(*axes))
        dense = p.evaluate_array(np.meshgrid(*axes, indexing="ij"))
        assert sparse.shape == dense.shape == tuple(len(a) for a in axes)
        assert np.array_equal(sparse, dense)

    @given(
        st.integers(1, 3).flatmap(
            lambda dim: st.tuples(
                st.one_of(
                    polynomials(dim=dim, max_degree=5, max_terms=12),
                    st.just(Polynomial.zero(dim)),
                    st.fractions(-10, 10, max_denominator=8).map(
                        lambda c: Polynomial.constant(dim, c)
                    ),
                ),
                st.lists(
                    st.tuples(*[st.floats(-2, 2)] * dim), min_size=1, max_size=40
                ),
            )
        )
    )
    def test_point_alone_matches_its_batch(self, case):
        p, points = case
        assert_batch_independent(p, np.array(points))

    def test_series_point_alone_matches_its_batch(self):
        series = catalog_get("expsin").taylor((0, 0), 12)
        points = np.random.default_rng(5).uniform(-0.7, 0.7, size=(37, 2))
        assert_batch_independent(series, points)


def assert_batch_independent(p, points):
    """Each row of ``points`` evaluated alone gives the bits it gets in the
    batch of all rows."""
    batch = p.evaluate_array(list(points.T))
    assert batch.shape == (len(points),)
    for value, point in zip(batch, points):
        alone = p.evaluate_array([np.array([x]) for x in point])
        assert alone.shape == (1,)
        assert alone.tobytes() == value.tobytes(), (point, alone[0], value)


SERIES_CENTER = (Fraction(1, 3), Fraction(-1, 2), Fraction(0))
DERIVED = {
    "neg": lambda p, q: -p,
    "add": lambda p, q: p + q,
    "mul": lambda p, q: p * q,
    "scale": lambda p, q: p.scale(Fraction(-7, 3)),
    "partial": lambda p, q: p.partial(1),
    "series": lambda p, q: TruncatedSeries.from_polynomial(p, 3, SERIES_CENTER),
    "zero": lambda p, q: p - p,
    "constant": lambda p, q: p.scale(0) + Polynomial.constant(3, Fraction(5, 3)),
}


class TestPlanFreshness:
    """A derived polynomial evaluates as a fresh one with the same terms,
    whether or not the polynomials it came from were evaluated first."""

    POINTS = list(np.random.default_rng(11).uniform(-1.5, 1.5, size=(3, 25)))

    def fresh_values(self, p):
        return Polynomial(p.dim, dict(p.terms)).evaluate_array(self.POINTS)

    @pytest.mark.parametrize("evaluated_first", [False, True])
    @pytest.mark.parametrize("derive", DERIVED.values(), ids=list(DERIVED))
    @settings(max_examples=25)
    @given(polynomials(dim=3, max_degree=4), polynomials(dim=3, max_degree=4))
    def test_derived_evaluates_as_fresh(self, derive, evaluated_first, p, q):
        if evaluated_first:
            p.evaluate_array(self.POINTS), q.evaluate_array(self.POINTS)
        derived = derive(p, q)
        values = derived.evaluate_array(self.POINTS)
        assert values.tobytes() == self.fresh_values(derived).tobytes()
        if evaluated_first:  # the parents still evaluate as fresh ones
            for parent in (p, q):
                assert parent.evaluate_array(self.POINTS).tobytes() == (
                    self.fresh_values(parent).tobytes()
                )

    @pytest.mark.parametrize("evaluated_first", [False, True])
    def test_series_as_polynomial_shares_terms_not_plan(self, evaluated_first):
        series = TruncatedSeries.from_polynomial(
            catalog_get("paperH").polynomial, 2, SERIES_CENTER
        )
        if evaluated_first:
            series.evaluate_array(self.POINTS)
        poly = Polynomial(series.dim, series.terms)
        assert poly.terms == series.terms
        expected = self.fresh_values(series).tobytes()
        assert poly.evaluate_array(self.POINTS).tobytes() == expected
        assert series.evaluate_array(self.POINTS).tobytes() == expected
        assert poly.partial(2).evaluate_array(self.POINTS).tobytes() == (
            self.fresh_values(series.partial(2)).tobytes()
        )

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_and_constant(self, dim):
        points = self.POINTS[:dim]
        zero = Polynomial.zero(dim)
        assert np.array_equal(zero.evaluate_array(points), np.zeros(25))
        const = Polynomial.constant(dim, Fraction(-2, 3))
        assert np.array_equal(const.evaluate_array(points), np.full(25, -2 / 3))
        assert np.array_equal((const - const).evaluate_array(points), np.zeros(25))
        assert np.array_equal(
            (const * const).evaluate_array(points), np.full(25, float(Fraction(4, 9)))
        )

    def test_coefficients_beyond_the_float_range(self):
        big = (X * X - Y * Y).scale(10**400)
        for p in (big, *big.gradient()):
            with pytest.raises(CoefficientOverflow, match="exceed the float range"):
                p.evaluate_array(self.POINTS[:2])
        # exact arithmetic still takes it
        assert big.scale(Fraction(1, 10**400)) == X * X - Y * Y


class TestSubstitution:
    @given(polynomials(max_degree=3))
    def test_shift_matches_evaluation(self, p):
        c = (Fraction(1, 3), Fraction(-2))
        shifted = p.shift(c)
        for pt in [(0, 0), (1, -1), (Fraction(2, 5), 3)]:
            moved = tuple(x + ci for x, ci in zip(pt, c))
            assert shifted.evaluate(pt) == p.evaluate(moved)

    @given(
        polynomials(max_degree=3),
        st.lists(st.fractions(-3, 3, max_denominator=5), min_size=4, max_size=4),
        st.lists(st.fractions(-3, 3, max_denominator=5), min_size=2, max_size=2),
    )
    def test_affine_substitution_matches_evaluation(self, p, m, c):
        # M need not be orthogonal, nor even invertible
        rows = [m[:2], m[2:]]

        def times_m(x):
            return [rows[i][0] * x[0] + rows[i][1] * x[1] for i in range(2)]

        composed = p.compose_linear(rows)
        composed_then_shifted = composed.shift(c)
        shifted_then_composed = p.shift(c).compose_linear(rows)
        for pt in [(0, 0), (1, -1), (Fraction(2, 5), 3)]:
            moved = [x + ci for x, ci in zip(pt, c)]
            assert composed.evaluate(pt) == p.evaluate(times_m(pt))
            assert composed_then_shifted.evaluate(pt) == p.evaluate(times_m(moved))
            assert shifted_then_composed.evaluate(pt) == p.evaluate(
                [a + ci for a, ci in zip(times_m(pt), c)]
            )

    def test_compose_linear_swap(self):
        swapped = (X - Y).compose_linear([[0, 1], [1, 0]])
        assert swapped == Y - X

    def test_zero_shift_substitutes_nothing(self, monkeypatch):
        # catalog expands every polynomial entry at the origin, where
        # substituting x_i + 0 term by term took 97% of a rezk:2048 series
        p = X**3 * Y - Fraction(2, 3) * X + Polynomial.constant(2, 5)
        calls = []
        real = Polynomial._substitute_forms
        monkeypatch.setattr(Polynomial, "_substitute_forms",
                            lambda self, forms: calls.append(1) or real(self, forms))
        for center in [(0, 0), (Fraction(0), 0.0)]:
            shifted = p.shift(center)
            assert type(shifted) is Polynomial and shifted == p
        assert Polynomial.zero(2).shift((0, 0)).is_zero()
        assert calls == []
        assert p.shift((0, 1)).evaluate((2, 3)) == p.evaluate((2, 4))
        assert calls


class TestHarmonicBasis:
    @pytest.mark.parametrize("dim,degree,count", [
        (2, 1, 2), (2, 3, 2), (2, 5, 2),
        (3, 2, 5), (3, 3, 7), (3, 4, 9),
    ])
    def test_dimension_count(self, dim, degree, count):
        basis = harmonic_basis(dim, degree)
        assert len(basis) == count

    @pytest.mark.parametrize("dim,degree", [(2, 4), (3, 3), (4, 3)])
    def test_members_harmonic_and_homogeneous(self, dim, degree):
        for b in harmonic_basis(dim, degree):
            assert b.is_homogeneous()
            assert b.total_degree() == degree
            assert b.laplacian().is_zero()

    def test_degree_zero_and_one(self):
        assert len(harmonic_basis(2, 0)) == 1
        assert all(b.is_harmonic() for b in harmonic_basis(3, 1))

    @pytest.mark.parametrize("dim,max_degree", [(1, 10), (2, 12), (3, 10), (4, 8), (5, 6), (6, 5)])
    def test_closed_form_matches_row_reduction(self, dim, max_degree):
        for degree in range(max_degree + 1):
            got = harmonic_basis(dim, degree)
            want = row_reduced_harmonic_basis(dim, degree)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g == w, (dim, degree, g, w)


def row_reduced_harmonic_basis(dim, degree):
    """The harmonic basis by rational row reduction of the Laplacian on
    degree-``degree`` forms: one member per free column, in
    ``mi.iter_degree`` order, the former ``harmonic_basis``."""
    monos = list(mi.iter_degree(dim, degree))
    target = list(mi.iter_degree(dim, degree - 2)) if degree >= 2 else []
    if not target:
        return [Polynomial.monomial(dim, m) for m in monos]
    row_of = {m: i for i, m in enumerate(target)}
    nrows, ncols = len(target), len(monos)
    mat = [[Fraction(0)] * ncols for _ in range(nrows)]
    for j, m in enumerate(monos):
        for i in range(dim):
            if m[i] >= 2:
                b = list(m)
                b[i] -= 2
                mat[row_of[tuple(b)]][j] += m[i] * (m[i] - 1)
    pivots = []
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
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        coeffs = {monos[fc]: Fraction(1)}
        for ri, pc in enumerate(pivots):
            if mat[ri][fc]:
                coeffs[monos[pc]] = -mat[ri][fc]
        basis.append(Polynomial(dim, coeffs))
    return basis


# The queries as they were computed from the Fraction map ``terms``, kept
# as oracles for the ones that read the packed store.


def terms_coefficient(p, alpha):
    return p.terms.get(tuple(alpha), Fraction(0))


def terms_sorted_terms(p):
    return sorted(p.terms.items(), key=lambda t: mi.graded_key(t[0]))


def terms_homogeneous_part(p, degree):
    return Polynomial(p.dim, {a: c for a, c in p.terms.items() if sum(a) == degree})


def terms_leading_part(p):
    k = min(map(sum, p.terms))
    return k, terms_homogeneous_part(p, k)


def terms_evaluate(p, point):
    total = Fraction(0)
    for a, c in p.terms.items():
        for x, e in zip(point, a):
            if e:
                c *= Fraction(x) ** e
        total += c
    return total


@st.composite
def wide_polynomials(draw):
    """Polynomials of dims 1-4 whose exponents may pass 127, which needs a
    packing wider than the default one, and a rational point."""
    dim = draw(st.integers(1, 4))
    exponent = st.one_of(st.integers(0, 4), st.integers(120, 300))
    terms = draw(st.dictionaries(
        st.tuples(*[exponent] * dim),
        st.fractions(min_value=-10, max_value=10, max_denominator=9),
        max_size=8,
    ))
    point = draw(st.lists(
        st.fractions(min_value=-2, max_value=2, max_denominator=5),
        min_size=dim, max_size=dim,
    ))
    return Polynomial(dim, terms), point


class TestStoreQueriesMatchTheTermsOracles:
    @settings(max_examples=80, deadline=None)
    @given(wide_polynomials(), st.data())
    def test_queries(self, case, data):
        p, point = case
        last = Polynomial.variable(p.dim, p.dim - 1)
        for q in (p, p * last):  # from the constructor, and from a kernel
            top = q._store[0].top
            probes = list(q.terms) + [
                (top + 1,) + (0,) * (q.dim - 1),
                (0,) * (q.dim - 1) + (top + 1,),
                data.draw(st.tuples(*[st.integers(0, 300)] * q.dim)),
            ]
            for alpha in probes:
                assert q.coefficient(alpha) == terms_coefficient(q, alpha)
            assert q.sorted_terms() == terms_sorted_terms(q)
            for d in {*map(sum, q.terms), 0, 1, 301}:
                part, want = q.homogeneous_part(d), terms_homogeneous_part(q, d)
                assert part == want
                assert list(part.terms.items()) == list(want.terms.items())
            if q.is_zero():
                with pytest.raises(ValueError):
                    q.leading_part()
            else:
                (k, lead), (k_want, lead_want) = q.leading_part(), terms_leading_part(q)
                assert k == k_want and lead == lead_want
            assert q.evaluate(point) == terms_evaluate(q, point)
            assert type(q.evaluate(point)) is Fraction

    def test_coefficient_beyond_the_packing(self):
        p = Polynomial(2, {(3, 1): Fraction(2, 3)})
        top = p._store[0].top
        assert p.coefficient((3, 1)) == Fraction(2, 3)
        assert p.coefficient((top + 1, 0)) == 0
        assert p.coefficient((10**30, 10**30)) == 0
        assert Polynomial.zero(3).coefficient((0, 0, 0)) == 0


class TestRotation:
    def test_requires_exact_matrix(self):
        with pytest.raises(TypeError):
            rotate(X, [[0.6, -0.8], [0.8, 0.6]])

    def test_identity(self):
        p = X**2 * Y - Y**3
        assert rotate(p, identity(2)) == p

    @settings(max_examples=25)
    @given(polynomials(max_degree=3))
    def test_rotation_preserves_harmonicity(self, p):
        rot = cayley_from_params(2, [Fraction(1, 2)])
        q = rotate(p, rot)
        assert (q.laplacian().is_zero()) == (p.laplacian().is_zero())

    def test_rotation_matches_evaluation(self):
        rot = cayley_from_params(2, [Fraction(1, 3)])
        p = X**3 - 3 * X * Y**2
        pt = (Fraction(2, 7), Fraction(-1, 4))
        image = [sum(m * x for m, x in zip(row, pt)) for row in rot.rows]
        assert rotate(p, rot).evaluate(pt) == p.evaluate(image)
