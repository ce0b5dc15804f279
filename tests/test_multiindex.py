"""Order-theoretic properties of multi-indices."""

import itertools

import pytest
from hypothesis import given, strategies as st

from harmonic_ratios import multiindex as mi


def indices(dim: int, max_entry: int = 6):
    return st.tuples(*[st.integers(0, max_entry)] * dim)


class TestPrec:
    def test_last_coordinate_decides(self):
        assert mi.prec((5, 0), (0, 1))
        assert not mi.prec((0, 1), (5, 0))

    def test_tie_moves_left(self):
        assert mi.prec((1, 3), (2, 3))
        assert mi.prec((0, 2, 7), (1, 2, 7))

    def test_irreflexive(self):
        assert not mi.prec((1, 2, 3), (1, 2, 3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mi.prec((1, 2), (1, 2, 3))

    @given(indices(3), indices(3))
    def test_total(self, a, b):
        # exactly one of <, =, > holds
        assert (mi.prec(a, b), a == b, mi.prec(b, a)).count(True) == 1

    @given(indices(3), indices(3), indices(3))
    def test_transitive(self, a, b, c):
        if mi.prec(a, b) and mi.prec(b, c):
            assert mi.prec(a, c)

    @given(indices(3), indices(3), indices(3))
    def test_translation_invariant(self, a, b, c):
        # prec is compatible with addition of exponents
        if mi.prec(a, b):
            assert mi.prec(mi.add(a, c), mi.add(b, c))


class TestGradedKey:
    @given(indices(3), indices(3))
    def test_degree_dominates(self, a, b):
        if sum(a) < sum(b):
            assert mi.graded_key(a) < mi.graded_key(b)

    @given(indices(3), indices(3), indices(3))
    def test_monomial_order(self, a, b, c):
        # the property that makes leading-term division well-defined
        if mi.graded_key(a) < mi.graded_key(b):
            assert mi.graded_key(mi.add(a, c)) < mi.graded_key(mi.add(b, c))


class TestArithmetic:
    def test_add_sub_roundtrip(self):
        a, b = (3, 1, 0), (1, 1, 2)
        assert mi.sub(mi.add(a, b), b) == a

    def test_sub_negative_raises(self):
        with pytest.raises(ValueError):
            mi.sub((1, 0), (0, 1))

    def test_validate_rejects_negative(self):
        with pytest.raises(ValueError):
            mi.validate((1, -1))


class TestIteration:
    @pytest.mark.parametrize("dim,total", [(1, 4), (2, 5), (3, 4), (4, 3)])
    def test_iter_degree_complete(self, dim, total):
        got = list(mi.iter_degree(dim, total))
        expected = [
            a
            for a in itertools.product(range(total + 1), repeat=dim)
            if sum(a) == total
        ]
        assert sorted(got) == sorted(expected)
        assert len(set(got)) == len(got)

    def test_iter_degree_sorted_by_prec(self):
        got = list(mi.iter_degree(3, 4))
        assert got == sorted(got, key=mi.prec_key)

    def test_iter_up_to_degree_graded(self):
        got = list(mi.iter_up_to_degree(2, 4))
        assert got == sorted(got, key=mi.graded_key)
        assert len(got) == 15  # C(4+2, 2)


class TestRecursionWellFounded:
    """The coefficient recursion reads f_gamma only for gamma before beta."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_star_condition_implies_prec(self, dim, k):
        k_tilde = (k,) + (0,) * (dim - 1)
        max_deg = 8 if dim < 4 else 5
        for beta in mi.iter_up_to_degree(dim, max_deg):
            target = mi.add(beta, k_tilde)
            for gamma in mi.iter_up_to_degree(dim, sum(beta)):
                if gamma == beta:
                    continue
                if all(g <= t for g, t in zip(gamma, target)):
                    assert mi.prec(gamma, beta), (gamma, beta, k)
