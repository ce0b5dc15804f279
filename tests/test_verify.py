"""Numeric checks on ratios of harmonic functions with a shared zero set."""

import numpy as np
import pytest

from harmonic_ratios import (
    Polynomial,
    RatioEvaluator,
    RatioVanishes,
    Region,
    catalog_get,
    harnack_constant,
    leading_zero_inclusion,
    max_principle_check,
    residual_convergence,
    shared_pair,
    sign_change_check,
    sphere_orthogonality,
)
from harmonic_ratios.verify import DegenerateRegion, elliptic_residual

X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)

PAIR = shared_pair("expsin", "coshsin")
BOX = Region.box((-1, -1), (1, 1))


@pytest.fixture(scope="module")
def evaluator():
    return RatioEvaluator.for_pair(PAIR)


class TestRatioEvaluator:
    def test_direct_values(self, evaluator):
        pts = np.array([[0.5, 0.3], [-0.7, 0.9]])
        vals, ok = evaluator(pts)
        assert np.all(ok)
        expected = np.exp(pts[:, 1]) / np.cosh(pts[:, 1])
        assert np.allclose(vals, expected, atol=1e-12)

    def test_series_fallback_near_zero_line(self, evaluator):
        # sin x vanishes at x = 0; the quotient of floats is unusable there
        pts = np.array([[0.0, 0.1]])
        vals, ok = evaluator(pts)
        assert bool(ok[0])
        assert vals[0] == pytest.approx(np.exp(0.1) / np.cosh(0.1), abs=1e-9)

    def test_series_fallback_is_batch_independent(self, evaluator):
        # on x = 0 every point is in the guard band and takes the series
        y = np.linspace(-0.24, 0.24, 121)
        pts = np.column_stack([np.zeros_like(y), y])
        vals, ok = evaluator(pts)
        assert np.all(ok)
        assert np.allclose(vals, 1.0 + np.tanh(y), rtol=0, atol=1e-9)
        for k in range(len(pts)):
            alone, ok_alone = evaluator(pts[k:k + 1])
            assert bool(ok_alone[0])
            assert alone[0].tobytes() == vals[k].tobytes()

    def test_invalid_outside_trust_radius(self):
        ev = RatioEvaluator(u=PAIR.u, v=PAIR.v, ratio_series=None)
        vals, ok = ev(np.array([[0.0, 0.5]]))
        assert not bool(ok[0]) and np.isnan(vals[0])


class TestMaxPrinciple:
    def test_holds_for_harmonic_ratio(self, evaluator):
        report = max_principle_check(
            evaluator, None, BOX, boundary_samples=512, interior_samples=512
        )
        assert report.passed
        assert report.extremes["interior_max"] <= report.extremes["boundary_max"] + 1e-9

    def test_detects_interior_bump(self):
        # 1 - x^2 - y^2 peaks strictly inside the disk
        bump = lambda x, y: 1.0 - x**2 - y**2
        one = lambda x, y: np.ones_like(x)
        report = max_principle_check(
            bump, one, Region.ball((0, 0), 1.0), boundary_samples=64,
            interior_samples=512,
        )
        assert not report.passed

    def test_degenerate_sampling_rejected(self, evaluator):
        with pytest.raises(DegenerateRegion):
            max_principle_check(evaluator, None, BOX, 2, 0)


class TestHarnack:
    def test_reference_constant(self, evaluator):
        report = harnack_constant(evaluator, None, BOX, samples=250_000)
        assert report.passed
        assert report.extremes["C_star"] == pytest.approx(np.e**2, abs=1e-3)

    def test_equal_pair_gives_one(self):
        pair = shared_pair("expsin", "expsin")
        ev = RatioEvaluator.for_pair(pair)
        report = harnack_constant(ev, None, BOX, samples=10_000)
        assert report.extremes["C_star"] == pytest.approx(1.0, abs=1e-12)

    def test_differing_zero_sets_detected(self):
        # u vanishes where v does not: the "ratio" dips to zero
        u = lambda x, y: x * x - y * y
        v = lambda x, y: np.ones_like(x)
        with pytest.raises(RatioVanishes):
            harnack_constant(u, v, BOX, samples=10_000)


class TestOrthogonality:
    def test_lower_degree_polynomials_integrate_to_zero(self):
        q = catalog_get("rezk:3").polynomial
        for q2 in (Polynomial.constant(2, 1), X, X * Y):
            report = sphere_orthogonality(q, q2, r=1.0, quad_points=512)
            assert report.passed, q2

    def test_3d_case(self):
        q = catalog_get("paperH").polynomial.homogeneous_part(3)
        report = sphere_orthogonality(
            q, Polynomial.variable(3, 2), r=1.0, quad_points=4096
        )
        assert report.passed

    def test_self_integral_not_zero(self):
        q = catalog_get("rezk:2").polynomial
        # mean of q^2 is positive, so q against itself is out of scope
        with pytest.raises(ValueError):
            sphere_orthogonality(q, q, r=1.0, quad_points=128)

    def test_non_harmonic_rejected(self):
        with pytest.raises(ValueError):
            sphere_orthogonality(X * X, Polynomial.constant(2, 1), 1.0, 128)


class TestSignChange:
    def test_harmonic_factor_changes_sign(self):
        report = sign_change_check(X * Y, Region.ball((0, 0), 1.0), 500)
        assert report.passed

    def test_positive_polynomial_does_not(self):
        report = sign_change_check(
            X * X + Y * Y + Polynomial.constant(2, 1),
            Region.ball((0, 0), 1.0),
            500,
        )
        assert not report.passed


class TestEllipticResidual:
    def test_single_h_reports_magnitude(self):
        report = elliptic_residual(PAIR.u, PAIR.v, BOX, h=0.02, samples=50)
        assert report.extremes["max_abs_residual"] < 1.0

    def test_second_order_decay(self):
        report = residual_convergence(
            PAIR.u, PAIR.v, BOX, h0=0.05, halvings=2, samples=40
        )
        assert report.passed
        assert all(o >= 1.9 for o in report.extremes["orders"])


class TestLeadingZeroInclusion:
    def test_shared_zero_pair_passes(self):
        u = PAIR.u.taylor((0, 0), 6)
        v = PAIR.v.taylor((0, 0), 6)
        report = leading_zero_inclusion(u, v, samples=512)
        assert report.passed

    def test_disjoint_zero_sets_fail(self):
        from harmonic_ratios import TruncatedSeries

        u = TruncatedSeries.from_polynomial(2 * X * Y, 4)      # zeros on axes
        v = TruncatedSeries.from_polynomial(X * X - Y * Y, 4)  # zeros on diagonals
        report = leading_zero_inclusion(u, v, samples=512)
        assert not report.passed

    def test_zero_on_a_sample_point_counts_once(self):
        from harmonic_ratios import TruncatedSeries

        # xy is exactly 0 at the sample angle 0; its other zeros fall
        # between samples
        v = TruncatedSeries.from_polynomial(X * Y, 4)
        report = leading_zero_inclusion(v, v, samples=512)
        assert report.passed
        assert report.extremes["zeros_found"] == 4

    def test_3d_shared_zero_pair_passes(self):
        pair = shared_pair("paperH", "paperH")
        u = pair.u.taylor((0, 0, 0), 8)
        v = pair.v.taylor((0, 0, 0), 8)
        report = leading_zero_inclusion(u, v, samples=10_000, seed=0)
        assert report.passed
        assert report.extremes["zeros_found"] == 624
        assert report.samples == {"circle_points": 10_000, "circles": 156}

    def test_3d_disjoint_zero_sets_fail(self):
        from harmonic_ratios import TruncatedSeries

        x, y = Polynomial.variable(3, 0), Polynomial.variable(3, 1)
        u = TruncatedSeries.from_polynomial(x * y, 4)          # planes x = 0, y = 0
        v = TruncatedSeries.from_polynomial(x * x - y * y, 4)  # planes x = +-y
        report = leading_zero_inclusion(u, v, samples=1024)
        assert report.extremes["zeros_found"] > 0
        assert not report.passed
