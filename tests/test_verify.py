"""Numeric checks on ratios of harmonic functions with a shared zero set."""

import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import harmonic_ratios.nodal as nodal_module
import harmonic_ratios.verify as verify_module
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
    sphere_orthogonality,
)
from harmonic_ratios.division import series_ratio
from harmonic_ratios.verify import RESIDUAL_GUARD, DegenerateRegion

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


@pytest.fixture
def series_ratio_calls(monkeypatch):
    """Every call of series_ratio made from the verify layer."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return series_ratio(*args, **kwargs)

    monkeypatch.setattr(verify_module, "series_ratio", spy)
    return calls


class NoTaylorEntry:
    """A callable pair member without exact Taylor data."""

    dimension = 2

    def __init__(self, f):
        self.f = f
        self.taylor_calls = 0

    def __call__(self, *coords):
        return self.f(*coords)

    def taylor(self, center, max_degree):
        self.taylor_calls += 1
        raise ValueError("no exact coefficients")


class TestLazySeries:
    def test_no_series_when_no_point_is_in_the_band(self, series_ratio_calls):
        # the disk spans 0.4 <= x <= 1.2, clear of the shared zero x = 0
        report = max_principle_check(
            RatioEvaluator.for_pair(PAIR), Region.ball((0.8, 0.3), 0.4),
            boundary_samples=256, interior_samples=256,
        )
        assert report.passed and report.samples["skipped"] == 0
        assert series_ratio_calls == []

    def test_series_built_once_for_a_symmetric_box(self, series_ratio_calls):
        # 21 points per axis put one grid column on x = 0
        ev = RatioEvaluator.for_pair(PAIR)
        report = harnack_constant(
            ev, Region.box((-0.2, -0.2), (0.2, 0.2)), samples=21**2
        )
        assert report.samples == {"grid_points": 441, "skipped": 0}
        assert len(series_ratio_calls) == 1
        vals, ok = ev(np.array([[0.0, 0.1]]))
        assert bool(ok[0])
        assert vals[0] == pytest.approx(1.0 + np.tanh(0.1), abs=1e-9)
        assert len(series_ratio_calls) == 1

    def test_same_result_as_the_eager_series(self):
        v_t = PAIR.v.taylor((0, 0), 16)
        k = v_t.leading_degree()
        eager = RatioEvaluator(
            u=PAIR.u,
            v=PAIR.v,
            ratio_series=series_ratio(
                PAIR.u.taylor((0, 0), 12 + k), PAIR.v.taylor((0, 0), 12 + k), 12
            ).quotient,
        )
        lazy = RatioEvaluator.for_pair(PAIR)
        y = np.linspace(-0.6, 0.6, 25)
        # band points on x = 0 inside and outside the trust radius, and
        # direct points beside them
        pts = np.concatenate([
            np.column_stack([np.zeros_like(y), y]),
            np.column_stack([np.full_like(y, 0.3), y]),
        ])
        want_vals, want_ok = eager(pts)
        assert np.any(want_ok[:25]) and not np.all(want_ok[:25])
        for _ in range(2):
            vals, ok = lazy(pts)
            assert np.array_equal(ok, want_ok)
            assert vals.tobytes() == want_vals.tobytes()

    def test_failed_taylor_marks_band_points_invalid(self, series_ratio_calls):
        pair = SimpleNamespace(u=NoTaylorEntry(PAIR.u), v=NoTaylorEntry(PAIR.v))
        ev = RatioEvaluator.for_pair(pair)
        pts = np.array([[0.0, 0.1], [0.5, 0.3]])
        for _ in range(2):
            vals, ok = ev(pts)
            assert ok.tolist() == [False, True]
            assert np.isnan(vals[0])
            assert vals[1] == pytest.approx(np.exp(0.3) / np.cosh(0.3))
        # the failed build is remembered, not retried
        assert pair.v.taylor_calls == 1
        assert series_ratio_calls == []

    def test_failed_division_marks_band_points_invalid(self):
        # x^2 - y^2 shares only the origin with 2xy, so the series division
        # leaves a residual (ResidualNonzero, a DivisionError)
        pair = SimpleNamespace(u=catalog_get("saddle2d"), v=catalog_get("imz2"))
        ev = RatioEvaluator.for_pair(pair)
        pts = np.array([[0.0, 0.1], [0.5, 0.3]])
        for _ in range(2):
            vals, ok = ev(pts)
            assert ok.tolist() == [False, True]
            assert np.isnan(vals[0])
            assert vals[1] == pytest.approx(0.16 / 0.3)


class TestMaxPrinciple:
    def test_holds_for_harmonic_ratio(self, evaluator):
        report = max_principle_check(
            evaluator, BOX, boundary_samples=512, interior_samples=512
        )
        assert report.passed
        assert report.extremes["interior_max"] <= report.extremes["boundary_max"] + 1e-9

    def test_detects_interior_bump(self):
        # 1 - x^2 - y^2 peaks strictly inside the disk
        bump = lambda x, y: 1.0 - x**2 - y**2
        one = lambda x, y: np.ones_like(x)
        report = max_principle_check(
            RatioEvaluator(u=bump, v=one), Region.ball((0, 0), 1.0),
            boundary_samples=64, interior_samples=512,
        )
        assert not report.passed

    def test_degenerate_sampling_rejected(self, evaluator):
        with pytest.raises(DegenerateRegion):
            max_principle_check(evaluator, BOX, 2, 0)

    def test_3d_annulus_samples_its_inner_sphere(self):
        # 1/|x| is harmonic in 3D and peaks on the inner sphere, at 1/0.3
        inverse = lambda x, y, z: 1.0 / np.sqrt(x**2 + y**2 + z**2)
        one = lambda x, y, z: np.ones_like(x)
        report = max_principle_check(
            RatioEvaluator(u=inverse, v=one), Region.annulus((0, 0, 0), 0.3, 0.9),
            boundary_samples=256, interior_samples=512,
        )
        assert report.passed
        assert report.extremes["boundary_max"] == pytest.approx(1 / 0.3)
        assert report.extremes["boundary_min"] == pytest.approx(1 / 0.9)
        assert report.samples["boundary"] == 512


class TestHarnack:
    def test_reference_constant(self, evaluator):
        report = harnack_constant(evaluator, BOX, samples=250_000)
        assert report.passed
        assert report.extremes["C_star"] == pytest.approx(np.e**2, abs=1e-3)

    def test_equal_pair_gives_one(self):
        pair = shared_pair("expsin", "expsin")
        ev = RatioEvaluator.for_pair(pair)
        report = harnack_constant(ev, BOX, samples=10_000)
        assert report.extremes["C_star"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("region, samples", [
        (Region.box((-1, -0.5, 0.25), (0.5, 1, 2)), 7**3),
        (Region.ball((0.1, -0.2), 0.7), 30**2),
    ])
    def test_samples_are_the_ij_mesh_in_order(self, region, samples):
        seen = []

        class Recorder(RatioEvaluator):
            def _evaluate(self, coords, where, scale):
                shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
                seen.append(np.column_stack(
                    [np.broadcast_to(c, shape)[where] for c in coords]
                ))
                return np.ones(shape), where.copy()

        harnack_constant(Recorder(u=None, v=lambda *coords: np.ones(())), region, samples)
        lo, hi = region.bounding_box()
        per_axis = round(samples ** (1 / region.dim))
        axes = [np.linspace(a, b, per_axis) for a, b in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        expected = np.column_stack([m.ravel() for m in mesh])
        expected = expected[region.contains(expected)]
        assert len(seen) == 1 and np.array_equal(seen[0], expected)

    def test_peak_memory_stays_under_four_bytes_per_point(self):
        # the grid evaluated whole held u, v, f and three masks at every
        # point: 27 bytes per point at this size
        tracemalloc.start()
        try:
            report = harnack_constant(RatioEvaluator.for_pair(PAIR), PAIR.region, 1001**2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.samples["grid_points"] + report.samples["skipped"] == 1001**2
        assert peak < 4 * 1001**2

    def test_differing_zero_sets_detected(self):
        # u vanishes where v does not: the "ratio" dips to zero
        u = lambda x, y: x * x - y * y
        v = lambda x, y: np.ones_like(x)
        with pytest.raises(RatioVanishes):
            harnack_constant(RatioEvaluator(u=u, v=v), BOX, samples=10_000)


def _point_list_harnack(evaluator, region, samples):
    """Values, valid mask and report fields of the Harnack grid taken as a
    materialised list of the grid points inside the region."""
    axes = [np.linspace(a, b, round(samples ** (1 / region.dim)))
            for a, b in zip(*region.bounding_box())]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    pts = pts[region.contains(pts)]
    f, ok = evaluator(pts)
    vals = np.abs(f[ok])
    sup, inf = float(np.max(vals)), float(np.min(vals))
    report = {"sup_abs_f": sup, "inf_abs_f": inf, "C_star": sup / inf}
    counts = {"grid_points": len(vals), "skipped": int(np.sum(~ok))}
    return axes, f, ok, report, counts


def _polynomial_func(p):
    return lambda *coords: p.evaluate_array(list(coords))


X3, Y3, Z3 = (Polynomial.variable(3, i) for i in range(3))
ONE3 = Polynomial.constant(3, 1)
HALF3 = Polynomial.constant(3, Fraction(1, 2))


MESH_CASES = [
    # a grid column on x = 0: series fallback near the origin, invalid
    # points beyond the trust radius
    (lambda: RatioEvaluator.for_pair(PAIR), Region.box((-1, -1), (1, 1)), 41**2),
    # polynomials, no series: v vanishes at the grid points with x = y - 1/2
    (lambda: RatioEvaluator(
        u=_polynomial_func(catalog_get("paperH").polynomial + ONE3 * 3),
        v=_polynomial_func((X3 - Y3 + HALF3) * (Z3 + ONE3))),
     Region.box((-1, -0.5, 0.25), (0.5, 1, 2)), 9**3),
    (lambda: RatioEvaluator.for_pair(PAIR), Region.ball((0.0, 0.1), 0.6), 31**2),
    # the grid column on x = 0 leaves this ball within the series' trust
    # radius; the points outside stay invalid
    (lambda: RatioEvaluator.for_pair(PAIR), Region.ball((0.3, 0.0), 0.35), 29**2),
    # |v| peaks in the box's corners, outside the ball: the guard scale
    # is the largest |v| inside, so more points stay valid
    (lambda: RatioEvaluator(u=lambda x, y: (2 + x) * np.exp(40 * x * y),
                            v=lambda x, y: np.exp(40 * x * y)),
     Region.ball((0.0, 0.0), 1.0), 21**2),
    # u and v ignore x, so on the mesh they come back one row wide
    (lambda: RatioEvaluator(u=lambda x, y: np.exp(y), v=lambda x, y: np.cosh(y)),
     Region.annulus((0.2, -0.1), 0.3, 0.9), 25**2),
]


class TestMeshPath:
    """The open mesh gives what the materialised point list gave, bit for
    bit: values, valid mask, C_star and counts."""

    @pytest.mark.parametrize("make, region, samples", MESH_CASES)
    def test_mesh_equals_point_list(self, make, region, samples):
        axes, f_list, ok_list, report, counts = _point_list_harnack(
            make(), region, samples
        )
        coords = np.ix_(*axes)
        inside = region.mask(coords)
        f, ok = make()._evaluate(coords, where=inside)
        assert f.shape == ok.shape == inside.shape
        assert f[inside].tobytes() == f_list.tobytes()
        assert np.array_equal(ok[inside], ok_list) and not np.any(ok[~inside])
        got = harnack_constant(make(), region, samples)
        assert got.extremes == report and got.samples == counts

    # blocks of one row, and of several rows with a shorter last block
    @pytest.mark.parametrize("cells", [1, 100])
    @pytest.mark.parametrize("make, region, samples", MESH_CASES)
    def test_blocks_equal_point_list(self, monkeypatch, cells, make, region, samples):
        monkeypatch.setattr(nodal_module, "_SLAB_CELLS", cells)
        _, _, _, report, counts = _point_list_harnack(make(), region, samples)
        got = harnack_constant(make(), region, samples)
        assert got.extremes == report and got.samples == counts

    def test_cases_reach_the_fallback_and_invalid_points(self):
        axes, _, ok, _, _ = _point_list_harnack(
            RatioEvaluator.for_pair(PAIR), Region.box((-1, -1), (1, 1)), 41**2
        )
        column = np.meshgrid(*axes, indexing="ij")[0].ravel() == axes[0][20]
        assert abs(axes[0][20]) < 1e-15
        assert np.any(ok & column) and np.any(~ok & column) and np.all(ok | column)


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


class TestEllipticResidual:
    def test_second_order_decay(self):
        report = residual_convergence(
            PAIR.u, PAIR.v, BOX, h0=0.05, halvings=2, samples=40
        )
        assert report.passed
        assert all(o >= 1.9 for o in report.extremes["orders"])

    def test_every_stencil_node_clears_the_guard_band(self, monkeypatch):
        # the box hugs the zero line x = 0 and every step is a sizeable part
        # of its width, so many stencils reach across the line
        region = Region.box((-0.2, -0.2), (0.2, 0.2))
        h0, halvings, samples, seed = 0.1, 2, 1000, 3
        calls = []
        real = verify_module._divergence_form_residual

        def recording(evaluator, v, pts, h):
            calls.append((pts.copy(), h))
            return real(evaluator, v, pts, h)

        monkeypatch.setattr(verify_module, "_divergence_form_residual", recording)
        report = residual_convergence(
            PAIR.u, PAIR.v, region, h0=h0, halvings=halvings, samples=samples,
            seed=seed,
        )
        assert [h for _, h in calls] == [0.1, 0.05, 0.025]
        assert all(len(pts) == report.samples["points"] for pts, _ in calls)
        # the scale is max |v| over the draw the samples were taken from
        draw = region.sample_interior(samples * 4, np.random.default_rng(seed))
        floor = RESIDUAL_GUARD * float(np.max(np.abs(PAIR.v(*draw.T))))
        for pts, h in calls:
            assert np.all(np.abs(PAIR.v(*pts.T)) >= floor)
            for i in range(2):
                for sgn in (1.0, -1.0):
                    node = pts.copy()
                    node[:, i] += sgn * h
                    assert np.all(np.abs(PAIR.v(*node.T)) >= floor), (h, i, sgn)


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

    def test_zero_series_has_no_leading_part(self):
        # Re(x+iy)^9 truncated at degree 8 is the zero series
        v = catalog_get("rezk:9").taylor((0, 0), 8)
        assert v.is_zero()
        for args in ((v, v), (PAIR.u.taylor((0, 0), 6), v), (v, PAIR.v.taylor((0, 0), 6))):
            with pytest.raises(ValueError):
                leading_zero_inclusion(*args, samples=512)

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


class TestVanishingResidual:
    def test_constant_ratio_raises_a_typed_error(self):
        from harmonic_ratios import ResidualVanishes

        pair = shared_pair("saddle2d", "saddle2d")
        with pytest.raises(ResidualVanishes, match="residual vanishes at h = 0.05"):
            residual_convergence(
                pair.u, pair.v, pair.region, h0=0.05, halvings=2, samples=40
            )
