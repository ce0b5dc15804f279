"""Region geometry and deterministic sampling."""

import numpy as np
import pytest

from harmonic_ratios import Region


class TestConstruction:
    def test_bad_radius(self):
        with pytest.raises(ValueError):
            Region.ball((0, 0), 0.0)

    @pytest.mark.parametrize("make", [Region.ball])
    @pytest.mark.parametrize("radius", [float("nan"), -1.0, 0.0])
    def test_nan_or_nonpositive_radius(self, make, radius):
        with pytest.raises(ValueError):
            make((0, 0), radius)

    def test_bad_box(self):
        with pytest.raises(ValueError):
            Region.box((0, 1), (1, 0))

    @pytest.mark.parametrize("lo, hi", [
        ((0, 0), (0, 0)),
        ((-1, 0.5), (1, 0.5)),
        ((0, 0, 0), (1, 1, float("nan"))),
    ])
    def test_zero_volume_box(self, lo, hi):
        with pytest.raises(ValueError):
            Region.box(lo, hi)

    @pytest.mark.parametrize("make", [
        lambda: Region.ball((0, 0), 1e308),
        lambda: Region.ball((float("inf"), 0), 1.0),
        lambda: Region.ball((0, 0), float("inf")),
        lambda: Region.box((-1e308, 0), (1e308, 1)),
        lambda: Region.box((0, float("-inf")), (1, 0)),
        lambda: Region.annulus((0, 0, 0), 0.5, 1e308),
        lambda: Region.annulus((0, float("nan")), 0.5, 1.0),
    ])
    def test_extent_beyond_the_float_range(self, recwarn, make):
        with pytest.raises(ValueError, match="extent is beyond the float range"):
            make()
        assert not recwarn.list  # no numpy overflow warning on the way

    def test_finite_degenerate_extent_is_kept(self):
        # the z side rounds to 0 that far out; scans report the values there
        lo, hi = Region.ball((0, 0, 1e308), 0.5).bounding_box()
        assert lo[2] == hi[2] == 1e308

    def test_bad_annulus(self):
        with pytest.raises(ValueError):
            Region.annulus((0, 0), 2.0, 1.0)


class TestContains:
    def test_ball(self):
        r = Region.ball((0, 0), 1.0)
        inside = r.contains(np.array([[0.5, 0.5], [2.0, 0.0]]))
        assert list(inside) == [True, False]

    def test_box(self):
        r = Region.box((-1, -1), (1, 1))
        assert bool(r.contains(np.array([[1.0, 1.0]]))[0])
        assert not bool(r.contains(np.array([[1.0, 1.1]]))[0])

    def test_annulus_excludes_hole(self):
        r = Region.annulus((0, 0), 0.5, 1.0)
        flags = r.contains(np.array([[0.0, 0.0], [0.75, 0.0]]))
        assert list(flags) == [False, True]


def norm_rule(region, pts):
    """Membership computed the direct way, through np.linalg.norm."""
    if region.kind == "box":
        return np.all((pts >= region.lo) & (pts <= region.hi), axis=1)
    d = np.linalg.norm(pts - np.array(region.center), axis=1)
    if region.kind == "ball":
        return d <= region.radius
    return (d > region.inner) & (d <= region.radius)


REGIONS = [
    Region.ball((0.3, -0.2, 0.1), 0.7),
    Region.ball((0.0, 0.0), 1.0),
    Region.box((-0.4, 0.1, -1.0), (0.5, 0.9, 0.25)),
    Region.annulus((0.25, -0.5), 0.3, 0.8),
]


class TestMask:
    @pytest.mark.parametrize("region", REGIONS, ids=lambda r: f"{r.kind}{r.dim}")
    @pytest.mark.parametrize("resolution", [1, 8, 33])
    def test_grid_mask_matches_norm_rule(self, region, resolution):
        axes, _ = region.grid_axes(resolution)
        mask = region.mask(np.ix_(*axes))
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
        assert mask.shape == (resolution,) * region.dim
        assert np.array_equal(mask.ravel(), norm_rule(region, pts))

    @pytest.mark.parametrize("region", REGIONS, ids=lambda r: f"{r.kind}{r.dim}")
    def test_contains_matches_norm_rule_near_the_boundary(self, region):
        rng = np.random.default_rng(11)
        lo, hi = region.bounding_box()
        pts = rng.uniform(lo - 0.1, hi + 0.1, size=(2000, region.dim))
        if region.kind == "box":
            # snap coordinates onto the faces
            snap = rng.integers(0, 3, size=pts.shape)
            pts = np.where(snap == 1, lo, np.where(snap == 2, hi, pts))
        else:
            unit = rng.standard_normal((2000, region.dim))
            unit /= np.linalg.norm(unit, axis=1)[:, None]
            # points at the outer (and inner) radius, up to rounding
            radii = [region.radius] + ([region.inner] if region.inner else [])
            pts = np.vstack([pts] + [np.array(region.center) + r * unit for r in radii])
        assert np.array_equal(region.contains(pts), norm_rule(region, pts))


class TestSampling:
    def test_interior_points_inside(self):
        rng = np.random.default_rng(0)
        r = Region.ball((1, 2), 0.5)
        pts = r.sample_interior(200, rng)
        assert pts.shape == (200, 2)
        assert np.all(r.contains(pts))

    def test_interior_deterministic_given_seed(self):
        r = Region.box((-1, -1), (1, 1))
        a = r.sample_interior(50, np.random.default_rng(3))
        b = r.sample_interior(50, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_boundary_on_circle(self):
        r = Region.ball((0, 0), 2.0)
        pts = r.sample_boundary(64)
        assert np.allclose(np.linalg.norm(pts, axis=1), 2.0)
        # multiples of 4 include the axis extremes
        assert any(np.allclose(p, [2.0, 0.0]) for p in pts)
        assert any(np.allclose(p, [0.0, 2.0]) for p in pts)

    def test_boundary_on_sphere(self):
        r = Region.ball((0, 0, 0), 1.0)
        pts = r.sample_boundary(128)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)

    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.5, -1.0, 2.0)])
    def test_annulus_boundary_has_both_shells(self, center):
        r = Region.annulus(center, 0.3, 0.9)
        pts = r.sample_boundary(100)
        dist = np.linalg.norm(pts - np.array(center), axis=1)
        assert pts.shape == (200, len(center))
        assert np.allclose(dist[:100], 0.9) and np.allclose(dist[100:], 0.3)
        # the inner shell repeats the outer one's directions
        assert np.allclose((pts[:100] - center) / 0.9, (pts[100:] - center) / 0.3)

    def test_box_boundary(self):
        r = Region.box((0, 0), (1, 2))
        pts = r.sample_boundary(40)
        on_edge = (
            np.isclose(pts[:, 0], 0) | np.isclose(pts[:, 0], 1)
            | np.isclose(pts[:, 1], 0) | np.isclose(pts[:, 1], 2)
        )
        assert np.all(on_edge)


class TestGrids:
    def test_grid_axes_cell_centers(self):
        axes, h = Region.box((0, 0), (1, 1)).grid_axes(4)
        assert h == 0.25
        assert np.allclose(axes[0], [0.125, 0.375, 0.625, 0.875])


class TestBoxBoundary3D:
    def test_every_point_lies_exactly_on_a_face(self):
        r = Region.box((-1.0, -0.3, 0.1), (0.7, 2.0, 0.9))
        pts = r.sample_boundary(4096)
        lo, hi = np.array(r.lo), np.array(r.hi)
        assert pts.shape == (6 * 26 * 26, 3)
        assert np.all((pts >= lo) & (pts <= hi))
        assert np.all(np.any((pts == lo) | (pts == hi), axis=1))
        # every face is sampled, and all eight corners are among the points
        for axis in range(3):
            assert np.count_nonzero(pts[:, axis] == lo[axis]) >= 26 * 26
            assert np.count_nonzero(pts[:, axis] == hi[axis]) >= 26 * 26
        corners = {tuple(c) for c in np.array(np.meshgrid(*zip(lo, hi))).reshape(3, -1).T}
        assert corners <= {tuple(p) for p in pts}

    def test_fewer_than_six_samples_still_sample_each_face(self):
        pts = Region.box((0, 0, 0), (1, 1, 1)).sample_boundary(1)
        assert pts.shape == (6, 3)
