"""Nodal-set analysis: depth, critical points, domain counts, level sets."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from harmonic_ratios import (
    Polynomial,
    Region,
    TruncatedSeries,
    catalog_get,
    critical_set_sample,
    depth_of_zero,
    nodal_domain_count,
    rotate,
    zero_set_sample,
)
import harmonic_ratios.nodal as nodal_module
from harmonic_ratios.nodal import (
    BisectionError,
    NotAZero,
    _count_domains,
    _runs,
    _sign_grid,
    write_points_csv,
    write_svg,
)
from harmonic_ratios.rotation import cayley_from_params, random_rotation

X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)
PAPER_H = catalog_get("paperH").polynomial
X4 = [Polynomial.variable(4, i) for i in range(4)]


class TestDepth:
    def test_saddle_origin(self):
        assert depth_of_zero(X * X - Y * Y, (0, 0)) == 2

    def test_cubic_3d_origin(self):
        assert depth_of_zero(PAPER_H, (0, 0, 0)) == 2

    def test_rezk_origin(self):
        assert depth_of_zero(catalog_get("rezk:3").polynomial, (0, 0)) == 3

    def test_simple_zero(self):
        assert depth_of_zero(X * X - Y * Y, (1, 1)) == 1

    def test_rational_point(self):
        p = (X - Polynomial.constant(2, Fraction(1, 3))) ** 2
        assert depth_of_zero(p, (Fraction(1, 3), 7)) == 2

    def test_non_zero_rejected(self):
        with pytest.raises(NotAZero):
            depth_of_zero(X * X - Y * Y, (1, 0))

    def test_series_input(self):
        s = TruncatedSeries.from_polynomial(X * Y, 4)
        assert depth_of_zero(s, (0, 0)) == 2

    def test_invariant_under_exact_rotation(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            rot = random_rotation(3, rng)
            assert depth_of_zero(rotate(PAPER_H, rot), (0, 0, 0)) == 2


class TestCriticalSet:
    def test_cubic_3d_only_origin(self):
        report = critical_set_sample(PAPER_H, Region.ball((0, 0, 0), 1.0), grid=16)
        assert len(report.critical_points) == 1
        assert np.linalg.norm(report.critical_points[0]) < 1e-8
        assert report.depths[0]["depth"] == 2

    def test_saddle_origin(self):
        report = critical_set_sample(X * X - Y * Y, Region.ball((0, 0), 1.0), grid=16)
        assert len(report.critical_points) == 1
        assert np.linalg.norm(report.critical_points[0]) < 1e-8

    def test_no_critical_points(self):
        report = critical_set_sample(X, Region.ball((1, 1), 0.5), grid=8)
        assert report.critical_points == []
        assert " 0 seeds," in report.notes

    def test_classification_conservative(self):
        report = critical_set_sample(PAPER_H, Region.ball((0, 0, 0), 1.0), grid=16)
        for c in report.classifications:
            assert c["label"] in ("good", "unclassified")

    def test_critical_line_is_one_good_chain(self):
        # x y in 3D is critical, to depth 2, on the whole z-axis
        xy = Polynomial(3, {(1, 1, 0): 1})
        report = critical_set_sample(xy, Region.ball((0, 0, 0), 1.0), grid=12)
        assert len(report.critical_points) == 12
        assert all(p[:2] == [0.0, 0.0] for p in report.critical_points)
        assert [d["depth"] for d in report.depths] == [2] * 12
        assert [c["label"] for c in report.classifications] == ["good"] * 12
        # one chain, in the order the points were found
        assert [c["point"] for c in report.classifications] == report.critical_points
        assert [p[2] for p in report.critical_points] == pytest.approx(
            [-0.75 + k / 6 for k in range(10)] + [-11 / 12, 11 / 12]
        )

    def test_chains_come_in_the_order_of_their_first_point(self):
        # points 0, 2, 4 chain along x (spacing 2 h), 1 and 3 along y, 5 is alone
        h = 0.1
        points = [np.array(p) for p in (
            (0.0, 0.0), (5.0, 0.0), (0.2, 0.0), (5.0, 0.2), (0.4, 0.0), (9.0, 9.0)
        )]
        depths = [{"depth": 2}] * 6
        out = nodal_module._classify_curve_points(points, depths, h)
        assert [c["point"] for c in out] == [
            list(points[i]) for i in (0, 2, 4, 1, 3, 5)
        ]
        assert [c["label"] for c in out] == ["good"] * 3 + ["unclassified"] * 3
        assert nodal_module._classify_curve_points([], [], h) == []


class TestNodalDomainCount:
    def test_saddle_has_four(self):
        assert nodal_domain_count(X * X - Y * Y, Region.ball((0, 0), 1.0), 128) == 4

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sector_counts(self, k):
        w = catalog_get(f"rezk:{k}").polynomial
        assert nodal_domain_count(w, Region.ball((0, 0), 1.0), 128) == 2 * k

    def test_cubic_3d_has_two(self):
        assert nodal_domain_count(PAPER_H, Region.ball((0, 0, 0), 0.5), 96) == 2

    def test_stable_under_refinement(self):
        w = catalog_get("rezk:3").polynomial
        counts = {nodal_domain_count(w, Region.ball((0, 0), 1.0), res)
                  for res in (96, 192)}
        assert counts == {6}

    def test_box_region(self):
        assert nodal_domain_count(X, Region.box((-1, -1), (1, 1)), 64) == 2

    @pytest.mark.parametrize("resolution", [64, 96])
    def test_rotated_cubic_has_two(self, resolution):
        # at these resolutions single cells touch their domain only at a
        # corner
        w = rotate(PAPER_H, cayley_from_params(3, [2, Fraction(2, 5), 1]))
        ball = Region.ball((0, 0, 0), 0.5)
        assert nodal_domain_count(w, ball, resolution) == 2

    @pytest.mark.parametrize("params", [
        [1, Fraction(2, 5), 1],
        [Fraction(-3, 2), Fraction(-4, 3), Fraction(-3, 2)],
    ])
    def test_band_cut_fragment_is_not_a_domain(self, params):
        # at res 192 the band encloses a one- or two-cell same-sign component
        # inside the ball; a harmonic w has no such nodal domain
        w = rotate(PAPER_H, cayley_from_params(3, params))
        assert nodal_domain_count(w, Region.ball((0, 0, 0), 0.5), 192) == 2

    @pytest.mark.parametrize("factor", [1, Polynomial.constant(2, 2) + X * X])
    def test_many_sectors_touch_across_corners(self, factor):
        # the non-harmonic multiple has the same nodal set and no
        # maximum-principle rule, so only corner connectivity merges its cells
        w = catalog_get("imzk:10").polynomial * factor
        assert nodal_domain_count(w, Region.ball((0, 0), 1.0), 128) == 20

    def test_enclosed_domain_counts_for_non_harmonic_input(self):
        w = X * X + Y * Y - Polynomial.constant(2, Fraction(1, 4))
        assert nodal_domain_count(w, Region.ball((0, 0), 1.0), 128) == 2

    def test_threshold_scales_the_largest_value_in_the_region(self):
        # |w| <= 1 in the disk and 2^36 at the corners of its box: a
        # threshold of 1e-10 times the box's largest |w| signs no cell
        w = catalog_get("rezk:72").polynomial
        assert nodal_domain_count(w, Region.ball((0, 0), 1.0), 300) == 144


def whole_grid_count(signs, shell, harmonic):
    """The domain count from one labelling of the whole sign grid per sign."""
    structure = ndimage.generate_binary_structure(signs.ndim, signs.ndim)
    total = 0
    for s in (1, -1):
        labels, count = ndimage.label(signs == s, structure=structure)
        if harmonic:
            count = int(np.count_nonzero(np.unique(labels.ravel()[shell])))
        total += count
    return total


def grid_runs(signs, shell):
    """The runs of each sign of a whole sign grid, with their shell flags
    for the sorted flat indices ``shell``, in the form ``_sign_grid`` gives."""
    return [_runs(signs == s, shell) for s in (1, -1)]


def count(signs, shell, harmonic):
    """The domain count of a whole sign grid, from its runs."""
    return _count_domains(grid_runs(signs, shell), signs.shape, harmonic)


def assembled(runs, shape):
    """The int8 sign grid that the runs of each sign cover."""
    signs = np.zeros(math.prod(shape), dtype=np.int8)
    for s, (first, last, _) in zip((1, -1), runs):
        cover = np.zeros(signs.size + 1, dtype=np.intp)
        np.add.at(cover, first, 1)
        np.add.at(cover, last + 1, -1)
        signs[np.cumsum(cover[:-1]) > 0] = s
    return signs.reshape(shape)


def shell_oracle(region, resolution):
    """The region's cells minus its erosion by the full 3^dim neighbourhood."""
    axes, _ = region.grid_axes(resolution)
    mask = region.mask(np.ix_(*axes))
    eroded = ndimage.binary_erosion(mask, np.ones((3,) * mask.ndim), border_value=0)
    return mask & ~eroded


def held_oracle(runs, shell):
    """For each sign, whether each of its runs holds a cell of the bool grid
    ``shell``."""
    before = np.concatenate([[0], np.cumsum(shell.ravel())])
    return [before[last + 1] - before[first] > 0 for first, last, _ in runs]


def box_shell(shape):
    """Sorted flat indices of the cells on the faces of a grid."""
    inner = np.zeros(shape, dtype=bool)
    inner[(slice(1, -1),) * len(shape)] = True
    return np.flatnonzero(~inner)


class TestChunkedCount:
    """The count from the runs of each sign (``_runs``, ``_count_domains``)
    must equal the whole-grid labelling's."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_grids_match_whole_grid_labelling(self, data):
        dim = data.draw(st.sampled_from([2, 3]), label="dim")
        planes = data.draw(st.integers(1, 98), label="planes")
        side = st.integers(1, 6 if dim == 2 else 4)
        shape = (planes, *data.draw(st.tuples(*[side] * (dim - 1)), label="rest"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        zeros = data.draw(st.floats(0.0, 0.9), label="zero fraction")
        signs = rng.choice(
            np.array([-1, 0, 1], dtype=np.int8), size=shape,
            p=[(1 - zeros) / 2, zeros, (1 - zeros) / 2],
        )
        shell = np.flatnonzero(rng.random(signs.size) < data.draw(st.floats(0, 1)))
        for harmonic in (True, False):
            assert count(signs, shell, harmonic) == whole_grid_count(
                signs, shell, harmonic
            )

    @pytest.mark.parametrize("resolution", [1, 2, 32, 33, 34, 63, 64, 65])
    @pytest.mark.parametrize("w, region", [
        (PAPER_H, Region.ball((0, 0, 0), 0.5)),
        (rotate(PAPER_H, cayley_from_params(3, [2, Fraction(2, 5), 1])),
         Region.ball((0.02, -0.01, 0.03), 0.45)),
        (catalog_get("rezk:3").polynomial, Region.ball((0, 0), 1.0)),
        (catalog_get("imzk:10").polynomial * (Polynomial.constant(2, 2) + X * X),
         Region.box((-1, -0.8), (0.9, 1))),
    ])
    def test_chunk_edges_match_whole_grid_labelling(self, w, region, resolution):
        # at resolutions 63 to 65 a 3D grid takes 4 or 5 slabs of 15 or 16
        # planes, the last one shorter; the count must equal the labelling
        # of the assembled sign grid with the erosion shell
        runs = _sign_grid(w, region, resolution, 1e-10)
        signs = assembled(runs, (resolution,) * region.dim)
        shell = np.flatnonzero(shell_oracle(region, resolution))
        expected = whole_grid_count(signs, shell, w.is_harmonic())
        assert nodal_domain_count(w, region, resolution) == expected

    @pytest.mark.parametrize("shape", [(64, 3), (64, 3, 3)])
    def test_component_crossing_a_chunk_edge_at_a_corner(self, shape):
        # planes 30, 31 and 32 hold one cell each, touching only at corners
        signs = np.zeros(shape, dtype=np.int8)
        for step, plane in enumerate((30, 31, 32)):
            signs[(plane,) + (step,) * (len(shape) - 1)] = 1
        far_end = np.ravel_multi_index((32,) + (2,) * (len(shape) - 1), shape)
        for harmonic in (True, False):
            assert count(signs, np.array([far_end]), harmonic) == 1
        assert count(signs, np.array([], dtype=np.intp), True) == 0

    def test_enclosed_component_counts_only_for_non_harmonic_input(self):
        # a box clear of the faces
        signs = -np.ones((70, 9, 9), dtype=np.int8)
        signs[20:50, 3:6, 3:6] = 0
        signs[21:49, 4, 4] = 1
        shell = box_shell(signs.shape)
        assert count(signs, shell, False) == 2
        assert count(signs, shell, True) == 1

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_grids_in_dims_one_to_four(self, data):
        # a 1D grid is one row, with no neighbouring rows to link
        dim = data.draw(st.integers(1, 4), label="dim")
        sides = [st.integers(1, 80), st.integers(1, 40), st.integers(1, 8),
                 st.integers(1, 5)][:dim]
        shape = data.draw(st.tuples(*sides), label="shape")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        zeros = data.draw(st.floats(0.0, 0.9), label="zero fraction")
        signs = rng.choice(
            np.array([-1, 0, 1], dtype=np.int8), size=shape,
            p=[(1 - zeros) / 2, zeros, (1 - zeros) / 2],
        )
        shell = np.flatnonzero(rng.random(signs.size) < data.draw(st.floats(0, 1)))
        for harmonic in (True, False):
            assert count(signs, shell, harmonic) == whole_grid_count(
                signs, shell, harmonic
            )

    @pytest.mark.parametrize("shape", [(5,), (40, 7), (70, 4, 6), (3, 4, 5, 6)])
    def test_all_zero_grid_has_no_domain(self, shape):
        signs = np.zeros(shape, dtype=np.int8)
        for harmonic in (True, False):
            assert count(signs, box_shell(shape), harmonic) == 0

    def test_empty_shell_counts_nothing_for_harmonic_input(self):
        signs = np.random.default_rng(5).choice(
            np.array([-1, 0, 1], dtype=np.int8), size=(40, 6, 6)
        )
        empty = np.array([], dtype=np.intp)
        assert count(signs, empty, True) == 0
        assert count(signs, empty, False) == whole_grid_count(signs, empty, False)

    @pytest.mark.parametrize("zeros", [0.0, 0.5])
    def test_noise_grid_of_one_cell_runs(self, zeros):
        # half of the runs or more are a single cell long
        rng = np.random.default_rng(11)
        signs = rng.choice(
            np.array([-1, 0, 1], dtype=np.int8), size=(67, 12, 40),
            p=[(1 - zeros) / 2, zeros, (1 - zeros) / 2],
        )
        shell = box_shell(signs.shape)
        for harmonic in (True, False):
            assert count(signs, shell, harmonic) == whole_grid_count(
                signs, shell, harmonic
            )

    def test_peak_memory_stays_under_one_byte_per_cell(self):
        # the whole-grid labelling held a bool grid and an int32 label grid
        # beside the int8 sign grid, 6.15 bytes per cell at this size; the
        # sign grid alone held 1.8
        resolution = 256
        tracemalloc.start()
        try:
            count = nodal_domain_count(PAPER_H, Region.ball((0, 0, 0), 0.5), resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 2
        assert peak < resolution**3


def dense_sign_grid(w, region, resolution, band_rel):
    """The sign grid computed directly on the full mesh of cell centers,
    against the largest |w| at a cell center in the region."""
    axes, h = region.grid_axes(resolution)
    mesh = np.meshgrid(*axes, indexing="ij")
    vals = w.evaluate_array(mesh)
    gnorm = np.sqrt(sum(g.evaluate_array(mesh) ** 2 for g in w.gradient()))
    pts = np.column_stack([m.ravel() for m in mesh])
    inside = region.contains(pts).reshape(vals.shape)
    scale = max(float(np.max(np.abs(vals[inside]), initial=0.0)), 1e-300)
    band = np.maximum(band_rel * scale, np.sqrt(len(axes)) * h * gnorm)
    signs = np.zeros(vals.shape, dtype=np.int8)
    signs[vals > band] = 1
    signs[vals < -band] = -1
    signs[~inside] = 0
    return signs


class TestSignGrid:
    CASES = [
        (PAPER_H, Region.ball((0.05, -0.1, 0.02), 0.45), 24, 1e-10),
        (PAPER_H, Region.box((-0.3, -0.5, -0.2), (0.6, 0.5, 0.4)), 17, 1e-10),
        (catalog_get("rezk:3").polynomial, Region.annulus((0.1, -0.2), 0.3, 0.9), 50, 1e-10),
        # |w| grows along x, so early slabs are signed against a smaller
        # running max and must be corrected by the final threshold (once
        # the grid takes more than one slab; see test_slabs_match_dense)
        (Polynomial.variable(3, 0) + Polynomial.constant(3, 2),
         Region.ball((0, 0, 0), 1.0), 12, 0.5),
        # 4D grids are signed in slabs of axis-0 planes too
        (X4[0] * X4[1] + X4[2] * X4[3],
         Region.ball((0.05, -0.1, 0.02, 0.0), 0.45), 14, 1e-10),
        (X4[0] * X4[1] + X4[2] * X4[3],
         Region.box((-0.3, -0.5, -0.2, -0.4), (0.6, 0.5, 0.4, 0.3)), 9, 1e-10),
        (X4[0] + Polynomial.constant(4, 2), Region.ball((0, 0, 0, 0), 1.0), 10, 0.5),
        # 16 dense terms: the rotated count of the nodal-grid benchmark
        (rotate(PAPER_H, cayley_from_params(3, [2, Fraction(2, 5), 1])),
         Region.ball((0.02, -0.01, 0.03), 0.45), 21, 1e-10),
    ]

    @pytest.mark.parametrize("w, region, resolution, band_rel", CASES)
    def test_matches_dense_evaluation(self, w, region, resolution, band_rel):
        runs = _sign_grid(w, region, resolution, band_rel)
        signs = assembled(runs, (resolution,) * region.dim)
        assert np.array_equal(signs, dense_sign_grid(w, region, resolution, band_rel))

    @pytest.mark.parametrize("w, region, resolution, band_rel", CASES)
    def test_shell_is_the_region_minus_its_erosion(self, w, region, resolution, band_rel):
        runs = _sign_grid(w, region, resolution, band_rel)
        expected = held_oracle(runs, shell_oracle(region, resolution))
        assert all(np.array_equal(held, e) for (_, _, held), e in zip(runs, expected))

    # every case fits in one slab of the default budget; these budgets give
    # one plane per slab, and slabs of several planes with a shorter last one
    @pytest.mark.parametrize("cells", [1, 700, 3000])
    @pytest.mark.parametrize("w, region, resolution, band_rel", CASES)
    def test_slabs_match_dense(self, monkeypatch, cells, w, region, resolution, band_rel):
        monkeypatch.setattr(nodal_module, "_SLAB_CELLS", cells)
        runs = _sign_grid(w, region, resolution, band_rel)
        signs = assembled(runs, (resolution,) * region.dim)
        assert np.array_equal(signs, dense_sign_grid(w, region, resolution, band_rel))
        expected = held_oracle(runs, shell_oracle(region, resolution))
        assert all(np.array_equal(held, e) for (_, _, held), e in zip(runs, expected))


class TestZeroSetSample:
    def test_saddle_level_set(self):
        points, segments = zero_set_sample(
            X * X - Y * Y, Region.box((-1, -1), (1, 1)), 64
        )
        assert points and segments
        pts = np.array(points)
        assert np.allclose(np.abs(pts[:, 0]), np.abs(pts[:, 1]), atol=1e-10)

    def test_points_are_zeros(self):
        w = catalog_get("rezk:3").polynomial
        points, _ = zero_set_sample(w, Region.box((-1, -1), (1, 1)), 48)
        assert np.all(np.abs(w.evaluate_array(list(np.array(points).T))) < 1e-9)

    def test_far_corner_zero_is_a_point(self):
        # x^2 - y^2 is exactly 0 at the four corners of the box; the last
        # node starts no side of a cell, and a path that names nodes by the
        # sides they start drops (1, 1)
        points, _ = zero_set_sample(
            catalog_get("saddle2d").polynomial, Region.box((-1, -1), (1, 1)), 8
        )
        assert len(points) == 17
        assert [1.0, 1.0] in points and [-1.0, -1.0] in points

    @pytest.mark.parametrize("w, kinds", [
        # x y is 0 on the middle row and column of nodes, and changes sign
        # on no edge
        (X * Y, {0}),
        (catalog_get("rezk:3").polynomial, {0, 1, 2}),
    ])
    def test_2d_points_are_kind_major(self, w, kinds):
        # the nodes where w is exactly 0, then the crossings on edges along
        # axis 0, then those along axis 1, each group in row-major order
        axis = np.linspace(-1, 1, 9)
        points, _ = zero_set_sample(w, Region.box((-1, -1), (1, 1)), 8)

        def key(p):
            on = [bool(np.any(axis == v)) for v in p]
            kind = 0 if all(on) else 1 if on[1] else 2
            return (kind, *(int(np.searchsorted(axis, v, side="right")) for v in p))

        assert points == sorted(points, key=key)
        assert {key(p)[0] for p in points} == kinds

    def test_2d_zero_nodes_are_row_major(self):
        axis = np.linspace(-1, 1, 9).tolist()
        points, _ = zero_set_sample(X * Y, Region.box((-1, -1), (1, 1)), 8)
        assert points == [[x, y] for x in axis for y in axis if x * y == 0]

    def test_accuracy_is_checked_on_returned_points_only(self):
        # Re z^40 reaches 2^20 at the box's corners, and points bisected
        # outside the unit disk miss 1e-12 of that; the plot does not
        # return them, so they are not checked
        w = catalog_get("rezk:40").polynomial
        points, _ = zero_set_sample(w, Region.ball((0, 0), 1.0), 64)
        assert points
        assert all(x * x + y * y <= 1.0 for x, y in points)
        assert np.all(np.abs(w.evaluate_array(list(np.array(points).T))) <= 1e-12 * 2**20)

    def test_missed_accuracy_raises(self):
        with pytest.raises(BisectionError):
            zero_set_sample(X * Y, Region.box((-1, -1), (1, 1)), 7, tol=-1.0)

    def test_missed_accuracy_raises_in_3d(self):
        with pytest.raises(BisectionError):
            zero_set_sample(PAPER_H, Region.ball((0, 0, 0), 0.5), 7, tol=-1.0)

    @pytest.mark.parametrize("z0", [5e-324, -5e-324])
    def test_subnormal_box_keeps_its_brackets(self, z0):
        # near (1, -1, 5e-324) w is about -1.5e-323, and its product with a
        # value of w there underflows to 0; bisection lost such edges and
        # raised BisectionError near [1.0, -0.75, 5e-324]
        points, _ = zero_set_sample(PAPER_H, Region.box((-1, -1, z0), (1, 1, 1)), 8)
        assert points
        values = PAPER_H.evaluate_array(list(np.array(points).T))
        assert np.all(np.abs(values) < 1e-9)

    def test_3d_zero_set_on_node_planes(self):
        # x y z vanishes on the three coordinate planes through the middle
        # nodes, 3 * 9^2 - 3 * 9 + 1 = 217 nodes, and changes sign on no edge
        xyz = math.prod(Polynomial.variable(3, i) for i in range(3))
        points, segments = zero_set_sample(xyz, Region.box((-1, -1, -1), (1, 1, 1)), 8)
        assert len(points) == 217 and segments == []
        assert all(0.0 in p for p in points)

    def test_3d_singular_point_is_a_zero_node(self):
        points, _ = zero_set_sample(PAPER_H, Region.ball((0, 0, 0), 1.0), 16)
        assert [0.0, 0.0, 0.0] in points

    def test_3d_point_cloud(self):
        points, segments = zero_set_sample(PAPER_H, Region.ball((0, 0, 0), 0.5), 12)
        assert segments == []
        assert points
        assert np.all(np.abs(PAPER_H.evaluate_array(list(np.array(points).T))) < 1e-9)


class TestZeroFunction:
    """w = 0 has the whole region as its zero set, not a nodal set: every
    nodal routine refuses it on entry, where else each cell would be a
    critical point and each node a point of the plot."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("routine", [
        lambda w, region: nodal_domain_count(w, region, 16),
        lambda w, region: zero_set_sample(w, region, 16),
        lambda w, region: critical_set_sample(w, region, grid=8),
    ], ids=["count", "plot", "critical"])
    def test_zero_polynomial_is_refused(self, routine, dim):
        region = Region.ball((0,) * dim, 1.0)
        with pytest.raises(nodal_module.ZeroFunction, match="zero polynomial"):
            routine(Polynomial.zero(dim), region)

    def test_nonzero_constant_is_not_refused(self):
        w, region = Polynomial.constant(2, 1), Region.box((-1, -1), (1, 1))
        assert nodal_domain_count(w, region, 8) == 1
        assert zero_set_sample(w, region, 8) == ([], [])
        assert critical_set_sample(w, region, grid=8).critical_points == []


class TestArtifacts:
    def test_svg(self, tmp_path):
        points, segments = zero_set_sample(X * Y, Region.box((-1, -1), (1, 1)), 32)
        out = tmp_path / "nodal.svg"
        write_svg(points, segments, str(out))
        text = out.read_text()
        assert text.startswith("<svg") and "<line" in text

    def test_csv(self, tmp_path):
        out = tmp_path / "pts.csv"
        write_points_csv([[0.25, -0.5]], str(out))
        assert out.read_text().splitlines() == ["x1,x2", "0.25,-0.5"]
