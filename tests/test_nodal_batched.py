"""The batched nodal refinements against their one-point-at-a-time forms,
and the slab scans against their whole-grid forms.

``reference_gauss_newton`` and ``reference_zero_set`` are the per-seed
Gauss-Newton and the per-edge bisection that ``critical_set_sample`` and
``zero_set_sample`` ran before they refined all points as one batch; both
evaluate w through ``evaluate_array``, one point at a time.  The critical
points must agree bit for bit.  Bisected points are held to 2 ulp; on the
cases below they agree bit for bit as well.

``seeds_and_derivatives`` and ``whole_grid_zero_set`` evaluate the whole
grid at once, as both routines did before they scanned it in slabs; the
slab scans must give the same seeds, points and segments, bit for bit.
"""

from fractions import Fraction

import numpy as np
import pytest

from harmonic_ratios import Polynomial, Region, catalog_get, critical_set_sample
from harmonic_ratios import nodal, zero_set_sample
from harmonic_ratios.nodal import BisectionError, _bisect_edges, _gauss_newton_critical
from harmonic_ratios.nodal import _lstsq_stack

X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)
X3, Y3, Z3 = (Polynomial.variable(3, i) for i in range(3))
PAPER_H = catalog_get("paperH").polynomial


def reference_gauss_newton(w, grads, hess, x0, iterations=50):
    """One seed's refinement, evaluating on one-element arrays; None if
    the iteration leaves a sane range."""
    x = x0.astype(float).copy()
    for _ in range(iterations):
        coords = [np.array([xi]) for xi in x]
        f = np.array(
            [w.evaluate_array(coords)[0]]
            + [g.evaluate_array(coords)[0] for g in grads]
        )
        jac = np.zeros((w.dim + 1, w.dim))
        for j in range(w.dim):
            jac[0, j] = grads[j].evaluate_array(coords)[0]
        for i in range(w.dim):
            for j in range(w.dim):
                jac[i + 1, j] = hess[i][j].evaluate_array(coords)[0]
        step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        if not np.all(np.isfinite(step)):
            return None
        x = x + step
        if np.linalg.norm(step) < 1e-15:
            break
        if np.linalg.norm(x) > 1e6:
            return None
    return x


def seeds_and_derivatives(w, region, grid):
    """The seed scan of ``critical_set_sample``."""
    axes, h = region.grid_axes(grid)
    coords = np.ix_(*axes)
    mask = region.mask(coords)
    grads = w.gradient()
    hess = [[g.partial(j) for j in range(w.dim)] for g in grads]
    wv = w.evaluate_array(coords)
    gnorm = np.linalg.norm(np.stack([g.evaluate_array(coords) for g in grads]), axis=0)
    w_scale = max(float(np.max(np.abs(wv))), 1e-300)
    g_scale = max(float(np.max(gnorm)), 1e-300)
    seed_mask = (
        mask & (np.abs(wv) <= 2.0 * h * w_scale) & (gnorm <= 2.0 * h * g_scale)
    )
    seeds = np.column_stack([a[i] for a, i in zip(axes, np.nonzero(seed_mask))])
    return seeds, grads, hess, h, w_scale, g_scale


def reference_critical_points(w, region, grid, tol=1e-8):
    """Critical points as found by refining and checking one seed at a time."""
    seeds, grads, hess, h, w_scale, g_scale = seeds_and_derivatives(w, region, grid)
    found = []
    for s in seeds:
        x = reference_gauss_newton(w, grads, hess, s)
        if x is None:
            continue
        pc = [np.array([xi]) for xi in x]
        val = abs(float(w.evaluate_array(pc)[0]))
        gval = float(np.linalg.norm([g.evaluate_array(pc)[0] for g in grads]))
        if val > tol * w_scale or gval > tol * g_scale:
            continue
        if not bool(region.contains(x[None, :])[0]):
            continue
        if all(np.linalg.norm(x - p) > h / 2 for p in found):
            found.append(x)
    return np.array(found), len(seeds)


def reference_bisect(w, p, q, fp):
    a, b = p.copy(), q.copy()
    fa = fp
    for _ in range(100):
        m = 0.5 * (a + b)
        fm = w.evaluate_array(list(m))
        if fm == 0.0:
            return m
        if fa * fm < 0:
            b = m
        else:
            a, fa = m, fm
        if np.linalg.norm(b - a) < 1e-300:
            break
    return 0.5 * (a + b)


def reference_zero_set(w, region, resolution):
    """The zero set by a scalar scan: cell by cell in 2D; in 3D node by node
    for the nodes where w is exactly 0, then edge by edge."""
    lo, hi = region.bounding_box()
    dim = len(lo)
    n = resolution + 1
    axes = [np.linspace(lo[i], hi[i], n) for i in range(dim)]
    vals = w.evaluate_array(np.ix_(*axes))
    if dim == 3:
        points = []
        for ijk in np.argwhere(vals == 0.0):
            p = np.array([axes[a][ijk[a]] for a in range(3)])
            if bool(region.contains(p[None, :])[0]):
                points.append([float(v) for v in p])
        for axis in range(3):
            sl0 = [slice(None)] * 3
            sl1 = [slice(None)] * 3
            sl0[axis] = slice(0, -1)
            sl1[axis] = slice(1, None)
            f0 = vals[tuple(sl0)]
            for ijk in np.argwhere(f0 * vals[tuple(sl1)] < 0):
                p = np.array([axes[a][ijk[a]] for a in range(3)])
                q = p.copy()
                q[axis] = axes[axis][ijk[axis] + 1]
                pt = reference_bisect(w, p, q, float(f0[tuple(ijk)]))
                if bool(region.contains(pt[None, :])[0]):
                    points.append([float(v) for v in pt])
        return points, []

    # a point's key is (kind, i, j): kind 0 for a node where w is 0, 1 +
    # axis for the crossing on the edge from (i, j) along axis
    found, segments = {}, []

    def crossing(i0, j0, i1, j1, axis):
        f0, f1 = vals[i0, j0], vals[i1, j1]
        if f0 == 0.0:
            key = (0, i0, j0)
        elif f0 * f1 < 0:
            key = (1 + axis, i0, j0)
        else:
            return None
        if key not in found:
            p = np.array([axes[0][i0], axes[1][j0]])
            q = np.array([axes[0][i1], axes[1][j1]])
            pt = p if f0 == 0.0 else reference_bisect(w, p, q, f0)
            found[key] = [float(pt[0]), float(pt[1])]
        return key

    for i in range(resolution):
        for j in range(resolution):
            keys = [
                k for k in (
                    crossing(i, j, i + 1, j, 0),
                    crossing(i + 1, j, i + 1, j + 1, 1),
                    crossing(i, j + 1, i + 1, j + 1, 0),
                    crossing(i, j, i, j + 1, 1),
                ) if k is not None
            ]
            keys = list(dict.fromkeys(keys))
            segments.extend(zip(keys, keys[1:]))
    if vals[-1, -1] == 0.0:  # the far corner starts no side of a cell
        found[(0, resolution, resolution)] = [float(axes[0][-1]), float(axes[1][-1])]
    # kind-major, then row-major
    order = sorted(found)
    point_id = {key: k for k, key in enumerate(order)}
    points = [found[key] for key in order]
    segments = [(point_id[a], point_id[b]) for a, b in segments]
    inside = region.contains(np.array(points).reshape(-1, 2))
    remap = {old: new for new, old in enumerate(np.flatnonzero(inside))}
    segments = [(remap[a], remap[b]) for a, b in segments if a in remap and b in remap]
    return [p for p, ok in zip(points, inside) if ok], segments


def whole_grid_zero_set(w, region, resolution, tol=1e-12):
    """``zero_set_sample`` on the grid evaluated whole: w at every node."""
    lo, hi = region.bounding_box()
    dim = len(lo)
    n = resolution + 1
    axes = [np.linspace(lo[i], hi[i], n) for i in range(dim)]
    vals = w.evaluate_array(np.ix_(*axes))
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    sign = np.sign(vals).astype(np.int8)

    if dim == 2:
        zero = vals == 0.0
        change = (sign[:-1] * sign[1:] < 0, sign[:, :-1] * sign[:, 1:] < 0)
        sides = ((0, 0, 0), (1, 0, 1), (0, 1, 0), (0, 0, 1))
        has = [
            zero[di:di + resolution, dj:dj + resolution]
            | change[axis][di:di + resolution, dj:dj + resolution]
            for di, dj, axis in sides
        ]
        has[3] &= ~zero[:-1, :-1]
        ci, cj = np.nonzero(has[0] | has[1] | has[2] | has[3])
        keys = np.full((ci.size, 4), -1)
        for col, (di, dj, axis) in enumerate(sides):
            i, j = ci + di, cj + dj
            node = i * n + j
            key = np.where(zero[i, j], node, node + (1 + axis) * n * n)
            keys[:, col] = np.where(has[col][ci, cj], key, -1)
        # the points in key order, kind-major: the zero nodes, then the
        # crossings along axis 0, then along axis 1; the far corner starts
        # no side of a cell
        uniq = np.unique(keys[keys >= 0])
        if zero[-1, -1]:
            uniq = np.union1d(uniq, [n * n - 1])
        cell, _ = np.nonzero(keys >= 0)
        ids = np.searchsorted(uniq, keys[keys >= 0])
        same = cell[1:] == cell[:-1]
        segs = np.column_stack([ids[:-1][same], ids[1:][same]])

        kind, at = np.divmod(uniq, n * n)
        i0, j0 = np.divmod(at, n)
        pts = np.stack([axes[0][i0], axes[1][j0]])
        edge = kind > 0
        i0, j0, kind = i0[edge], j0[edge], kind[edge]
        ends = np.stack([axes[0][i0 + (kind == 1)], axes[1][j0 + (kind == 2)]])
        pts[:, edge] = _bisect_edges(w, pts[:, edge], ends, vals[i0, j0])
    else:
        # the nodes where w is exactly 0, in row-major order, then the
        # crossings along each axis
        zero = np.nonzero(vals == 0.0)
        nodes = np.stack([axes[k][zero[k]] for k in range(3)])
        a_parts, b_parts, f_parts = [], [], []
        for axis in range(3):
            first = [slice(None)] * 3
            second = [slice(None)] * 3
            first[axis] = slice(0, -1)
            second[axis] = slice(1, None)
            f0 = vals[tuple(first)]
            idx = np.nonzero(sign[tuple(first)] * sign[tuple(second)] < 0)
            ends = np.stack([axes[k][idx[k]] for k in range(3)])
            a_parts.append(ends)
            ends = ends.copy()
            ends[axis] = axes[axis][idx[axis] + 1]
            b_parts.append(ends)
            f_parts.append(f0[idx])
        pts = _bisect_edges(
            w, *(np.concatenate(p, axis=-1) for p in (a_parts, b_parts, f_parts))
        )
        pts = np.concatenate([nodes, pts], axis=1)
        segs = np.empty((0, 2), dtype=int)

    miss = np.flatnonzero(np.abs(w.evaluate_array(list(pts))) > tol * scale)
    if miss.size:
        raise BisectionError(
            f"bisection stopped at |w| > {tol:g} * {scale:g} "
            f"near {pts[:, miss[0]].tolist()}"
        )
    inside = region.contains(pts.T)
    renumber = np.cumsum(inside) - 1
    segs = renumber[segs[inside[segs].all(axis=1)]]
    return pts.T[inside].tolist(), [tuple(s) for s in segs.tolist()]


# slab budgets: one cell row or node plane per slab, and slabs of several
# with a shorter last one (the default budget holds each case in one slab)
BUDGETS = [1, 700, 3000]


class TestSlabs:
    @pytest.mark.parametrize("cells", [None] + BUDGETS)
    @pytest.mark.parametrize("w, region, resolution", [
        # x^2 - y^2 is exactly 0 on the nodes of the box's diagonals
        (catalog_get("saddle2d").polynomial, Region.box((-1, -1), (1, 1)), 64),
        (catalog_get("rezk:3").polynomial, Region.ball((0, 0), 1.0), 80),
        (catalog_get("imzk:2").polynomial, Region.ball((0.1, 0.2), 0.7), 60),
        (PAPER_H, Region.ball((0, 0, 0), 1.0), 16),
        (PAPER_H, Region.box((-1, -1, -1), (1, 1, 1)), 13),
        # zero on the three coordinate planes, which cut many slabs
        (X3 * Y3 * Z3, Region.box((-1, -1, -1), (1, 1, 1)), 21),
        (X3 * Y3 * Z3, Region.box((-1, -0.8, -0.9), (1, 1.1, 0.7)), 20),
    ])
    def test_zero_set_equals_whole_grid(self, monkeypatch, cells, w, region, resolution):
        if cells is not None:
            monkeypatch.setattr(nodal, "_SLAB_CELLS", cells)
        points, segments = zero_set_sample(w, region, resolution)
        assert points
        assert (points, segments) == whole_grid_zero_set(w, region, resolution)

    def test_bisection_error_follows_the_last_slab(self, monkeypatch):
        # the check runs after the last slab, against the largest |w| of all
        # slabs, here 100.02 near x = 0, in a middle slab; a negative
        # tolerance fails every point, and the message names the scale
        w = catalog_get("rezk:3").polynomial + Polynomial.constant(2, 100) - X * X * 100
        region = Region.box((-1, -1), (1.2, 1))
        monkeypatch.setattr(nodal, "_SLAB_CELLS", 100)
        with pytest.raises(BisectionError) as got:
            zero_set_sample(w, region, 40, tol=-1.0)
        with pytest.raises(BisectionError) as expected:
            whole_grid_zero_set(w, region, 40, tol=-1.0)
        assert str(got.value) == str(expected.value)
        assert "* 100.02 near" in str(got.value)

    @pytest.mark.parametrize("cells", BUDGETS)
    @pytest.mark.parametrize("w, region, grid", [
        (PAPER_H, Region.ball((0, 0, 0), 1.0), 20),
        (PAPER_H, Region.box((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5)), 16),
        (catalog_get("imzk:2").polynomial, Region.ball((0.1, 0.2), 0.7), 100),
        (catalog_get("rezk:5").polynomial, Region.ball((0, 0), 1.0), 60),
        (X3 * Y3 * Z3, Region.ball((0, 0, 0), 1.0), 8),
    ])
    def test_critical_seeds_equal_whole_grid(self, monkeypatch, cells, w, region, grid):
        monkeypatch.setattr(nodal, "_SLAB_CELLS", cells)
        refined = []

        def recording(w, grads, hess, seeds):
            refined.append(seeds)
            return _gauss_newton_critical(w, grads, hess, seeds)

        monkeypatch.setattr(nodal, "_gauss_newton_critical", recording)
        report = critical_set_sample(w, region, grid=grid)
        expected = seeds_and_derivatives(w, region, grid)[0]
        assert len(refined) == 1 and len(expected)
        assert refined[0].shape == expected.shape
        assert refined[0].tobytes() == expected.tobytes()
        monkeypatch.undo()
        assert report.to_dict() == critical_set_sample(w, region, grid=grid).to_dict()


class TestBatchedGaussNewton:
    @pytest.mark.parametrize("w, region, grid", [
        (PAPER_H, Region.ball((0, 0, 0), 1.0), 12),
        (PAPER_H, Region.ball((0, 0, 0), 1.0), 16),
        (PAPER_H, Region.ball((0, 0, 0), 1.0), 20),
        (X * X - Y * Y, Region.ball((0, 0), 1.0), 16),
        # 224 of the 280 seeds are still moving after 50 iterations
        (X3 * Y3 * Z3, Region.ball((0, 0, 0), 1.0), 8),
    ])
    def test_report_matches_per_seed_refinement(self, w, region, grid):
        report = critical_set_sample(w, region, grid=grid)
        expected, n_seeds = reference_critical_points(w, region, grid)
        got = np.array(report.critical_points)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert f" {n_seeds} seeds," in report.notes

    def test_seed_alone_equals_seed_in_batch(self):
        seeds, grads, hess, *_ = seeds_and_derivatives(
            PAPER_H, Region.ball((0, 0, 0), 1.0), 12
        )
        batch = _gauss_newton_critical(PAPER_H, grads, hess, seeds)
        assert batch.shape == seeds.shape
        for k in range(0, len(seeds), 23):
            alone = _gauss_newton_critical(PAPER_H, grads, hess, seeds[k:k + 1])
            assert alone[0].tobytes() == batch[k].tobytes()

    def test_rejected_seeds_are_nan_rows(self):
        # x^6 + 1 has no critical zero: from some seeds the iteration runs
        # past norm 1e6, and at x = 1e52 w overflows, so the first step is
        # not finite
        w = X**6 + Polynomial.constant(2, 1)
        grads = w.gradient()
        hess = [[g.partial(j) for j in range(2)] for g in grads]
        rng = np.random.default_rng(0)
        seeds = np.vstack([rng.uniform(-3, 3, (200, 2)), [[1e52, 0.5]]])
        with np.errstate(over="ignore", invalid="ignore"):
            batch = _gauss_newton_critical(w, grads, hess, seeds)
            refs = [reference_gauss_newton(w, grads, hess, s) for s in seeds]
        rejected = [k for k, ref in enumerate(refs) if ref is None]
        assert len(rejected) > 2 and rejected[-1] == len(seeds) - 1
        for row, ref in zip(batch, refs):
            if ref is None:
                assert np.all(np.isnan(row))
            else:
                assert row.tobytes() == ref.tobytes()

    def test_four_dimensional_seeds(self):
        x = [Polynomial.variable(4, i) for i in range(4)]
        w = x[0] * x[1] + x[2] * x[3]
        grads = w.gradient()
        hess = [[g.partial(j) for j in range(4)] for g in grads]
        seeds = np.random.default_rng(4).uniform(-1, 1, (60, 4))
        batch = _gauss_newton_critical(w, grads, hess, seeds)
        for row, s in zip(batch, seeds):
            assert row.tobytes() == reference_gauss_newton(w, grads, hess, s).tobytes()


class TestStackedLstsq:
    """``_lstsq_stack`` calls the gufunc behind ``np.linalg.lstsq``, which
    numpy keeps private; a numpy that changes it must fail here."""

    @staticmethod
    def jacobian_like(a):
        """The same matrices laid out as the Gauss-Newton Jacobian stack, a
        view with the seed axis moved to the front."""
        return np.moveaxis(np.moveaxis(a, 0, 2).copy(), 2, 0)

    @pytest.mark.parametrize("m, k", [(4, 3), (3, 2)])
    def test_equals_lstsq_matrix_by_matrix(self, m, k):
        rng = np.random.default_rng(m)
        n = 300
        a = rng.standard_normal((n, m, k)) * 10.0 ** rng.uniform(-8, 8, (n, 1, 1))
        r = rng.standard_normal((n, m))
        a[0] = 0.0
        # paperH's Jacobian at the origin: zero gradient over diag(2, -2, 0)
        a[1] = np.vstack([np.zeros(k), np.diag([2.0, -2.0, 0.0])[:k, :k]])
        a[2] = np.outer(rng.standard_normal(m), rng.standard_normal(k))  # rank 1
        a[3] *= 1e-300
        r[3] *= 1e-300
        a[4] = 1e-300
        r[5, 0] = np.inf
        r[6] = 0.0
        # a singular value that lstsq's default rcond, eps * max(m, k), and
        # no smaller cut-off, drops
        a[7] = 0.0
        a[7, :k] = np.diag([1.0] * (k - 1) + [np.finfo(float).eps * (m + k) / 2])
        steps = _lstsq_stack(self.jacobian_like(a), -r)
        assert steps.shape == (n, k)
        for j, res, step in zip(a, r, steps):
            want = np.linalg.lstsq(j, -res, rcond=None)[0]
            assert step.tobytes() == want.tobytes()

    def test_no_convergence_is_a_linalg_error(self):
        a = np.random.default_rng(0).standard_normal((5, 4, 3))
        a[2, 1, 1] = np.inf
        r = np.ones((5, 4))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.lstsq(a[2], r[2], rcond=None)
        # not a FloatingPointError, whatever the caller's error state
        with np.errstate(all="raise"), pytest.raises(np.linalg.LinAlgError):
            _lstsq_stack(self.jacobian_like(a), r)


def assert_within_two_ulp(got, expected):
    got, expected = np.array(got), np.array(expected)
    assert got.shape == expected.shape
    ulp = np.spacing(np.maximum(np.abs(got), np.abs(expected)))
    assert np.all(np.abs(got - expected) <= 2 * ulp)


class TestBatchedBisection:
    @pytest.mark.parametrize("w, region, resolution", [
        (catalog_get("rezk:5").polynomial, Region.ball((0.07, -0.03), 1.0), 256),
        (catalog_get("imzk:5").polynomial, Region.ball((0.07, -0.03), 1.0), 256),
        # zero along whole grid lines: crossings on grid nodes
        (X * Y, Region.box((-1, -1), (1, 1)), 32),
        (X * X - Y * Y, Region.annulus((0.1, 0.0), 0.2, 0.9), 64),
        (PAPER_H, Region.ball((0, 0, 0), 0.5), 12),
        (PAPER_H, Region.ball((0, 0, 0), 0.5), 24),
    ])
    def test_matches_scalar_bisection(self, w, region, resolution):
        points, segments = zero_set_sample(w, region, resolution)
        ref_points, ref_segments = reference_zero_set(w, region, resolution)
        assert points
        assert_within_two_ulp(points, ref_points)
        assert segments == ref_segments
        assert all(type(i) is int for s in segments for i in s)

    def test_edge_alone_equals_edge_in_batch(self):
        w = catalog_get("rezk:5").polynomial
        t = np.linspace(0.05, 0.95, 40)
        a = np.stack([np.cos(t), np.full(t.size, -0.3)])
        b = np.stack([np.cos(t), np.full(t.size, 0.8)])
        fa = w.evaluate_array(list(a))
        changes = fa * w.evaluate_array(list(b)) < 0
        assert changes.any()
        a, b, fa = a[:, changes], b[:, changes], fa[changes]
        batch = _bisect_edges(w, a, b, fa)
        for k in range(a.shape[1]):
            alone = _bisect_edges(w, a[:, k:k + 1], b[:, k:k + 1], fa[k:k + 1])
            assert alone[:, 0].tobytes() == batch[:, k].tobytes()

    def test_values_whose_products_underflow_keep_their_bracket(self):
        # w(-1) * w(m) underflows to -0 for every midpoint m past 0, which
        # a test by the product's sign reads as no sign change
        w = Polynomial(1, {(1,): Fraction(1, 10**300)})
        a, b = np.array([[-1.0]]), np.array([[0.5]])
        fa = w.evaluate_array(list(a))
        assert fa[0] * w.evaluate_array([np.array([0.125])])[0] == 0.0
        root = _bisect_edges(w, a, b, fa)
        assert abs(root[0, 0]) < 1e-20


def bisect_edges_to_the_cap(w, a, b, fa):
    """``_bisect_edges`` before it closed stalled edges: an edge whose
    midpoint rounds onto one of its ends keeps being evaluated until the
    100th halving."""
    a, b, fa = a.copy(), b.copy(), fa.copy()
    live = np.arange(a.shape[1])
    for _ in range(100):
        if not live.size:
            break
        m = 0.5 * (a[:, live] + b[:, live])
        fm = w.evaluate_array(list(m))
        left = fa[live] * fm < 0
        b[:, live[left]] = m[:, left]
        a[:, live[~left]] = m[:, ~left]
        fa[live[~left]] = fm[~left]
        hit = fm == 0.0
        b[:, live[hit]] = m[:, hit]
        width = np.linalg.norm(b[:, live] - a[:, live], axis=0)
        live = live[~(width < 1e-300)]
    return 0.5 * (a + b)


class TestStalledEdges:
    @pytest.mark.parametrize("w, region, resolution, stalls", [
        (catalog_get("rezk:5").polynomial, Region.ball((0, 0), 1.0), 64, True),
        (catalog_get("imzk:5").polynomial, Region.ball((0.07, -0.03), 1.0), 128, True),
        # bisection ends on y = +-x exactly, where x^2 - y^2 is exactly 0
        (catalog_get("saddle2d").polynomial, Region.ball((0.07, -0.03), 1.0), 100,
         False),
        (PAPER_H, Region.ball((0, 0, 0), 0.5), 24, True),
    ])
    def test_same_points_from_fewer_evaluations(
        self, monkeypatch, w, region, resolution, stalls
    ):
        import harmonic_ratios.nodal as nodal

        evaluated = []
        real = Polynomial.evaluate_array

        def counting(self, coords):
            out = real(self, coords)
            evaluated.append(np.size(out))
            return out

        monkeypatch.setattr(Polynomial, "evaluate_array", counting)
        points, segments = zero_set_sample(w, region, resolution)
        fewer = sum(evaluated)
        evaluated.clear()
        monkeypatch.setattr(nodal, "_bisect_edges", bisect_edges_to_the_cap)
        ref_points, ref_segments = zero_set_sample(w, region, resolution)
        assert np.array(points).tobytes() == np.array(ref_points).tobytes()
        assert segments == ref_segments
        assert fewer <= sum(evaluated) and (fewer < sum(evaluated)) == stalls
