"""Nodal-set analysis: zero depth, critical points, domains, level sets.

The exact piece is ``depth_of_zero`` (rational Taylor shift).  Everything
else is numeric: grid scans with sign bookkeeping, Gauss-Newton refinement
of critical points, and bisection-refined level-set extraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import ndimage

from .polynomial import Polynomial
from .regions import Region
from .reports import NodalAnalysisReport
from .series import TruncatedSeries


class NotAZero(ValueError):
    pass


class BisectionError(ArithmeticError):
    """A refined zero-crossing point misses the requested accuracy."""


def depth_of_zero(w: Union[Polynomial, TruncatedSeries], x: Sequence) -> int:
    """Degree of the first nonzero homogeneous term of w expanded at x.

    Exact: the point must be an exact rational zero of w.  A truncated
    series is analyzed through its truncation polynomial, so the answer is
    reliable whenever the depth does not exceed the truncation degree.
    """
    if isinstance(w, TruncatedSeries):
        point = tuple(Fraction(c) - a for c, a in zip(x, w.center))
        poly = w.as_polynomial()
    else:
        point = tuple(Fraction(c) for c in x)
        poly = w
    if poly.evaluate(point) != 0:
        raise NotAZero(f"w({tuple(map(str, point))}) != 0")
    shifted = poly.shift(point)
    return shifted.leading_degree()


def _gauss_newton_critical(
    w: Polynomial,
    grads: Sequence[Polynomial],
    hess: Sequence[Sequence[Polynomial]],
    x0: np.ndarray,
    iterations: int = 50,
) -> Optional[np.ndarray]:
    """Refine a solution of {w = 0, grad w = 0} by least squares.

    The system stacks w and its gradient ``grads``; the Jacobian rows are
    the gradient and the Hessian ``hess``.  Returns None if the iteration
    leaves a sane range.
    """
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


def critical_set_sample(
    w: Polynomial,
    region: Region,
    grid: int = 24,
    tol_value: float = 1e-8,
    tol_gradient: float = 1e-8,
) -> NodalAnalysisReport:
    """Sample the critical set {w = 0, grad w = 0} inside a region.

    Grid cells where both |w| and |grad w| are small (relative to the grid's
    scale and spacing) seed a Gauss-Newton refinement; refined points are kept
    only if they meet the stated tolerances, then deduplicated.  Depths are
    attached where the refined point rounds to an exact rational zero.

    Classification follows the sufficient criterion only: critical points
    that chain into a sampled curve with one common depth are marked good;
    everything else is left unclassified (never "bad").
    """
    axes, mask, h = region.grid(grid)
    coords = np.ix_(*axes)
    grads = w.gradient()
    hess = [[g.partial(j) for j in range(w.dim)] for g in grads]
    wv = w.evaluate_array(coords)
    gv = np.stack([g.evaluate_array(coords) for g in grads])
    gnorm = np.linalg.norm(gv, axis=0)
    w_scale = max(float(np.max(np.abs(wv))), 1e-300)
    g_scale = max(float(np.max(gnorm)), 1e-300)
    seed_mask = (
        mask
        & (np.abs(wv) <= 2.0 * h * w_scale)
        & (gnorm <= 2.0 * h * g_scale)
    )
    seeds = np.column_stack([a[i] for a, i in zip(axes, np.nonzero(seed_mask))])

    found: List[np.ndarray] = []
    for s in seeds:
        x = _gauss_newton_critical(w, grads, hess, s)
        if x is None:
            continue
        pc = [np.array([xi]) for xi in x]
        val = abs(float(w.evaluate_array(pc)[0]))
        gval = float(np.linalg.norm([g.evaluate_array(pc)[0] for g in grads]))
        if val > tol_value * w_scale or gval > tol_gradient * g_scale:
            continue
        if not bool(region.contains(x[None, :])[0]):
            continue
        if all(np.linalg.norm(x - p) > h / 2 for p in found):
            found.append(x)

    depths: List[Dict[str, object]] = []
    for p in found:
        rat = tuple(Fraction(float(v)).limit_denominator(10**6) for v in p)
        snapped = tuple(
            q if abs(float(q) - float(v)) < tol_value else Fraction(float(v))
            for q, v in zip(rat, p)
        )
        try:
            d = depth_of_zero(w, snapped)
            depths.append({"point": [float(v) for v in p], "depth": d})
        except NotAZero:
            depths.append({"point": [float(v) for v in p], "depth": None})

    classifications = _classify_curve_points(found, depths, h)
    return NodalAnalysisReport(
        name="critical_set_sample",
        critical_points=[[float(v) for v in p] for p in found],
        depths=depths,
        classifications=classifications,
        tolerance_value=tol_value,
        tolerance_gradient=tol_gradient,
        notes=f"grid {grid} per axis, {len(seeds)} seeds, spacing {h:.4g}",
    )


def _classify_curve_points(
    points: List[np.ndarray], depths: List[Dict[str, object]], h: float
) -> List[Dict[str, object]]:
    """Chain nearby critical points; constant depth along a chain of at
    least 3 points marks them good (sufficient condition only)."""
    n = len(points)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(points[i] - points[j]) <= 2.5 * h:
                parent[find(i)] = find(j)
    clusters: Dict[int, List[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    out = []
    for members in clusters.values():
        ds = {depths[i]["depth"] for i in members}
        if len(members) >= 3 and len(ds) == 1 and None not in ds:
            label, reason = "good", "constant depth along a sampled curve"
        else:
            label, reason = "unclassified", "sufficient condition not established"
        for i in members:
            out.append(
                {
                    "point": [float(v) for v in points[i]],
                    "label": label,
                    "reason": reason,
                }
            )
    return out


def _sign_grid(
    w: Polynomial, region: Region, resolution: int, band_rel: float
) -> Tuple[np.ndarray, np.ndarray]:
    """int8 sign grid over the region's bounding box, 0 outside the region
    or inside the zero-detection band, and the flat indices of the region's
    boundary shell: its cells whose 3^dim neighbourhood leaves the region or
    the grid.

    A cell is inside the band when |w| falls below the absolute detection
    threshold ``band_rel * max |w|`` or below sqrt(dim) * h * |grad w| at its
    center.  The gradient term marks cells the zero set may cross, which is
    what prevents same-sign bridges where many nodal sectors meet at a deep
    zero.

    w, its gradient and the region mask are evaluated on the open mesh of
    the cell-center axes, one x-slab at a time in 3D so that float memory
    stays O(resolution^2), and each point once.  A slab signed before the
    largest |w| was seen is evaluated again only if one of its signed cells
    may lie inside the final absolute threshold.
    """
    axes, h = region.grid_axes(resolution)
    dim = len(axes)
    grads = w.gradient()
    safety = float(np.sqrt(dim))
    signs = np.zeros((resolution,) * dim, dtype=np.int8)
    slabs = [slice(k, k + 1) for k in range(resolution)] if dim == 3 else [slice(None)]
    beyond = np.zeros((1,) + signs.shape[1:], dtype=bool)  # a row past the grid

    def inside(i: int) -> np.ndarray:
        if i == len(slabs):
            return beyond
        return region.mask(np.ix_(axes[0][slabs[i]], *axes[1:]))

    scale = 1e-300
    least = []  # per slab, the smallest |w| of a cell left signed
    shell = []
    before, mask = beyond, inside(0)
    for i, sl in enumerate(slabs):
        after = inside(i + 1)
        coords = np.ix_(axes[0][sl], *axes[1:])
        vals = w.evaluate_array(coords)
        gnorm = np.sqrt(sum(g.evaluate_array(coords) ** 2 for g in grads))
        absv = np.abs(vals)
        scale = max(scale, float(np.max(absv)))
        band = np.maximum(band_rel * scale, safety * h * gnorm)
        neg = (vals < -band) & mask
        pos = (vals > band) & mask & ~neg  # both hold only if band_rel < 0
        signs[sl] = pos
        signs[sl] -= neg
        least.append(float(np.min(absv, where=pos | neg, initial=np.inf)))
        window = np.concatenate([before[-1:], mask, after[:1]])
        shell.append(_shell_indices(window) + i * mask.size)
        before, mask = mask, after
    band_abs = band_rel * scale
    for sl, low in zip(slabs, least):
        if low <= band_abs:
            vals = w.evaluate_array(np.ix_(axes[0][sl], *axes[1:]))
            signs[sl][np.abs(vals) <= band_abs] = 0
    return signs, np.concatenate(shell)


def _shell_indices(window: np.ndarray) -> np.ndarray:
    """Flat indices, within the inner rows of ``window``, of the cells whose
    3^dim neighbourhood leaves the mask; ``window`` is a region mask with
    one extra row before and after (all False past the grid), and cells
    past the other edges count as outside."""
    core = window[:-2] & window[1:-1] & window[2:]
    for axis in range(1, core.ndim):
        a = np.moveaxis(core, axis, 0)
        eroded = np.zeros_like(a)
        eroded[1:-1] = a[:-2] & a[1:-1] & a[2:]
        core = np.moveaxis(eroded, 0, axis)
    return np.flatnonzero(window[1:-1] & ~core)


def nodal_domain_count(
    w: Polynomial, region: Region, resolution: int, band_rel: float = 1e-10
) -> int:
    """Count sign-constant connected components of w on the region.

    Components are runs of same-sign cells that touch at a face, an edge or
    a corner (8-neighbourhood in 2D, 26 in 3D).  Cells whose center value
    falls inside the zero-detection band are excluded so that tangential
    near-zeros cannot bridge domains; the band spans a full cell diagonal,
    so no zero crossing fits between two signed cells that touch at a
    corner.

    For harmonic w a component counts only if it reaches the boundary
    shell of the region (a cell whose neighbourhood leaves the region or
    the grid): by the maximum principle no nodal domain lies compactly
    inside the region, so an enclosed component is a fragment the band
    cut off.  Every component counts for other w.
    """
    signs, shell = _sign_grid(w, region, resolution, band_rel)
    structure = ndimage.generate_binary_structure(signs.ndim, signs.ndim)
    harmonic = w.is_harmonic()
    total = 0
    for s in (1, -1):
        labels, count = ndimage.label(signs == s, structure=structure)
        if harmonic:
            count = int(np.count_nonzero(np.unique(labels.ravel()[shell])))
        total += count
        del labels  # two live label grids would double the peak memory
    return total


def zero_set_sample(
    w: Polynomial,
    region: Region,
    resolution: int,
    tol: float = 1e-12,
) -> Tuple[List[List[float]], List[Tuple[int, int]]]:
    """Extract the zero level set on a grid.

    2D: marching-squares edges with every crossing refined by bisection to
    |w| < tol relative to the grid scale; returns (points, segments) where
    segments index into the point list.  3D: bisection-refined points on
    sign-changing grid edges with no connectivity (a point cloud for dumps).
    """
    lo, hi = region.bounding_box()
    dim = len(lo)
    n = resolution + 1
    axes = [np.linspace(lo[i], hi[i], n) for i in range(dim)]

    def bisect(p: np.ndarray, q: np.ndarray, fp: float) -> np.ndarray:
        a, b = p.copy(), q.copy()
        fa = fp
        for _ in range(100):
            m = 0.5 * (a + b)
            fm = w.evaluate_float(list(m))
            if fm == 0.0:
                return m
            if fa * fm < 0:
                b = m
            else:
                a, fa = m, fm
            if np.linalg.norm(b - a) < 1e-300:
                break
        return 0.5 * (a + b)

    if dim == 2:
        vals = w.evaluate_array(np.ix_(*axes))
        scale = max(float(np.max(np.abs(vals))), 1e-300)
        points: List[List[float]] = []
        segments: List[Tuple[int, int]] = []
        edge_point: Dict[Tuple[int, int, int], int] = {}

        def crossing(i0, j0, i1, j1, axis) -> Optional[int]:
            f0, f1 = vals[i0, j0], vals[i1, j1]
            if f0 == 0.0:
                key = (i0, j0, -1)
            elif f0 * f1 < 0:
                key = (i0, j0, axis)
            else:
                return None
            if key not in edge_point:
                p = np.array([axes[0][i0], axes[1][j0]])
                q = np.array([axes[0][i1], axes[1][j1]])
                pt = p if f0 == 0.0 else bisect(p, q, f0)
                if abs(w.evaluate_float(list(pt))) > tol * scale:
                    raise BisectionError(
                        f"bisection stopped at |w| > {tol:g} * {scale:g} "
                        f"near {[float(v) for v in pt]}"
                    )
                edge_point[key] = len(points)
                points.append([float(pt[0]), float(pt[1])])
            return edge_point[key]

        for i in range(resolution):
            for j in range(resolution):
                ids = []
                for pt_id in (
                    crossing(i, j, i + 1, j, 0),
                    crossing(i + 1, j, i + 1, j + 1, 1),
                    crossing(i, j + 1, i + 1, j + 1, 0),
                    crossing(i, j, i, j + 1, 1),
                ):
                    if pt_id is not None:
                        ids.append(pt_id)
                ids = list(dict.fromkeys(ids))
                if len(ids) == 2:
                    segments.append((ids[0], ids[1]))
                elif len(ids) > 2:
                    # ambiguous cell: connect consecutive crossings
                    for a, b in zip(ids, ids[1:]):
                        segments.append((a, b))
        # keep only geometry inside the region
        if region.kind != "box":
            inside = region.contains(np.array(points)) if points else np.array([], bool)
            remap = {}
            kept: List[List[float]] = []
            for idx, ok in enumerate(inside):
                if ok:
                    remap[idx] = len(kept)
                    kept.append(points[idx])
            segments = [
                (remap[a], remap[b]) for a, b in segments if a in remap and b in remap
            ]
            points = kept
        return points, segments

    if dim == 3:
        vals = w.evaluate_array(np.ix_(*axes))
        points = []
        for axis in range(3):
            sl0 = [slice(None)] * 3
            sl1 = [slice(None)] * 3
            sl0[axis] = slice(0, -1)
            sl1[axis] = slice(1, None)
            f0, f1 = vals[tuple(sl0)], vals[tuple(sl1)]
            change = f0 * f1 < 0
            idx = np.argwhere(change)
            for ijk in idx:
                p = np.array([axes[a][ijk[a]] for a in range(3)])
                q = p.copy()
                q[axis] = axes[axis][ijk[axis] + 1]
                pt = bisect(p, q, float(f0[tuple(ijk)]))
                if bool(region.contains(pt[None, :])[0]):
                    points.append([float(v) for v in pt])
        return points, []

    raise ValueError("zero_set_sample implemented for dim 2 and 3")


def write_svg(
    points: List[List[float]],
    segments: List[Tuple[int, int]],
    path: str,
    size: int = 640,
) -> None:
    """Dump 2D level-set segments as a standalone SVG file."""
    if points:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
    else:
        x0 = y0 = -1.0
        x1 = y1 = 1.0
    span = max(x1 - x0, y1 - y0, 1e-12)
    pad = 0.05 * span

    def sx(x: float) -> float:
        return (x - x0 + pad) / (span + 2 * pad) * size

    def sy(y: float) -> float:
        return size - (y - y0 + pad) / (span + 2 * pad) * size

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for a, b in segments:
        pa, pb = points[a], points[b]
        lines.append(
            f'<line x1="{sx(pa[0]):.2f}" y1="{sy(pa[1]):.2f}" '
            f'x2="{sx(pb[0]):.2f}" y2="{sy(pb[1]):.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_points_csv(points: List[List[float]], path: str) -> None:
    with open(path, "w") as fh:
        if points:
            dim = len(points[0])
            fh.write(",".join(f"x{i+1}" for i in range(dim)) + "\n")
            for p in points:
                fh.write(",".join(f"{v:.17g}" for v in p) + "\n")
