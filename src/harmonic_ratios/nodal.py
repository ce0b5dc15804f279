"""Nodal-set analysis: zero depth, critical points, domains, level sets.

The exact piece is ``depth_of_zero`` (rational Taylor shift).  Everything
else is numeric: grid scans with sign bookkeeping, Gauss-Newton refinement
of critical points, and bisection-refined level-set extraction.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .polynomial import Polynomial
from .regions import Region
from .reports import NodalAnalysisReport
from .series import TruncatedSeries


class NotAZero(ValueError):
    pass


class BisectionError(ArithmeticError):
    """A refined zero-crossing point misses the requested accuracy."""


class BeyondMemory(MemoryError):
    """A call refused before it allocates: its peak passes physical memory.
    ``name`` = ``value`` is the argument that sized it, ``need`` the bytes."""

    def __init__(self, name: str, value: int, need: str):
        super().__init__(f"{name} {value} {need}")
        self.name, self.value, self.need = name, value, need


class ZeroFunction(ValueError):
    """w is the zero polynomial: its zero set is the whole region, not the
    zero set of a nonzero function that the nodal routines describe."""


class NonFiniteValues(ArithmeticError):
    """w or its gradient is not finite somewhere on a scanned grid: the
    region or the coefficients are beyond the float range."""

    def __init__(self, what: str):
        super().__init__(
            f"{what} is not finite on the grid: the region or the polynomial's "
            "coefficients are beyond the float range"
        )


@contextlib.contextmanager
def _finite_floats():
    """Raise ``NonFiniteValues`` where a float operation inside the block
    overflows or is invalid, in place of numpy's warning: the check costs
    no pass over the arrays."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise NonFiniteValues("w or its gradient") from None


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot tell."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return None
    return pages * size if pages > 0 and size > 0 else None


def _refuse_beyond_memory(name: str, value: int, units: int, size: int, fixed: int = 0,
                          what: str = "asks for {} points of {} byte(s) each") -> None:
    """Raise ``BeyondMemory`` for ``name`` = ``value`` when ``units`` of
    ``size`` bytes and ``fixed`` more exceed physical memory, if known."""
    memory = _physical_memory()
    if memory is not None and units * size + fixed > memory:
        besides = f", and {fixed} bytes besides" if fixed else ""
        raise BeyondMemory(name, value, f"{what.format(units, size)}, {units * size} bytes"
                           f"{besides}, more than the {memory} bytes of physical memory")


def _refuse_zero(w: Polynomial) -> None:
    if w.is_zero():
        raise ZeroFunction("w is the zero polynomial: its zero set is the whole region")


# points of one slab of a grid scan, one 256^2 plane: the float arrays of
# w and its gradient are this large; 2^18 was slower at paperH 256^3
_SLAB_CELLS = 2**16


def _slabs(count: int, plane: int) -> List[slice]:
    """The slabs of ``count`` axis-0 planes of ``plane`` points each, in order:
    runs of whole planes, as many as fit in ``_SLAB_CELLS`` points, at least one."""
    rows = max(_SLAB_CELLS // plane, 1)
    return [slice(k, min(k + rows, count)) for k in range(0, count, rows)]


def depth_of_zero(w: Polynomial, x: Sequence) -> int:
    """Degree of the first nonzero homogeneous term of w expanded at x.

    Exact: the point must be an exact rational zero of w.  A truncated
    series is analyzed through its truncation polynomial, so the answer is
    reliable whenever the depth does not exceed the truncation degree.
    """
    point = tuple(Fraction(c) for c in x)
    if isinstance(w, TruncatedSeries):
        point = tuple(c - a for c, a in zip(point, w.center))
    if w.evaluate(point) != 0:
        raise NotAZero(f"w({tuple(map(str, point))}) != 0")
    return w.shift(point).leading_degree()


def _raise_svd_error(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solutions of a stack of systems, one LAPACK call.

    For ``a`` of shape ``(n, m, k)`` and ``b`` of shape ``(n, m)``, row i
    is ``np.linalg.lstsq(a[i], b[i], rcond=None)[0]`` bit for bit: this is
    the gufunc that ``np.linalg.lstsq`` calls, with its signature, its
    default rcond and its error state.  The gufunc hands each matrix of
    the stack to LAPACK's ``dgelsd`` on its own, so every matrix gets the
    call it would get alone.  An SVD that does not converge raises
    ``LinAlgError``.
    """
    rcond = np.finfo(float).eps * max(a.shape[-2:])
    with np.errstate(call=_raise_svd_error, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        x = _umath_linalg.lstsq(a, b[..., None], rcond, signature="ddd->ddid")[0]
    return x[..., 0]


# Gauss-Newton iterations per critical-point seed
_GN_ITERATIONS = 50


def _gauss_newton_critical(
    w: Polynomial,
    grads: Sequence[Polynomial],
    hess: Sequence[Sequence[Polynomial]],
    seeds: np.ndarray,
) -> np.ndarray:
    """Refine solutions of {w = 0, grad w = 0} by least squares, one per
    row of the ``(n_seeds, dim)`` array ``seeds``.

    The system stacks w and its gradient ``grads``; the Jacobian rows are
    the gradient and the Hessian ``hess``.  Each of the ``_GN_ITERATIONS``
    iterations evaluates them once and solves the stack of all seeds still
    iterating in one ``_lstsq_stack`` call, which gives each seed the step
    that ``np.linalg.lstsq`` gives it alone.  Each seed stops on its own: a
    non-finite step or a point beyond norm 1e6 rejects it, a step below
    norm 1e-15 ends it.  Returns the refined points, with a NaN row for
    every rejected seed.
    """
    x = np.array(seeds, dtype=float).T.copy()  # one contiguous row per axis
    out = np.full(x.shape, np.nan)
    active = np.arange(x.shape[1])
    for _ in range(_GN_ITERATIONS):
        if not active.size:
            break
        coords = list(x[:, active])
        f = np.stack([p.evaluate_array(coords) for p in [w, *grads]])
        hvals = [np.stack([h.evaluate_array(coords) for h in row]) for row in hess]
        jac = np.moveaxis(np.stack([f[1:]] + hvals), 2, 0)  # (seeds, dim + 1, dim)
        steps = _lstsq_stack(jac, -f.T)
        finite = np.isfinite(steps).all(axis=1)
        active, steps = active[finite], steps[finite]
        x[:, active] += steps.T
        points = x[:, active].T.copy()
        # the 1-D np.linalg.norm of a row is sqrt(dot(row, row)), and vecdot
        # runs that dot on each contiguous row; norm(axis=1) squares and
        # sums, and a strided row may sum in another order
        ended = np.sqrt(np.vecdot(steps, steps)) < 1e-15
        far = np.sqrt(np.vecdot(points, points)) > 1e6
        out[:, active[ended]] = points[ended].T
        active = active[~ended & ~far]
    out[:, active] = x[:, active]
    return out.T


# the peak of ``critical_set_sample`` (tracemalloc) is that of its scan or
# that of its Gauss-Newton stage.  The scan holds |w|, |grad w|, the squared
# gradient components and masks on one slab of ``_slabs``, and the seeds: 1.7
# MB for imzk:2 in a disk at grid 1000 (1.7 bytes per cell), 1.6 MB for
# paperH in a cube at grid 48.  The Gauss-Newton stage holds the lstsq
# stack of every seed still iterating and the arrays of its step: 285 bytes
# per seed in 2D (rezk:5, grid 100), 454 to 456 in 3D (paperH in a ball,
# grids 32 and 48).  CRITICAL_CELL_BYTES is the 34.0 to 34.7 bytes per cell
# that the scan of the whole grid held, kept as an upper bound: a tighter
# one would start the scan of paperH at grid 1000 that CI expects refused
CRITICAL_CELL_BYTES = 36
CRITICAL_SEED_BYTES = 120  # per seed and equation, of which there are dim + 1


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
    only if they meet the stated tolerances, then deduplicated in seed order.
    Depths are attached where the refined point rounds to an exact rational
    zero.

    Classification follows the sufficient criterion only: critical points
    that chain into a sampled curve with one common depth are marked good;
    everything else is left unclassified (never "bad").

    One pass over the slabs of ``_slabs`` takes the grid's max |w| and max
    |grad w|, a second the seeds.  Raises ``NonFiniteValues`` when w or
    |grad w| is not finite on the grid, and ``BeyondMemory`` before the
    scan or the refinement of the seeds (at a deep zero most cells near it)
    would pass physical memory, and ``ZeroFunction`` for w = 0.
    """
    _refuse_zero(w)
    _refuse_beyond_memory("grid", grid, grid**w.dim, CRITICAL_CELL_BYTES)
    axes, h = region.grid_axes(grid)
    slabs = [[axes[0][sl], *axes[1:]] for sl in _slabs(grid, grid ** (w.dim - 1))]
    grads = w.gradient()
    hess = [[g.partial(j) for j in range(w.dim)] for g in grads]

    # a slab's arrays live in these two calls only, so none is held while
    # the seeds are refined
    def scan(slab):
        coords = np.ix_(*slab)
        with _finite_floats():
            absw = np.abs(w.evaluate_array(coords))
            gnorm = np.sqrt(sum(g.evaluate_array(coords) ** 2 for g in grads))
        return coords, absw, gnorm

    def seeds_in(slab):
        coords, absw, gnorm = scan(slab)
        seed = region.mask(coords) & (absw <= 2.0 * h * w_scale) & (gnorm <= 2.0 * h * g_scale)
        return np.column_stack([a[i] for a, i in zip(slab, np.nonzero(seed))])

    # one np.max over the slabs' maxima, not a running max: a NaN spreads
    maxima = np.max([[np.max(a) for a in scan(slab)[1:]] for slab in slabs], axis=0)
    w_scale, g_scale = (max(float(m), 1e-300) for m in maxima)
    # Gauss-Newton on values that are not finite would hand LAPACK inf and
    # nan; the maxima tell such values from an infinite coordinate too
    if not math.isfinite(w_scale + g_scale):
        raise NonFiniteValues("w or its gradient")
    seeds = np.concatenate([seeds_in(slab) for slab in slabs])  # in row-major order
    _refuse_beyond_memory("grid", grid, len(seeds), CRITICAL_SEED_BYTES * (w.dim + 1),
                          what="finds {} seeds of {} byte(s) each to refine")

    refined = _gauss_newton_critical(w, grads, hess, seeds)
    refined = refined[~np.isnan(refined[:, 0])]
    pc = list(refined.T)
    val = np.abs(w.evaluate_array(pc))
    gval = np.linalg.norm(np.stack([g.evaluate_array(pc) for g in grads]), axis=0)
    ok = ~(val > tol_value * w_scale) & ~(gval > tol_gradient * g_scale)
    ok &= region.contains(refined)
    found: List[np.ndarray] = []
    for x in refined[ok]:
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
    least 3 points marks them good (sufficient condition only).  Chains
    come in the order of their first point."""
    n = len(points)
    near = [(i, j) for i in range(n) for j in range(i + 1, n)
            if np.linalg.norm(points[i] - points[j]) <= 2.5 * h]
    a, b = np.array(near, dtype=np.intp).reshape(-1, 2).T
    clusters: Dict[int, List[int]] = {}
    for i, root in enumerate(_components(n, a, b).tolist()):
        clusters.setdefault(root, []).append(i)
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


# the peak of ``nodal_domain_count`` (tracemalloc) is at most
# COUNT_PLANE_BYTES per cell of an axis-0 plane or of a slab, whichever is
# larger (of the one row in 1D, which is one slab): a slab's arrays and the
# runs of each sign, a few per grid row, while they are joined.  No array
# spans the grid; COUNT_CELL_BYTES, the byte per cell of the sign grid once
# held, is kept as a margin.  rezk:3
# and rezk:12 in the unit disk peak at 63 to 64 bytes per slab cell (1000^2
# to 3000^2 cells), the freed block of eight floats per slab cell that
# tracemalloc counts; paperH holds 137 per plane cell in a ball, 212 in a
# cube of side 1 and 274 in one of side 2, and x y z, two runs per row, 234
# (256^3); x^3 - x/4 in 1D 42 per cell of its row (10^6 cells)
COUNT_CELL_BYTES = 1
COUNT_PLANE_BYTES = 340


def _sign_grid(
    w: Polynomial, region: Region, resolution: int, band_rel: float
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The sign grid over the region's bounding box, held as the runs of
    its positive cells and of its negative cells: maximal rows of them
    along the last axis.  For each of the two signs, the flat indices of
    the first and the last cell of every run, both increasing, and whether
    the run holds a cell of the region's boundary shell (a cell whose 3^dim
    neighbourhood leaves the region or the grid).

    A cell is signed when it lies in the region and |w| at its center
    exceeds both ``band_rel`` times the largest |w| at a cell center in the
    region and sqrt(dim) * h * |grad w|.  The gradient term marks cells the
    zero set may cross, which is what prevents same-sign bridges where many
    nodal sectors meet at a deep zero.

    w, its gradient and the region mask are evaluated on the open mesh of
    the cell-center axes, each point once, one slab of whole axis-0 planes
    at a time: as many planes as fit in ``_SLAB_CELLS`` cells, and at least
    one (in 1D the one row).  Each slab hands over its runs and keeps no
    sign, so each array, fresh on every slab, holds about
    max(``_SLAB_CELLS``, resolution^(dim-1)) cells (resolution in 1D),
    beside the runs.  A slab signed before the largest |w| was seen
    is signed again against the final threshold only if one of its signed
    cells may lie inside it.  Raises ``NonFiniteValues`` once w or its
    gradient overflows on a slab, or a slab's largest |w| is not finite.
    """
    axes, h = region.grid_axes(resolution)
    dim = len(axes)
    grads = w.gradient()
    safety = float(np.sqrt(dim))
    plane = resolution ** (dim - 1)
    slabs = _slabs(resolution, plane) if dim > 1 else [slice(0, resolution)]  # whole runs
    beyond = np.zeros((1,) + (resolution,) * (dim - 1), dtype=bool)  # a row past the grid
    # a freed block of eight slabs' floats raises glibc's heap trim threshold
    # to twice its size, so the slabs' temporaries stay in the heap instead
    # of being handed back and faulted in again after every slab: paperH at
    # 256^3 took about 30k minor page faults on a process's first count
    # without it, under 3k with it.  One slab gains nothing from it
    if len(slabs) > 1:
        np.empty(8 * (slabs[0].stop - slabs[0].start) * plane)

    @functools.lru_cache(maxsize=3)  # a slab's window reads three slabs
    def inside(i: int) -> np.ndarray:
        if i < 0 or i == len(slabs):
            return beyond
        return region.mask(np.ix_(axes[0][slabs[i]], *axes[1:]))

    # every slab, then again each one whose smallest signed |w|, seen
    # before the largest |w| was, may lie inside the final threshold
    def order():
        yield from range(len(slabs))
        yield from [i for i, low in enumerate(least) if low <= band_rel * scale]

    scale = 1e-300
    least, runs = [np.inf] * len(slabs), [None] * len(slabs)  # per slab
    for i in order():
        sl = slabs[i]
        window = np.concatenate([inside(i - 1)[-1:], inside(i), inside(i + 1)[:1]])
        coords = np.ix_(axes[0][sl], *axes[1:])
        with _finite_floats():
            vals = w.evaluate_array(coords)
            band = grads[0].evaluate_array(coords)
            band *= band
            for g in grads[1:]:  # |grad w|^2, then the band, in band
                sq = g.evaluate_array(coords)
                sq *= sq
                band += sq
            np.sqrt(band, out=band)
        band *= safety * h
        neg = vals < 0
        absv = np.abs(vals, out=vals)
        largest = float(np.max(absv, where=window[1:-1], initial=0.0))
        if not math.isfinite(largest):
            raise NonFiniteValues("w")
        scale = max(scale, largest)
        np.maximum(band, band_rel * scale, out=band)
        # band >= 0, so a cell is signed when |w| > band, with the sign of w
        pos = absv > band
        pos &= window[1:-1]
        least[i] = float(np.min(absv, where=pos, initial=np.inf))
        neg &= pos
        pos ^= neg  # the positive cells
        shell = _shell_indices(window)
        runs[i] = [_runs(m, shell, sl.start * plane) for m in (pos, neg)]
    return [tuple(map(np.concatenate, zip(*(slab[s] for slab in runs)))) for s in (0, 1)]


def _shell_indices(window: np.ndarray) -> np.ndarray:
    """Flat indices, within the inner rows of ``window``, of the cells whose
    3^dim neighbourhood leaves the mask; ``window`` is a region mask with
    one extra row before and after (all False past the grid), and cells
    past the other edges count as outside."""
    core = window[:-2] & window[1:-1] & window[2:]
    for axis in range(1, core.ndim):
        at = (slice(None),) * axis  # the axes before ``axis``
        eroded = np.zeros_like(core)
        eroded[at + (slice(1, -1),)] = (core[at + (slice(None, -2),)]
                                        & core[at + (slice(1, -1),)] & core[at + (slice(2, None),)])
        core = eroded
    return np.flatnonzero(window[1:-1] & ~core)


def _runs(mask: np.ndarray, shell: np.ndarray,
          offset: int = 0) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs of ``mask``, maximal rows of its True cells along the last
    axis: the flat indices of their first and last cells plus ``offset``,
    both increasing, and whether each holds a cell of ``shell`` (flat
    indices into ``mask``).
    """
    width = mask.shape[-1]
    rows = mask.reshape(-1, width)
    e = np.empty((len(rows), width + 1), dtype=bool)
    # a run of row r from column i to j flips the padded row at i and
    # j + 1, that is at flat indices r * (width + 1) + i and + j + 1
    e[:, 0] = rows[:, 0]
    e[:, -1] = rows[:, -1]
    np.not_equal(rows[:, 1:], rows[:, :-1], out=e[:, 1:-1])
    flips = np.flatnonzero(e)
    cells = flips - flips // (width + 1)
    first, last = cells[0::2], cells[1::2] - 1
    # a cell of the mask lies in the last run that starts at or before it
    held = np.zeros(first.size, dtype=bool)
    held[np.searchsorted(first, shell[rows.ravel()[shell]], side="right") - 1] = True
    return first + offset, last + offset, held


def nodal_domain_count(
    w: Polynomial, region: Region, resolution: int, band_rel: float = 1e-10
) -> int:
    """Count sign-constant connected components of w on the region.

    Components are sets of same-sign cells that touch at a face, an edge or
    a corner (8-neighbourhood in 2D, 26 in 3D).  Cells whose center value
    falls inside the zero-detection band are excluded so that tangential
    near-zeros cannot bridge domains; the band spans a full cell diagonal,
    so no zero crossing fits between two signed cells that touch at a
    corner.

    For harmonic w a component counts only if it reaches the boundary
    shell of the region (a cell whose neighbourhood leaves the region or
    the grid): by the maximum principle no nodal domain lies compactly
    inside the region, so an enclosed component is a fragment the band
    cut off.  Every component counts for other w.  ``band_rel`` scales
    the region's largest |w|, not its bounding box's (see ``_sign_grid``).

    Components are found among runs of same-sign cells along the last axis
    (see ``label``), not cell by cell, and no array spans the grid.
    Memory: the float values of w and its gradient and a few masks on one
    slab of ``_SLAB_CELLS`` cells (or one axis-0 plane, if larger; the one
    row in 1D) while the slabs are signed (``_sign_grid``), and a few dozen
    bytes per run, a few hundred per run of one sign while they are joined;
    paperH in the ball of radius 0.5 at resolution 512 has 0.3 million runs
    and peaks at about 80 MB resident.  ``BeyondMemory`` refuses more, and
    ``ZeroFunction`` refuses w = 0.
    """
    _refuse_zero(w)
    # a 1D grid is one slab, its one row
    slab = max(resolution ** (region.dim - 1), _SLAB_CELLS) if region.dim > 1 else resolution
    _refuse_beyond_memory("resolution", resolution, resolution**region.dim, COUNT_CELL_BYTES,
                          COUNT_PLANE_BYTES * slab)
    runs = _sign_grid(w, region, resolution, band_rel)
    return _count_domains(runs, (resolution,) * region.dim, w.is_harmonic())


def _count_domains(runs: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
                   shape: Tuple[int, ...], harmonic: bool) -> int:
    """Number of same-sign components, under the full 3^dim neighbourhood,
    of a grid of ``shape`` given as the runs of each sign (``_sign_grid``);
    if ``harmonic``, only those with a run that holds a shell cell count.

    Each sign is labelled once (``label``).  Without ``harmonic`` the count
    is the number of component roots; with it, the number of components
    of the runs that hold a shell cell.
    """
    total = 0
    for first, last, held in runs:
        roots = label(first, last, shape)
        if harmonic:
            total += np.unique(roots[held]).size
        else:
            total += int(np.count_nonzero(roots == np.arange(roots.size)))
    return total


def label(first: np.ndarray, last: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Components, under the full 3^dim neighbourhood, of the cells of one
    sign of a grid of ``shape``, held as runs: maximal rows of such cells
    along the last axis, given by the flat indices of their first and last
    cells, both increasing.

    Returns the component of every run, named by its first run
    (``_components`` of the links between runs that ``_links`` finds).
    """
    return _components(first.size, *_links(first, last, shape))


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The component of each of the nodes 0, ..., n - 1 under the links
    ``a[i]``-``b[i]``, named by its smallest node.

    Every link hooks the larger of its two roots under the smaller, all
    links at once, and pointer jumping flattens the trees, until no link
    joins two components.
    """
    roots = np.arange(n)
    while a.size:
        np.minimum.at(roots, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = roots[roots]
            if np.array_equal(jumped, roots):
                break
            roots = jumped
        a, b = roots[a], roots[b]
        joined = a != b
        a, b = a[joined], b[joined]
    return roots


def _links(
    first: np.ndarray, last: np.ndarray, shape: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair of linked runs of a grid of ``shape``, as two arrays of
    run indices.

    Two runs are linked when their rows are neighbours and they overlap
    once one of them is widened by a cell at each end.  For each backward
    row offset, half of the 3^(dim-1) - 1, ``searchsorted`` on the first
    and last cells gives every run the range of runs it links to in that
    row.
    """
    width = shape[-1]
    # the widened run, kept inside its row
    low = first - (first % width > 0)
    high = last + (last % width < width - 1)
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape) - 1)]
    row = [first // stride % size for stride, size in zip(strides, shape)]
    links_a, links_b = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for offset in itertools.product((-1, 0, 1), repeat=len(shape) - 1):
        if offset >= (0,) * len(offset):
            continue  # a forward offset, or none; its backward twin links it
        inside = np.ones(first.size, dtype=bool)
        for k, d in enumerate(offset):
            if d:
                inside &= (row[k] + d >= 0) & (row[k] + d < shape[k])
        a = np.flatnonzero(inside)
        shift = sum(d * stride for d, stride in zip(offset, strides))
        lo = np.searchsorted(last, low[a] + shift, side="left")
        hi = np.searchsorted(first, high[a] + shift, side="right")
        count = hi - lo
        links_a.append(np.repeat(a, count))
        # run a's links are lo, lo + 1, ..., hi - 1
        before = np.cumsum(count) - count
        links_b.append(np.arange(count.sum()) + np.repeat(lo - before, count))
    return np.concatenate(links_a), np.concatenate(links_b)


def _bisect_edges(
    w: Polynomial, a: np.ndarray, b: np.ndarray, fa: np.ndarray
) -> np.ndarray:
    """Bisect every edge from ``a[:, k]`` to ``b[:, k]`` (one row per axis)
    on which w changes sign; ``fa`` holds w at the ``a`` ends.

    All edges share one evaluation per halving, and each keeps its own
    rules: at most 100 halvings, ending early at a midpoint where w is
    exactly 0 or once its ends are less than 1e-300 apart.  An edge whose
    midpoint rounds onto one of its ends is closed before that midpoint is
    evaluated: the halving would leave the edge as it is (w there is w at
    that end, of the end's sign and nonzero), and so would every later one.
    Returns the refined points, one column per edge.
    """
    a, b, fa = a.copy(), b.copy(), fa.copy()
    live = np.arange(a.shape[1])
    for _ in range(100):
        m = 0.5 * (a[:, live] + b[:, live])
        moving = (m != a[:, live]).any(axis=0) & (m != b[:, live]).any(axis=0)
        live, m = live[moving], m[:, moving]
        if not live.size:
            break
        fm = w.evaluate_array(list(m))
        # by signs: a product of two tiny values underflows to 0
        left = np.sign(fa[live]) * np.sign(fm) < 0
        b[:, live[left]] = m[:, left]
        a[:, live[~left]] = m[:, ~left]
        fa[live[~left]] = fm[~left]
        # an exact zero closes its edge on the midpoint, which the final
        # 0.5 * (a + b) then returns as it is
        hit = fm == 0.0
        b[:, live[hit]] = m[:, hit]
        width = np.linalg.norm(b[:, live] - a[:, live], axis=0)
        live = live[~(width < 1e-300)]
    return 0.5 * (a + b)


# the peak of ``zero_set_sample`` (tracemalloc) grows with the zero set's
# size, not with the grid; w, its signs and masks on one slab of ``_slabs``
# stay below it.  In 3D the bisection sets it: about 180 bytes per crossing
# edge (the copies of the edges' ends, the midpoints and w evaluated at
# them) on top of the 110 to 130 held per edge (the keys, w at them, the
# points and the far ends).  Per node, paperH in a ball: 27.7 at 40^3,
# where the edges are dense enough to pass the bound, 20.1 at 60^3, 15.1
# at 80^3, 11.6 at 100^3 and 5.7 at 200^3.  In 2D the returned lists set
# it: rezk:3 1.7 and imzk:9 4.3 at 1600^2 cells, 1.2 and 3.2 in the
# bisection.  PLOT_NODE_BYTES is the bound of the whole grid's arrays (17.5
# to 23.7 bytes per node), kept as an upper bound: a tighter one would
# start the plot of paperH at resolution 1500 that CI expects refused
PLOT_NODE_BYTES = 26

# a grid square's sides in scan order: bottom, right, top, left, given by
# the offset of their first node and their axis
_SIDES = ((0, 0, 0), (1, 0, 1), (0, 1, 0), (0, 0, 1))


def zero_set_sample(
    w: Polynomial,
    region: Region,
    resolution: int,
    tol: float = 1e-12,
) -> Tuple[List[List[float]], List[Tuple[int, int]]]:
    """Extract the zero level set on a grid.

    In 2D and 3D alike, a node of the grid over the region's bounding box
    where w is exactly 0 is a point, and so is the crossing on every edge
    where w changes sign, refined by bisection, all edges together.  Points
    come out in one order in every dimension: the zero nodes, then the
    crossings along axis 0, then those along axis 1 (and 2), each in
    row-major order.  Only points inside the region are returned, and each
    of them must meet |w| <= tol relative to the largest |w| at a node
    (else ``BisectionError``).  2D: marching squares; returns (points,
    segments) where segments index into the point list.  3D: a point
    cloud, no segments.
    The slabs of ``_slabs`` are evaluated in turn, each with the node plane
    after it.  Raises ``NonFiniteValues`` where w is not finite at a node,
    ``BeyondMemory`` for a grid whose nodes at ``PLOT_NODE_BYTES`` each
    pass physical memory, and ``ZeroFunction`` for w = 0.
    """
    _refuse_zero(w)
    lo, hi = region.bounding_box()
    dim = len(lo)
    if dim not in (2, 3):
        raise ValueError("zero_set_sample implemented for dim 2 and 3")
    n = resolution + 1
    _refuse_beyond_memory("resolution", resolution, n**dim, PLOT_NODE_BYTES)
    axes = [np.linspace(lo[i], hi[i], n) for i in range(dim)]
    plane = n ** (dim - 1)
    # a key names a node where w is 0 (kind 0) or the crossing on the edge
    # from a node along axis a (kind 1 + a): node + kind * n^dim; each
    # comes with w at its node
    scale, parts, sides = 0.0, [], []
    for sl in _slabs(resolution, plane):
        slab = [axes[0][sl.start:sl.stop + 1], *axes[1:]]
        with _finite_floats():
            vals = w.evaluate_array(np.ix_(*slab))
        scale = np.maximum(scale, np.max(np.abs(vals)))  # a NaN spreads
        # change[axis] marks the nodes whose edge along axis changes sign,
        # told by signs: the product of two tiny values underflows to 0
        sign = np.sign(vals).astype(np.int8)
        zero = vals == 0.0
        change = np.zeros((dim,) + vals.shape, dtype=bool)
        for axis, out in enumerate(change):  # views with the axis first
            s = np.moveaxis(sign, axis, 0)
            np.moveaxis(out, axis, 0)[:-1] = s[:-1] * s[1:] < 0
        # the node plane after a slab is the next slab's, but for the last
        # slab's
        planes = len(vals) - (sl.stop < resolution)
        for kind, mask in enumerate([zero, *change]):
            at = np.flatnonzero(mask[:planes])
            parts.append((sl.start * plane + at + kind * n**dim, vals.ravel()[at]))
        if dim == 2:
            # each side of a cell names the node it starts at, if w is 0
            # there, or else the crossing on it, if w changes sign
            r, c = len(vals) - 1, resolution  # the slab's rows and columns of cells
            has = [zero[di:di + r, dj:dj + c] | change[axis, di:di + r, dj:dj + c]
                   for di, dj, axis in _SIDES]
            has[3] &= ~zero[:-1, :-1]  # the bottom side already gave that node
            ci, cj = np.nonzero(has[0] | has[1] | has[2] | has[3])
            keys = np.full((ci.size, 4), -1)
            for col, (di, dj, axis) in enumerate(_SIDES):
                i, j = ci + di, cj + dj
                node = (sl.start + i) * n + j
                key = np.where(zero[i, j], node, node + (1 + axis) * n**dim)
                keys[:, col] = np.where(has[col][ci, cj], key, -1)
            sides.append(keys)
    scale = max(float(scale), 1e-300)

    # kind-major: the zero nodes, then the crossings along each axis, each
    # in row-major order; every slab gave one part per kind, so the keys
    # increase
    parts = [part for kind in range(dim + 1) for part in parts[kind::dim + 1]]
    keys, wkey = (np.concatenate(p) for p in zip(*parts))
    segs = np.empty((0, 2), dtype=int)
    if dim == 2:
        # a cell's points chain into consecutive segments
        sides = np.concatenate(sides)
        cell, _ = np.nonzero(sides >= 0)
        ids = np.searchsorted(keys, sides[sides >= 0])
        same = cell[1:] == cell[:-1]
        segs = np.column_stack([ids[:-1][same], ids[1:][same]])

    def nodes(flat):  # the coordinates of nodes, one column each
        return np.stack([ax[i] for ax, i in zip(axes, np.unravel_index(flat, (n,) * dim))])

    # an edge ends one node further along its axis
    kind, node = np.divmod(keys, n**dim)
    edge = kind > 0
    pts = nodes(node)
    ends = nodes(node[edge] + n ** (dim - kind[edge]))
    pts[:, edge] = _bisect_edges(w, pts[:, edge], ends, wkey[edge])

    inside = region.contains(pts.T)
    pts = pts[:, inside]
    miss = np.flatnonzero(np.abs(w.evaluate_array(list(pts))) > tol * scale)
    if miss.size:
        raise BisectionError(
            f"bisection stopped at |w| > {tol:g} * {scale:g} "
            f"near {pts[:, miss[0]].tolist()}"
        )
    renumber = np.cumsum(inside) - 1
    segs = renumber[segs[inside[segs].all(axis=1)]]
    return pts.T.tolist(), [tuple(s) for s in segs.tolist()]


SVG_SIZE = 640


def write_svg(
    points: List[List[float]],
    segments: List[Tuple[int, int]],
    path: str,
) -> None:
    """Dump 2D level-set segments as a standalone SVG file, ``SVG_SIZE``
    pixels square."""
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
        return (x - x0 + pad) / (span + 2 * pad) * SVG_SIZE

    def sy(y: float) -> float:
        return SVG_SIZE - (y - y0 + pad) / (span + 2 * pad) * SVG_SIZE

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
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
