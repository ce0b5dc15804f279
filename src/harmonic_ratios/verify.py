"""Floating-point verification of analytic properties of harmonic ratios.

Every check returns a ``VerificationReport`` recording the measured extremes,
the sample counts, and the tolerance the pass/fail decision used.  Functions
``u`` and ``v`` are vectorized callables ``f(*coords) -> array`` (catalog
entries qualify); the maximum-principle and Harnack checks take their ratio
as a ``RatioEvaluator``.

The ratio u/v is evaluated directly where |v| is safely away from zero and
through an exact ratio series inside a guard band around the zero set (the
ratio extends real-analytically across shared zeros, but the quotient of
floats does not).  The series is built the first time a point needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from numpy.random import default_rng

from .catalog import expand
from .division import DivisionError, series_ratio
from .nodal import _bisect_edges, _refuse_beyond_memory, _slabs
from .polynomial import Polynomial
from .regions import Region
from .reports import VerificationReport
from .series import TruncatedSeries

Func = Callable[..., np.ndarray]

# the ratio series is trusted this far from its center (a fixed radius until
# it comes from the certified polydisc of a BoundCertificate)
TRUST_RADIUS = 0.25
# the ratio evaluator's guard band: |v| below this fraction of the largest
# |v| of a batch
GUARD = 1e-9
# the degree of the ratio series of RatioEvaluator.for_pair
SERIES_DEGREE = 12
# elliptic residual samples, with their whole stencils, keep |v| at least
# this fraction of its scale over the region
RESIDUAL_GUARD = 1e-3


class RatioVanishes(ArithmeticError):
    """|u/v| dropped below the detection floor: the inputs do not share a
    nodal set (or the floor is set too high)."""


class DegenerateRegion(ValueError):
    pass


class ResidualVanishes(ArithmeticError):
    """A divergence-form residual came out exactly 0, so its decay under
    halving h has no order to fit (f is constant, or x +- h rounds to x)."""


@dataclass
class RatioEvaluator:
    """Evaluate f = u/v with a series fallback near zeros of v.

    Inside the guard band (|v| below ``GUARD`` times the largest |v| of the
    batch) the direct quotient is noise; there the ratio series centered at a
    common zero is used instead, within ``TRUST_RADIUS`` of its center, and
    all such points are evaluated as one array.  Points that are in the band
    and out of the series' reach are reported invalid rather than guessed at.

    ``for_pair`` defers the exact series work: the first batch with a point
    in the guard band builds the series into ``ratio_series`` (None until
    then, and after a failed build), and every later batch reuses it.
    """

    u: Func
    v: Func
    ratio_series: Optional[TruncatedSeries] = None
    # for_pair's pending series build; run at most once, then dropped
    _build: Optional[Callable[[], Optional[TruncatedSeries]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @staticmethod
    def for_pair(pair) -> "RatioEvaluator":
        """Build from a SharedZeroPair, with a ratio series of degree
        ``SERIES_DEGREE`` at the origin whenever both members expose exact
        Taylor data; the series is computed on first need."""
        evaluator = RatioEvaluator(u=pair.u, v=pair.v)
        evaluator._build = lambda: _pair_series(pair)
        return evaluator

    def _series(self) -> Optional[TruncatedSeries]:
        if self._build is not None:
            self.ratio_series = self._build()
            self._build = None
        return self.ratio_series

    def __call__(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return (values, valid mask) for an (m, dim) array of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._evaluate([pts[:, i] for i in range(pts.shape[1])])

    def _evaluate(
        self, coords: Sequence[np.ndarray], where=True, scale: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(values, valid mask) at the points given as one float coordinate
        array per axis, in the broadcast shape of the arrays.

        ``np.ix_(*axes)`` gives a tensor grid on which u and v see each axis
        value once.  Points outside the boolean mask ``where`` (by default
        there are none) are invalid and take no part in the guard scale or
        the fallback.  Fallback points are taken in row-major order.  The
        guard scale is the largest |v| at the points, unless ``scale``
        gives it: a grid evaluated in blocks shares its scale.
        """
        shape = np.broadcast(*coords).shape
        uv, vv = self.u(*coords), self.v(*coords)
        if np.shape(uv) != shape or np.shape(vv) != shape:  # u or v ignores an axis
            uv, vv = np.broadcast_to(uv, shape), np.broadcast_to(vv, shape)
        absv = np.abs(vv)
        if scale is None:
            scale = max(float(absv.max(initial=0.0, where=where)), 1e-300)
        safe = absv >= GUARD * scale
        del absv  # one float array fewer at the peak
        near = ~safe & where
        safe &= where
        out = np.full(shape, np.nan)
        np.divide(uv, vv, out=out, where=safe)
        valid = safe
        series = self._series() if near.any() else None
        if series is not None:
            center = np.array([float(c) for c in series.center])
            disp = np.stack(
                [np.broadcast_to(c, shape)[near] for c in coords], axis=-1
            ) - center
            reachable = np.linalg.norm(disp, axis=1) <= TRUST_RADIUS
            idx = np.flatnonzero(near)[reachable]
            out.flat[idx] = series.evaluate_array(list(disp[reachable].T))
            valid.flat[idx] = True
        return out, valid


def _pair_series(pair) -> Optional[TruncatedSeries]:
    """The ratio series of a SharedZeroPair at the origin, or None when a
    member has no exact Taylor data or the series division fails."""
    try:
        return series_ratio(*expand(pair.u, pair.v, SERIES_DEGREE), SERIES_DEGREE).quotient
    except (ValueError, ArithmeticError, DivisionError):
        return None


# the peaks (tracemalloc) of max_principle_check's two draws, in bytes per
# sample, as formulas in the dimension; a call peaks at the larger one.  The
# interior draw holds two candidates per sample, then the inside candidates
# and their stacked copy:
# 40 bytes per coordinate and a mask byte per candidate, 82.0 in a square
# and 120.0 in a cube (10^6 samples).  The boundary sweep and its
# evaluation hold 42.0 on a circle, 80.0 on a 3D ball's Fibonacci sphere
# and 79.9 on a cube's faces
INTERIOR_SAMPLE_BYTES = lambda dim: 40 * dim + 3
BOUNDARY_SAMPLE_BYTES = lambda dim: 38 * dim - 33


def _extremes(evaluator: RatioEvaluator, points: np.ndarray) -> Tuple[float, float, int, int]:
    """Largest and smallest valid f at ``points``, and the counts of valid
    and of skipped points; ``DegenerateRegion`` if none is valid."""
    f, ok = evaluator(points)
    if not np.any(ok):
        raise DegenerateRegion("no valid ratio samples in the region")
    return float(np.max(f[ok])), float(np.min(f[ok])), int(np.sum(ok)), int(np.sum(~ok))


def max_principle_check(
    evaluator: RatioEvaluator,
    region: Region,
    boundary_samples: int,
    interior_samples: int,
    tol: float = 1e-9,
    seed: int = 0,
) -> VerificationReport:
    """Interior extremes of f = u/v must not exceed the boundary extremes.
    ``BeyondMemory`` refuses a draw that would pass physical memory."""
    if boundary_samples < 4 or interior_samples < 1:
        raise DegenerateRegion("need at least 4 boundary and 1 interior samples")
    for name, count, size in (("interior_samples", interior_samples, INTERIOR_SAMPLE_BYTES),
                              ("boundary_samples", boundary_samples, BOUNDARY_SAMPLE_BYTES)):
        _refuse_beyond_memory(name, count, count, size(region.dim))
    # each draw is reduced before the next is made, so the peak is the
    # larger draw's; the interior draw alone uses the generator
    bmax, bmin, b_ok, b_skip = _extremes(evaluator, region.sample_boundary(boundary_samples))
    imax, imin, i_ok, i_skip = _extremes(
        evaluator, region.sample_interior(interior_samples, default_rng(seed)))
    scale = max(abs(bmax), abs(bmin), abs(imax), abs(imin), 1e-300)
    passed = imax <= bmax + tol * scale and imin >= bmin - tol * scale
    return VerificationReport(
        name="max_principle",
        passed=passed,
        extremes={
            "boundary_max": bmax,
            "boundary_min": bmin,
            "interior_max": imax,
            "interior_min": imin,
        },
        samples={"boundary": b_ok, "interior": i_ok, "skipped": b_skip + i_skip},
        tolerance=tol,
        notes="relative tolerance against the largest observed |f|",
    )


# the peak of harnack_constant (tracemalloc) is that of one block of rows:
# u, v and f as float64 and a few masks on one slab of ``nodal._slabs``,
# 2.5 to 2.8 MB in 2D and 3D (2.5 * 10^5 to 10^6 points).  The grid
# evaluated whole held 27.0 bytes per point; that bound is kept
HARNACK_POINT_BYTES = 28


def harnack_constant(
    evaluator: RatioEvaluator,
    region: Region,
    samples: int,
    floor: float = 1e-9,
) -> VerificationReport:
    """Empirical Harnack constant C* = sup|f| / inf|f| over the compact set.

    Samples are a deterministic grid including the region's extreme points,
    so monotone ratios attain their true extremes up to grid resolution.
    Finiteness is the claim being verified; the value itself is reported.

    The slabs of ``nodal._slabs`` are evaluated twice: once for the guard
    scale, the largest |v| inside the whole grid, and once for f, whose
    extremes and counts each slab reduces in place.  So no array spans
    the grid.  ``BeyondMemory`` refuses a grid that would pass physical
    memory.
    """
    side = max(int(round(samples ** (1.0 / region.dim))), 1)  # points per axis
    _refuse_beyond_memory("samples", samples, side**region.dim, HARNACK_POINT_BYTES)
    axes = [np.linspace(a, b, side) for a, b in zip(*region.bounding_box())]
    blocks = [np.ix_(axes[0][sl], *axes[1:]) for sl in _slabs(side, side ** (region.dim - 1))]
    scale = 0.0  # np.maximum, not max: a NaN |v| spreads as in one reduction
    for coords in blocks:
        absv = np.abs(np.broadcast_to(evaluator.v(*coords), np.broadcast(*coords).shape))
        scale = np.maximum(scale, absv.max(initial=0.0, where=region.mask(coords)))
    scale = max(float(scale), 1e-300)
    sup, inf, valid, points = -np.inf, np.inf, 0, 0
    for coords in blocks:
        inside = region.mask(coords)
        f, ok = evaluator._evaluate(coords, where=inside, scale=scale)
        absf = np.abs(f, out=f)
        sup = np.maximum(sup, absf.max(initial=-np.inf, where=ok))
        inf = np.minimum(inf, absf.min(initial=np.inf, where=ok))
        valid += int(np.count_nonzero(ok))
        points += int(np.count_nonzero(inside))
    if valid == 0:
        raise DegenerateRegion("no valid ratio samples in the region")
    sup, inf = float(sup), float(inf)
    if inf < floor * sup:
        raise RatioVanishes(
            f"|f| reaches {inf:.3e} against sup {sup:.3e}; zero sets differ"
        )
    c_star = sup / inf if inf > 0 else float("inf")
    return VerificationReport(
        name="harnack_constant",
        passed=bool(np.isfinite(c_star)),
        extremes={"sup_abs_f": sup, "inf_abs_f": inf, "C_star": c_star},
        samples={"grid_points": valid, "skipped": points - valid},
        tolerance=floor,
        notes="empirical constant over a deterministic grid",
    )


def sphere_orthogonality(
    q: Polynomial,
    q2: Polynomial,
    r: float,
    quad_points: int,
    tol: float = 1e-10,
) -> VerificationReport:
    """Surface integral of q2 * q over the sphere of radius r; expects ~0.

    q must be homogeneous harmonic and deg q2 < deg q.  Dimension 2 uses the
    trapezoid rule on uniform angles (spectrally exact for trigonometric
    polynomials); dimension 3 uses a Gauss-Legendre x uniform-phi product
    rule, exact for polynomial integrands at this point count.
    """
    if q.dim != q2.dim:
        raise ValueError("dimension mismatch")
    if not q.is_homogeneous() or not q.laplacian().is_zero():
        raise ValueError("q must be a homogeneous harmonic polynomial")
    if q2.total_degree() >= q.total_degree():
        raise ValueError("q2 must have strictly smaller degree than q")
    if q.dim == 2:
        theta = np.linspace(0.0, 2 * np.pi, quad_points, endpoint=False)
        x, y = r * np.cos(theta), r * np.sin(theta)
        integrand = q.evaluate_array([x, y]) * q2.evaluate_array([x, y])
        weight = r * 2 * np.pi / quad_points
        integral = float(np.sum(integrand) * weight)
        abs_integral = float(np.sum(np.abs(integrand)) * weight)
        n_used = quad_points
    elif q.dim == 3:
        n_theta = max(int(np.sqrt(quad_points)), 2)
        n_phi = 2 * n_theta
        nodes, weights = np.polynomial.legendre.leggauss(n_theta)
        phi = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
        ct, pg = np.meshgrid(nodes, phi, indexing="ij")
        st = np.sqrt(1.0 - ct**2)
        x, y, z = r * st * np.cos(pg), r * st * np.sin(pg), r * ct
        integrand = q.evaluate_array([x, y, z]) * q2.evaluate_array([x, y, z])
        w = weights[:, None] * (2 * np.pi / n_phi) * r**2
        integral = float(np.sum(integrand * w))
        abs_integral = float(np.sum(np.abs(integrand) * w))
        n_used = n_theta * n_phi
    else:
        raise ValueError("sphere quadrature implemented for dim 2 and 3")
    scale = max(abs_integral, 1.0)
    passed = abs(integral) <= tol * scale
    return VerificationReport(
        name="sphere_orthogonality",
        passed=passed,
        extremes={"integral": integral, "integrand_scale": abs_integral},
        samples={"quad_points": n_used},
        tolerance=tol,
        notes=f"surface integral over the sphere of radius {r}",
    )


def _divergence_form_residual(u: Func, v: Func, pts: np.ndarray, h: float) -> np.ndarray:
    """Conservative central-difference estimate of div(v^2 grad f) at pts,
    with f = u/v taken directly: every stencil node keeps |v| clear of the
    zero set (``_stencil_samples``)."""
    dim = pts.shape[1]
    res = np.zeros(len(pts))

    def columns(shift: np.ndarray) -> list:
        return [(pts + shift)[:, i] for i in range(dim)]

    def f_at(shift: np.ndarray) -> np.ndarray:
        coords = columns(shift)
        return u(*coords) / v(*coords)

    def w_at(shift: np.ndarray) -> np.ndarray:
        return v(*columns(shift)) ** 2

    f0 = f_at(np.zeros(dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        f_plus = f_at(h * e)
        f_minus = f_at(-h * e)
        w_plus = w_at(0.5 * h * e)
        w_minus = w_at(-0.5 * h * e)
        res += (w_plus * (f_plus - f0) - w_minus * (f0 - f_minus)) / h**2
    return res


def _stencil_samples(
    v: Func, region: Region, steps: Sequence[float], samples: int, seed: int
) -> np.ndarray:
    """Up to ``samples`` random interior points whose stencils, at every step
    in ``steps``, all keep |v| at least ``RESIDUAL_GUARD`` times its scale
    over the draw."""
    rng = default_rng(seed)
    raw = region.sample_interior(samples * 4, rng)
    coords = [raw[:, i] for i in range(raw.shape[1])]
    vv = np.abs(v(*coords))
    scale = float(np.max(vv))
    keep = vv >= RESIDUAL_GUARD * scale
    # the full stencil must stay clear of the zero set and inside the domain
    for h in steps:
        for i in range(raw.shape[1]):
            for sgn in (1.0, -1.0):
                shifted = raw.copy()
                shifted[:, i] += sgn * h
                vv_s = np.abs(v(*[shifted[:, j] for j in range(raw.shape[1])]))
                keep &= vv_s >= RESIDUAL_GUARD * scale
    pts = raw[keep][:samples]
    if len(pts) == 0:
        raise DegenerateRegion("no sample point clears the guard band")
    return pts


# the peak of residual_convergence (tracemalloc), in bytes per sample as a
# formula in the dimension: the uniform draw for four stencil candidates per
# sample (two draws per candidate), its inside copy and the stacked
# candidates, 328.0 in 2D and 480.0 in 3D (3 * 10^4 to 10^6 samples)
ELLIPTIC_SAMPLE_BYTES = lambda dim: 152 * dim + 25


def residual_convergence(
    u: Func,
    v: Func,
    region: Region,
    h0: float,
    halvings: int,
    samples: int,
    seed: int = 0,
    min_order: float = 1.9,
) -> VerificationReport:
    """Halve h repeatedly and fit the decay order of the residual.
    ``BeyondMemory`` refuses a draw that would pass physical memory."""
    _refuse_beyond_memory("samples", samples, samples, ELLIPTIC_SAMPLE_BYTES(region.dim))
    hs = [h0 * 0.5**j for j in range(halvings + 1)]
    pts = _stencil_samples(v, region, hs, samples, seed)
    residuals = []
    for h in hs:
        res = _divergence_form_residual(u, v, pts, h)
        residuals.append(float(np.max(np.abs(res))))
        if residuals[-1] == 0.0:
            raise ResidualVanishes(
                f"residual vanishes at h = {h!r}; no decay order to fit"
            )
    orders = [
        float(np.log2(residuals[i] / residuals[i + 1]))
        for i in range(len(residuals) - 1)
    ]
    passed = all(o >= min_order for o in orders)
    return VerificationReport(
        name="elliptic_residual_convergence",
        passed=passed,
        extremes={"h": hs, "max_abs_residual": residuals, "orders": orders},
        samples={"points": len(pts), "halvings": halvings},
        tolerance=min_order,
        notes="decay order of max |div(v^2 grad f)| under halving h",
    )


# the peak of leading_zero_inclusion (tracemalloc), in bytes per circle
# point as a formula in the dimension: one circle of points, its values,
# their signs and rolled copies, 58.1 in 2D (10^5 to 4 * 10^5 points) and
# 107.7 to 109.1 in 3D (5 * 10^3 to 4 * 10^4)
LEADING_SAMPLE_BYTES = lambda dim: 51 * dim - 43


def leading_zero_inclusion(
    u: TruncatedSeries,
    v: TruncatedSeries,
    samples: int,
    tol: float = 1e-8,
    seed: int = 0,
) -> VerificationReport:
    """Zeros of the leading part of v must be zeros of the leading part of u.

    Zeros of v's leading part v_k are located on the unit sphere along
    circles (the full circle in 2D, random great circles in 3D): sample
    points where v_k is exactly 0, and the chords between neighbouring
    samples where v_k changes sign, bisected all together and projected onto
    the sphere (v_k is homogeneous, so the projection keeps its zeros).
    Then |u_k| is required to be below tol relative to its scale.  A zero
    series has no leading part, so a zero u or v raises ``ValueError``: a
    truncation below the vanishing order would otherwise pass having
    checked nothing.  ``BeyondMemory`` refuses circles that would pass physical memory.
    """
    if u.is_zero() or v.is_zero():
        raise ValueError("a zero series has no leading part to compare")
    dim = u.dim
    n = max(samples, 16)
    _refuse_beyond_memory("samples", samples, n, LEADING_SAMPLE_BYTES(dim))
    u_lead = u.homogeneous_part(u.leading_degree())
    v_lead = v.homogeneous_part(v.leading_degree())
    theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)

    rng = default_rng(seed)
    circles = []
    if dim == 2:
        circles.append((np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    else:
        for _ in range(max(samples // 64, 8)):
            m = rng.normal(size=(dim, 2))
            qmat, _ = np.linalg.qr(m)
            circles.append((qmat[:, 0], qmat[:, 1]))

    # one circle at a time, so memory stays O(samples); columns are points
    u_scale = 0.0
    on_grid, starts, ends, f_starts = [], [], [], []
    for a, b in circles:
        pts = np.outer(a, np.cos(theta))
        pts += np.outer(b, np.sin(theta))  # in place: one array of points fewer
        vals = v_lead.evaluate_array(list(pts))
        u_vals = u_lead.evaluate_array(list(pts))
        u_scale = max(u_scale, float(np.max(np.abs(u_vals))))
        sign = np.sign(vals).astype(np.int8)
        cross = sign * np.roll(sign, -1) < 0
        on_grid.append(pts[:, vals == 0.0])
        starts.append(pts[:, cross])
        ends.append(np.roll(pts, -1, axis=1)[:, cross])
        f_starts.append(vals[cross])
    crossings = _bisect_edges(
        v_lead, *(np.concatenate(p, axis=-1) for p in (starts, ends, f_starts))
    )
    crossings /= np.linalg.norm(crossings, axis=0)
    zeros = np.concatenate(on_grid + [crossings], axis=1)
    u_at_zeros = np.abs(u_lead.evaluate_array(list(zeros)))
    worst = float(np.max(u_at_zeros, initial=0.0)) / max(u_scale, 1e-300)
    passed = worst <= tol
    return VerificationReport(
        name="leading_zero_inclusion",
        passed=passed,
        extremes={"worst_relative_u": worst, "zeros_found": zeros.shape[1]},
        samples={"circle_points": n, "circles": len(circles)},
        tolerance=tol,
        notes="zeros of the divisor's leading part, checked against the numerator's",
    )
