"""Sampling regions for the numeric verification layer.

Regions are float-parametrized (the numeric checks are approximate by
design).  Sampling is deterministic given a numpy Generator; boundary
sampling of disks and boxes is a uniform deterministic sweep that includes
the axis-extreme points, so monotone quantities attain their extremes on the
sampled boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Region:
    kind: str  # ball | box | annulus
    center: Tuple[float, ...] = ()
    radius: float = 0.0
    inner: float = 0.0
    lo: Tuple[float, ...] = ()
    hi: Tuple[float, ...] = ()

    @staticmethod
    def ball(center: Sequence[float], radius: float) -> "Region":
        if not radius > 0:  # also rejects NaN
            raise ValueError("ball radius must be positive")
        return Region(kind="ball", center=tuple(map(float, center)),
                      radius=float(radius))._finite_extent()

    @staticmethod
    def box(lo: Sequence[float], hi: Sequence[float]) -> "Region":
        lo, hi = tuple(map(float, lo)), tuple(map(float, hi))
        if len(lo) != len(hi) or not all(a < b for a, b in zip(lo, hi)):
            raise ValueError("box needs lo < hi per axis")
        return Region(kind="box", lo=lo, hi=hi)._finite_extent()

    @staticmethod
    def annulus(center: Sequence[float], inner: float, outer: float) -> "Region":
        if not 0 <= inner < outer:
            raise ValueError("annulus needs 0 <= inner < outer")
        return Region(
            kind="annulus",
            center=tuple(map(float, center)),
            radius=float(outer),
            inner=float(inner),
        )._finite_extent()

    def _finite_extent(self) -> "Region":
        """This region, once every side hi - lo of its bounding box is
        finite, and so every bound: grids over a box with an infinite side
        have infinite or NaN coordinates and cell width.  A side of width 0
        passes.  In Python floats, which overflow without a warning."""
        if self.kind == "box":
            sides = [b - a for a, b in zip(self.lo, self.hi)]
        else:
            sides = [(c + self.radius) - (c - self.radius) for c in self.center]
        if not all(map(math.isfinite, sides)):
            raise ValueError(f"the {self.kind}'s extent is beyond the float range")
        return self

    @property
    def dim(self) -> int:
        return len(self.center) if self.kind != "box" else len(self.lo)

    def bounding_box(self) -> Tuple[np.ndarray, np.ndarray]:
        if self.kind == "box":
            return np.array(self.lo), np.array(self.hi)
        c = np.array(self.center)
        return c - self.radius, c + self.radius

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask for an (m, dim) array of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.mask(list(pts.T))

    def mask(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        """Membership of the points given as one coordinate array per axis.

        The arrays broadcast against each other, so ``np.ix_(*axes)`` gives
        the mask of a tensor grid without building its points.  Distances
        sum the squared offsets in axis order, as ``np.linalg.norm`` does.
        """
        if self.kind == "box":
            inside = np.asarray(True)
            for x, a, b in zip(coords, self.lo, self.hi):
                inside = inside & (x >= a) & (x <= b)
            return inside
        d2 = 0.0
        for x, c in zip(coords, self.center):
            off = x - c
            d2 = d2 + off * off
        d = np.sqrt(d2, out=d2)  # in place: one float array fewer at the peak
        if self.kind == "ball":
            return d <= self.radius
        return (d > self.inner) & (d <= self.radius)

    # -- sampling ------------------------------------------------------------

    def sample_interior(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform interior samples, shape (count, dim)."""
        lo, hi = self.bounding_box()
        out: List[np.ndarray] = []
        need = count
        while need > 0:
            batch = rng.uniform(lo, hi, size=(max(need * 2, 16), self.dim))
            ok = batch[self.contains(batch)]
            out.append(ok[:need])
            need -= len(ok[:need])
        return np.vstack(out)

    def sample_boundary(self, count: int) -> np.ndarray:
        """Deterministic boundary sweep of about count points, shape (m, dim).

        Disks: uniform angles starting at 0 (includes the four axis points
        whenever count is a multiple of 4).  Balls in 3D: a Fibonacci sphere
        of count points.  An annulus with a positive inner radius adds the
        same points on its inner circle or sphere.  Boxes: corners plus a
        uniform walk of the edges (2D, 4 * max(count // 4, 1) points), or an
        n x n grid on each of the six faces, edges and corners included,
        with n = floor(sqrt(count / 6)) (3D).
        """
        if self.kind in ("ball", "annulus"):
            if self.dim == 2:
                theta = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
                unit = np.column_stack([np.cos(theta), np.sin(theta)])
            elif self.dim == 3:
                # Fibonacci sphere: deterministic, near-uniform
                i = np.arange(count)
                phi = np.pi * (3.0 - np.sqrt(5.0)) * i
                z = 1.0 - 2.0 * (i + 0.5) / count
                rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
                unit = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
            else:
                raise ValueError(f"boundary sampling unsupported in dim {self.dim}")
            c = np.array(self.center)
            inner = c + self.inner * unit if self.kind == "annulus" and self.inner > 0 else None
            # c + radius * unit, in place: one array of points fewer at the peak
            unit *= self.radius
            unit += c
            return unit if inner is None else np.vstack([unit, inner])
        if self.kind == "box":
            if self.dim == 2:
                (x0, y0), (x1, y1) = self.lo, self.hi
                per = max(count // 4, 1)
                t = np.linspace(0.0, 1.0, per, endpoint=False)
                bottom = np.column_stack([x0 + t * (x1 - x0), np.full(per, y0)])
                right = np.column_stack([np.full(per, x1), y0 + t * (y1 - y0)])
                top = np.column_stack([x1 - t * (x1 - x0), np.full(per, y1)])
                left = np.column_stack([np.full(per, x0), y1 - t * (y1 - y0)])
                return np.vstack([bottom, right, top, left])
            if self.dim == 3:
                n = max(math.isqrt(count // 6), 1)
                grids = [np.linspace(a, b, n) for a, b in zip(self.lo, self.hi)]
                faces = []
                for axis in range(3):
                    for side in (self.lo[axis], self.hi[axis]):
                        axes = grids[:axis] + [np.array([side])] + grids[axis + 1:]
                        mesh = np.meshgrid(*axes, indexing="ij")
                        faces.append(np.stack(mesh, axis=-1).reshape(-1, 3))
                return np.vstack(faces)
            raise ValueError(f"box boundary sampling unsupported in dim {self.dim}")
        raise ValueError(f"unknown region kind {self.kind}")

    def grid_axes(self, resolution: int) -> Tuple[List[np.ndarray], float]:
        """Per-axis cell-center coordinates and the (max) cell width."""
        lo, hi = self.bounding_box()
        h = float(np.max(hi - lo)) / resolution
        axes = [
            lo[i] + (np.arange(resolution) + 0.5) * (hi[i] - lo[i]) / resolution
            for i in range(self.dim)
        ]
        return axes, h
