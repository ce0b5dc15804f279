"""Acceptance suite: every release criterion, one pass/fail line each.

Each test prints a single `ACCEPTANCE <n> PASS|FAIL: <summary>` line (visible
with ``pytest -s`` or in captured output) and asserts the criterion at its
stated tolerance.  Stated time limits are asserted too.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from harmonic_ratios import (
    Polynomial,
    RatioEvaluator,
    Region,
    bound_certificate,
    catalog_get,
    coefficient_bound_check,
    critical_set_sample,
    depth_of_zero,
    divide_by_harmonic,
    harmonic_basis,
    harnack_constant,
    max_principle_check,
    measure_growth,
    nodal_domain_count,
    residual_convergence,
    rotate,
    series_ratio,
    shared_pair,
    sphere_orthogonality,
    verify_certificate,
)
from harmonic_ratios import multiindex as mi
from harmonic_ratios.rotation import random_rotation


def report(number: int, ok: bool, summary: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {summary}")
    assert ok, summary


def _random_harmonic(dim, degree, rng):
    basis = harmonic_basis(dim, degree)
    while True:
        q = Polynomial.zero(dim)
        for b in basis:
            q = q + b.scale(Fraction(int(rng.integers(-4, 5))))
        if not q.is_zero():
            return q


def _random_poly(dim, max_degree, rng):
    terms = {
        alpha: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4)))
        for alpha in mi.iter_up_to_degree(dim, max_degree)
        if rng.random() < 0.35
    }
    p = Polynomial(dim, terms)
    return p if not p.is_zero() else Polynomial.constant(dim, 1)


def test_01_division_exactness_200_random_cases():
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    for _ in range(200):
        dim = int(rng.integers(2, 4))
        q = _random_harmonic(dim, int(rng.integers(1, 6)), rng)
        r = _random_poly(dim, int(rng.integers(0, 5)), rng)
        out = divide_by_harmonic(q * r, q)
        assert out.quotient == r and out.residual_verified
    elapsed = time.monotonic() - t0
    report(1, elapsed < 10.0,
           f"200 random divide round-trips exact in {elapsed:.2f}s (< 10s)")


def test_02_series_ratio_reference_expansion():
    u = catalog_get("expsin").taylor((0, 0), 9)
    v = catalog_get("coshsin").taylor((0, 0), 9)
    out = series_ratio(u, v, 8)
    expected = {
        (0, 0): Fraction(1),
        (0, 1): Fraction(1),
        (0, 3): Fraction(-1, 3),
        (0, 5): Fraction(2, 15),
        (0, 7): Fraction(-17, 315),
    }
    ok = out.residual_verified and dict(out.quotient.coefficients) == expected
    report(2, ok, "ratio of (e^y sin x, cosh y sin x) to degree 8 is exact "
                  "with residual verified")


def test_03_certificate_grid_sound():
    t0 = time.monotonic()
    violations = 0
    count = 0
    for a in (1, 10):
        for c in (Fraction(1), Fraction(1, 2)):
            for r in (1, 2):
                for k in range(4):
                    for n in (2, 3, 4):
                        cert = bound_certificate(a, c, r, k, n)
                        rep = verify_certificate(cert, n_check=12)
                        count += 1
                        if not rep.passed:
                            violations += 1
    elapsed = time.monotonic() - t0
    report(3, violations == 0 and elapsed < 60.0,
           f"{count} certificates verified exactly at N=12, "
           f"{violations} violations, {elapsed:.1f}s (< 60s)")


def test_04_nodal_domain_counts():
    h = catalog_get("paperH").polynomial
    ball = Region.ball((0, 0, 0), 0.5)
    c256 = nodal_domain_count(h, ball, 256)
    c512 = nodal_domain_count(h, ball, 512)
    sectors = {
        k: nodal_domain_count(
            catalog_get(f"rezk:{k}").polynomial, Region.ball((0, 0), 1.0), 256
        )
        for k in (2, 3, 4)
    }
    ok = c256 == 2 and c512 == 2 and sectors == {2: 4, 3: 6, 4: 8}
    report(4, ok, f"3D cubic counts ({c256}, {c512}) at res 256/512; "
                  f"sector counts {sectors}")


def test_05_harnack_constant():
    pair = shared_pair("expsin", "coshsin")
    ev = RatioEvaluator.for_pair(pair)
    box = Region.box((-1, -1), (1, 1))
    rep = harnack_constant(ev, box, samples=10**6)
    c_star = rep.extremes["C_star"]
    same = RatioEvaluator.for_pair(shared_pair("expsin", "expsin"))
    rep_same = harnack_constant(same, box, samples=10**4)
    ok = abs(c_star - float(np.e**2)) < 1e-3 and \
        abs(rep_same.extremes["C_star"] - 1.0) < 1e-12
    report(5, ok, f"C* = {c_star:.6f} vs e^2 = {float(np.e**2):.6f} at 1e6 "
                  f"samples; C* = {rep_same.extremes['C_star']} for u = v")


def test_06_max_principle_100_random_subdisks():
    pair = shared_pair("expsin", "coshsin")
    ev = RatioEvaluator.for_pair(pair)
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(100):
        center = rng.uniform(-1.5, 1.5, size=2)
        radius = rng.uniform(0.1, 0.5)
        rep = max_principle_check(
            ev, Region.ball(center, radius),
            boundary_samples=256, interior_samples=256, tol=1e-9, seed=i,
        )
        assert rep.passed, (center, radius, rep.extremes)
        e = rep.extremes
        scale = max(abs(e["boundary_max"]), abs(e["boundary_min"]), 1e-300)
        worst = max(worst,
                    (e["interior_max"] - e["boundary_max"]) / scale,
                    (e["boundary_min"] - e["interior_min"]) / scale)
    report(6, worst <= 1e-9,
           f"100 random sub-disks, worst relative excess {worst:.2e} <= 1e-9")


def test_07_sphere_orthogonality():
    q = catalog_get("rezk:3").polynomial  # x^3 - 3 x y^2
    x = Polynomial.variable(2, 0)
    one = Polynomial.constant(2, 1)
    rep_x = sphere_orthogonality(q, x, r=1.0, quad_points=10**4)
    rep_1 = sphere_orthogonality(q, one, r=1.0, quad_points=10**4)
    ix, i1 = rep_x.extremes["integral"], rep_1.extremes["integral"]
    ok = abs(ix) < 1e-10 and abs(i1) < 1e-10
    report(7, ok, f"|integral| = {abs(ix):.2e} against x, {abs(i1):.2e} "
                  "against 1 (both < 1e-10 at 1e4 points)")


def test_08_elliptic_residual_decay():
    pair = shared_pair("expsin", "coshsin")
    rep = residual_convergence(
        pair.u, pair.v, Region.box((-1, -1), (1, 1)),
        h0=0.04, halvings=3, samples=60,
    )
    orders = rep.extremes["orders"]
    ok = rep.passed and all(o >= 1.9 for o in orders)
    report(8, ok, f"residual decay orders {['%.3f' % o for o in orders]} "
                  "all >= 1.9 across three halvings")


def test_09_depth_and_critical_set():
    h = catalog_get("paperH").polynomial
    d0 = depth_of_zero(h, (0, 0, 0))
    crit = critical_set_sample(h, Region.ball((0, 0, 0), 1.0),
                               grid=20, tol_value=1e-8, tol_gradient=1e-8)
    only_origin = (
        len(crit.critical_points) == 1
        and float(np.linalg.norm(crit.critical_points[0])) < 1e-8
    )
    rng = np.random.default_rng(13)
    depths = {depth_of_zero(rotate(h, random_rotation(3, rng)), (0, 0, 0))
              for _ in range(20)}
    ok = d0 == 2 and only_origin and depths == {2}
    report(9, ok, f"depth at origin = {d0}; critical set = "
                  f"{crit.critical_points}; depths under 20 exact rotations "
                  f"= {sorted(depths)}")


def test_10_measured_certificates_bound_ratio_coefficients():
    cases = []
    # transcendental pair
    n = 10
    u = catalog_get("expsin").taylor((0, 0), n + 1)
    v = catalog_get("coshsin").taylor((0, 0), n + 1)
    cases.append((u, v, n))
    # polynomial pair with a degree-1 harmonic divisor
    from harmonic_ratios import TruncatedSeries

    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    f_true = x * x - y * y + 3 * x * y
    cases.append((
        TruncatedSeries.from_polynomial(f_true * x, 9),
        TruncatedSeries.from_polynomial(x, 9),
        8,
    ))
    worst = 0.0
    for u, v, deg in cases:
        f = series_ratio(u, v, deg).quotient
        a, c, r, k = measure_growth(u, v)
        cert = bound_certificate(a, c, r, k, n=u.dim)
        rep = coefficient_bound_check(f, cert)
        assert rep.passed, rep.extremes
        worst = max(worst, rep.extremes["worst_ratio"])
    report(10, worst <= 1.0,
           f"measured-growth certificates bound every ratio coefficient "
           f"(worst |f_beta| / (A R^beta) = {worst:.3e})")
