"""Each numeric routine refuses, before it allocates, a call whose peak is
more bytes than physical memory, and knows that peak itself.

Every case measures the tracemalloc peak P of one call, then pins physical
memory at P - 1 bytes and requires the same call to raise ``BeyondMemory``:
the size the routine checks is then at least its real peak at that size.
The sizes are chosen large enough that the routines' fixed costs (a few kB)
stay below one byte per unit.
"""

import tracemalloc
from fractions import Fraction

import pytest

from harmonic_ratios import (
    Polynomial,
    Region,
    catalog_get,
    critical_set_sample,
    harnack_constant,
    leading_zero_inclusion,
    max_principle_check,
    nodal_domain_count,
    residual_convergence,
    shared_pair,
    zero_set_sample,
)
from harmonic_ratios import nodal
from harmonic_ratios.catalog import leading_expansion
from harmonic_ratios.nodal import BeyondMemory
from harmonic_ratios.verify import RatioEvaluator

EXPSIN = shared_pair("expsin", "coshsin")  # 2D, on the square [-2, 2]^2
PAPER = shared_pair("paperH", "paperH")  # 3D, on the cube [-1, 1]^3
PAPER_H = catalog_get("paperH").polynomial
REZK3 = catalog_get("rezk:3").polynomial
DISK = Region.ball((0, 0), 1.0)
BALL = Region.ball((0, 0, 0), 1.0)
HALF_CUBE = Region.box((-0.5,) * 3, (0.5,) * 3)
CUBE = Region.box((-1,) * 3, (1,) * 3)
XYZ = Polynomial.variable(3, 0) * Polynomial.variable(3, 1) * Polynomial.variable(3, 2)
X1 = Polynomial.variable(1, 0)
CUBIC_1D = X1 * X1 * X1 - X1.scale(Fraction(1, 4))


def max_check(pair, region, boundary, interior):
    return max_principle_check(RatioEvaluator.for_pair(pair), region, boundary, interior)


def leading(pair, samples):
    u, v = leading_expansion(pair.u), leading_expansion(pair.v)
    return lambda: leading_zero_inclusion(u, v, samples)


CASES = {
    "harnack-2d": lambda: harnack_constant(
        RatioEvaluator.for_pair(EXPSIN), EXPSIN.region, 250_000),
    "harnack-3d": lambda: harnack_constant(
        RatioEvaluator.for_pair(PAPER), PAPER.region, 250_000),
    "max-interior-2d": lambda: max_check(EXPSIN, EXPSIN.region, 4, 250_000),
    "max-interior-3d": lambda: max_check(PAPER, PAPER.region, 4, 250_000),
    "max-boundary-disk": lambda: max_check(EXPSIN, DISK, 250_000, 1),
    "max-boundary-ball": lambda: max_check(PAPER, BALL, 250_000, 1),
    "max-boundary-box": lambda: max_check(PAPER, PAPER.region, 250_000, 1),
    # the boundary draw is reduced before the interior draw is made, so the
    # peak is the larger draw's, not the sum of the two
    "max-both-2d": lambda: max_check(EXPSIN, EXPSIN.region, 250_000, 250_000),
    "elliptic-2d": lambda: residual_convergence(
        EXPSIN.u, EXPSIN.v, EXPSIN.region, 0.05, 3, 30_000),
    # f = u/v is not constant here, so the residual does not vanish
    "elliptic-3d": lambda: residual_convergence(
        lambda x, y, z: x * y + z, lambda x, y, z: 3.0 + x + y * z,
        PAPER.region, 0.05, 3, 30_000),
    "leading-2d": leading(EXPSIN, 250_000),
    "leading-3d": leading(PAPER, 10_000),
    "count-2d": lambda: nodal_domain_count(REZK3, DISK, 1000),
    "count-3d": lambda: nodal_domain_count(PAPER_H, HALF_CUBE, 256),
    # two runs in every grid row, more than paperH's
    "count-xyz-cube": lambda: nodal_domain_count(XYZ, CUBE, 256),
    # a 1D grid is one slab, its one row
    "count-1d": lambda: nodal_domain_count(CUBIC_1D, Region.ball((0,), 1.0), 10**6),
    "plot-2d": lambda: zero_set_sample(REZK3, DISK, 800),
    "plot-3d": lambda: zero_set_sample(PAPER_H, BALL, 80),
    # the refined points weigh more per node here than at 80^3
    "plot-3d-60": lambda: zero_set_sample(PAPER_H, BALL, 60),
    # few seeds: the scan is the peak
    "critical-imzk2-disk": lambda: critical_set_sample(
        catalog_get("imzk:2").polynomial, Region.ball((0.1, 0.2), 0.7), grid=300),
    "critical-paperH-cube": lambda: critical_set_sample(PAPER_H, HALF_CUBE, grid=48),
    # a deep zero: one cell in three or four is a seed, and refining them is
    # the peak
    "critical-rezk5-disk": lambda: critical_set_sample(
        catalog_get("rezk:5").polynomial, DISK, grid=100),
    "critical-paperH-ball": lambda: critical_set_sample(PAPER_H, BALL, grid=32),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_each_routine_refuses_its_own_peak(monkeypatch, call):
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(nodal, "_physical_memory", lambda: peak - 1)
    with pytest.raises(BeyondMemory):
        call()


# calls that hold one slab of their grid at a time, and few points: the
# peak stays below 4 bytes per grid unit (34.0 per cell and 17.4 per node
# when the grid was evaluated whole)
FLAT = {
    "critical-imzk2-disk-1000": (lambda: critical_set_sample(
        catalog_get("imzk:2").polynomial, Region.ball((0.1, 0.2), 0.7), grid=1000), 1000**2),
    "plot-rezk3-disk-1600": (lambda: zero_set_sample(REZK3, DISK, 1600), 1601**2),
}


@pytest.mark.parametrize("call, units", FLAT.values(), ids=FLAT.keys())
def test_peak_is_flat_in_the_grid(call, units):
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * units


def test_a_refusal_allocates_nothing_first(monkeypatch):
    # 10^9 grid points of harnack_constant would take 28 GB
    monkeypatch.setattr(nodal, "_physical_memory", lambda: 2**33)
    tracemalloc.start()
    try:
        with pytest.raises(BeyondMemory) as info:
            harnack_constant(RatioEvaluator.for_pair(EXPSIN), EXPSIN.region, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (info.value.name, info.value.value) == ("samples", 10**9)
    assert str(info.value).startswith("samples 1000000000 asks for 1000014129 points")


def test_a_critical_refusal_cuts_no_slab_list_first(monkeypatch):
    # 10^6 slabs of one plane each: the refusal sizes the largest without
    # the list of all of them
    monkeypatch.setattr(nodal, "_physical_memory", lambda: 2**33)
    tracemalloc.start()
    try:
        with pytest.raises(BeyondMemory) as info:
            critical_set_sample(PAPER_H, BALL, grid=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert str(info.value).startswith(f"grid {10**6} asks for {10**18} points")
    assert f"and {nodal.CRITICAL_SEED_BYTES * 4 * 10**12} bytes besides" in str(info.value)


def test_unknown_physical_memory_refuses_nothing(monkeypatch):
    monkeypatch.setattr(nodal, "_physical_memory", lambda: None)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert nodal_domain_count(x * y, DISK, 16) == 4
