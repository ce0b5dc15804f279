"""Construction and exact verification of coefficient-growth certificates."""

import itertools
from fractions import Fraction
from typing import Optional, Tuple

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings, strategies as st

from harmonic_ratios import multiindex as mi
from harmonic_ratios import (
    BoundCertificate,
    TruncatedSeries,
    bound_certificate,
    coefficient_bound_check,
    measure_growth,
    verify_certificate,
)
from harmonic_ratios.catalog import catalog_get
from harmonic_ratios.certificates import _scaled_ints
from harmonic_ratios.division import series_ratio
from harmonic_ratios.reports import VerificationReport

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def per_beta_oracle(cert: BoundCertificate, n_check: int) -> VerificationReport:
    """The check before the prefix-shared sweep: S rebuilt from the empty
    product for every beta, truncated at |beta|, slack as a Fraction."""
    n, k = cert.n, cert.k
    d, r_i, R_i = _scaled_ints(cert)
    max_pow = n_check + k + 1
    r_pows = [r_i**e for e in range(max_pow)]
    R_pows = [[Ri**e for e in range(max_pow)] for Ri in R_i]
    d_pow_k = d**k

    worst_slack: Optional[Fraction] = None
    worst_beta = None
    failures = []
    checked = 0
    for beta in mi.iter_up_to_degree(n, n_check):
        checked += 1
        db = sum(beta)
        bounds = (beta[0] + k,) + beta[1:]
        S = [0] * (db + 1)
        S[0] = 1
        for i, b in enumerate(bounds):
            new = [0] * (db + 1)
            pows = R_pows[i]
            for m, acc in enumerate(S):
                if acc == 0:
                    continue
                top = min(b, db - m)
                for e in range(top + 1):
                    new[m + e] += acc * pows[e]
            S = new
        R_beta = 1
        for i, b in enumerate(beta):
            R_beta *= R_pows[i][b]
        S[db] -= R_beta
        star = sum(S[m] * r_pows[db + k - m] for m in range(db + 1))
        lhs = cert.a0 * r_pows[db + k] + cert.a0 * cert.A * star
        rhs = cert.A * R_beta * d_pow_k
        slack = Fraction(rhs) - lhs
        if worst_slack is None or slack < worst_slack:
            worst_slack, worst_beta = slack, beta
        if slack < 0:
            failures.append(beta)

    scale = Fraction(d) ** (sum(worst_beta) + k)
    return VerificationReport(
        name="certificate_inequality",
        passed=not failures,
        extremes={
            "worst_slack": float(worst_slack / scale),
            "worst_beta": list(worst_beta),
            "violations": len(failures),
        },
        samples={"indices_checked": checked},
        tolerance=0.0,
        notes=f"exact rational check for all |beta| <= {n_check}"
        + (f"; first violation at {failures[0]}" if failures else ""),
    )


def naive_worst(cert: BoundCertificate, n_check: int) -> Tuple[Fraction, tuple]:
    """Least true slack over |beta| <= n_check, and the first index to reach
    it in ``mi.iter_up_to_degree`` order: every gamma of the star sum
    enumerated with ``itertools.product``, all arithmetic in Fractions."""
    k, a0, A, r, R = cert.k, cert.a0, cert.A, cert.r, cert.R

    def R_pow(gamma):
        out = Fraction(1)
        for ri, g in zip(R, gamma):
            out *= ri**g
        return out

    worst = None
    for beta in mi.iter_up_to_degree(cert.n, n_check):
        db = sum(beta)
        bounds = (beta[0] + k,) + beta[1:]
        star = sum(
            (R_pow(gamma) * r ** (db + k - sum(gamma))
             for gamma in itertools.product(*(range(b + 1) for b in bounds))
             if sum(gamma) <= db and gamma != beta),
            Fraction(0),
        )
        slack = A * R_pow(beta) - a0 * r ** (db + k) - a0 * A * star
        if worst is None or slack < worst[0]:
            worst = (slack, beta)
    return worst


def naive_slack(cert: BoundCertificate, beta: tuple) -> Fraction:
    """The true slack of one index, its star sum enumerated as in
    ``naive_worst``."""
    k, R, r = cert.k, cert.R, cert.r

    def R_pow(gamma):
        out = Fraction(1)
        for ri, g in zip(R, gamma):
            out *= ri**g
        return out

    db = sum(beta)
    bounds = (beta[0] + k,) + beta[1:]
    star = sum(
        (R_pow(gamma) * r ** (db + k - sum(gamma))
         for gamma in itertools.product(*(range(b + 1) for b in bounds))
         if sum(gamma) <= db and gamma != beta),
        Fraction(0),
    )
    return cert.A * R_pow(beta) - cert.a0 * r ** (db + k) - cert.a0 * cert.A * star


def same_verdict(a: VerificationReport, b: VerificationReport) -> bool:
    """Everything but the worst index, which the per-beta loop chose by the
    slack scaled by d^(|beta|+k) instead of the true slack."""
    return (a.passed, a.extremes["violations"], a.samples, a.notes) == (
        b.passed, b.extremes["violations"], b.samples, b.notes
    )


def fractions(lo: int = 1, hi: int = 9):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, hi))


@st.composite
def constructed(draw):
    """``bound_certificate`` inputs (n 2-5, k 0-3) and a check degree 0-12."""
    n = draw(st.integers(2, 5))
    cert = bound_certificate(
        draw(fractions()), draw(fractions()), draw(fractions(1, 4)),
        draw(st.integers(0, 3)), n,
    )
    return cert, draw(st.integers(0, 12))


@st.composite
def built(draw):
    """Certificates built directly, most of them failing the inequality."""
    n = draw(st.integers(2, 4))
    cert = BoundCertificate(
        a0=draw(fractions()), r=draw(fractions()), k=draw(st.integers(0, 3)), n=n,
        A=draw(fractions(1, 30)), R=tuple(draw(fractions(1, 30)) for _ in range(n)),
    )
    return cert, draw(st.integers(0, 8))


@st.composite
def pooled(draw):
    """Certificates whose radii come from a pool of one or two values, so
    that equal radii form classes of indices (n 2-5, k 0-3): built
    directly, or with a constructed certificate's radii as the pool."""
    n, k = draw(st.integers(2, 5)), draw(st.integers(0, 3))
    if draw(st.booleans()):
        base = bound_certificate(
            draw(fractions()), draw(fractions()), draw(fractions(1, 4)), k, n
        )
        a0, r, A, pool = base.a0, base.r, base.A, [base.R[0], base.R[1]]
    else:
        a0, r, A = draw(fractions()), draw(fractions()), draw(fractions(1, 30))
        pool = draw(st.lists(fractions(1, 30), min_size=1, max_size=2))
    R = tuple(draw(st.sampled_from(pool)) for _ in range(n))
    cert = BoundCertificate(a0=a0, r=r, k=k, n=n, A=A, R=R)
    return cert, draw(st.integers(0, 9 - n))


class TestConstruction:
    def test_reference_case(self):
        cert = bound_certificate(1, 1, 1, 1, 2)
        assert cert.A == 2
        assert cert.R == (Fraction(8), Fraction(64))
        assert cert.is_well_formed()

    def test_radii_ordering(self):
        cert = bound_certificate(10, Fraction(1, 2), 2, 3, 4)
        assert cert.r < cert.R[0]
        assert all(cert.R[0] < ri for ri in cert.R[1:])

    def test_polydisc(self):
        cert = bound_certificate(1, 1, 1, 0, 2)
        assert cert.polydisc == tuple(1 / ri for ri in cert.R)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bound_certificate(0, 1, 1, 0, 2)
        with pytest.raises(ValueError):
            bound_certificate(1, 1, 1, -1, 2)
        with pytest.raises(ValueError):
            bound_certificate(1, 1, 1, 0, 1)

    def test_dataclass_validation(self):
        with pytest.raises(ValueError):
            BoundCertificate(a0=Fraction(1), r=Fraction(1), k=0, n=2,
                             A=Fraction(-1), R=(Fraction(2), Fraction(4)))
        with pytest.raises(ValueError):
            BoundCertificate(a0=Fraction(1), r=Fraction(1), k=0, n=3,
                             A=Fraction(1), R=(Fraction(2), Fraction(4)))


class TestVerification:
    @pytest.mark.parametrize("a,c,r,k,n", [
        (1, 1, 1, 0, 2),
        (10, Fraction(1, 2), 2, 3, 3),
        (1, 1, Fraction(1, 2), 2, 4),
    ])
    def test_constructed_certificates_pass(self, a, c, r, k, n):
        cert = bound_certificate(a, c, r, k, n)
        report = verify_certificate(cert, n_check=8)
        assert report.passed
        assert report.extremes["violations"] == 0
        assert report.extremes["worst_slack"] >= 0

    def test_broken_certificate_fails_at_zero(self):
        # A below a0 * r^k cannot bound even the beta = 0 coefficient
        cert = BoundCertificate(
            a0=Fraction(1), r=Fraction(1), k=0, n=2,
            A=Fraction(1, 10), R=(Fraction(2), Fraction(4)),
        )
        assert not cert.is_well_formed()
        report = verify_certificate(cert, n_check=4)
        assert not report.passed
        assert "violation at (0, 0)" in report.notes

    def test_too_small_radii_fail(self):
        # valid A but radii equal to r: the star sum overwhelms the bound
        cert = BoundCertificate(
            a0=Fraction(1), r=Fraction(1), k=1, n=2,
            A=Fraction(2), R=(Fraction(1), Fraction(1)),
        )
        report = verify_certificate(cert, n_check=6)
        assert not report.passed


class TestSweepAgainstOracle:
    """The prefix-shared sweep reaches the per-beta loop's verdict, and its
    worst index is the true minimum of the naive enumeration."""

    @SETTINGS
    @given(constructed())
    def test_constructed(self, case):
        cert, n_check = case
        assert same_verdict(
            verify_certificate(cert, n_check), per_beta_oracle(cert, n_check)
        )

    @SETTINGS
    @given(built())
    def test_built(self, case):
        cert, n_check = case
        assert same_verdict(
            verify_certificate(cert, n_check), per_beta_oracle(cert, n_check)
        )

    @SETTINGS
    @given(st.one_of(constructed(), built()), st.integers(0, 5))
    def test_worst_is_true_minimum(self, case, n_check):
        cert = case[0]
        report = verify_certificate(cert, n_check)
        slack, beta = naive_worst(cert, n_check)
        assert report.extremes["worst_slack"] == float(slack)
        assert report.extremes["worst_beta"] == list(beta)

    def test_worst_compared_across_degrees(self):
        # d = 3: the slack scaled by d^|beta| is least at (0, 0, 0), the
        # true slack at (8, 0, 0)
        cert = BoundCertificate(
            a0=Fraction(1, 100), r=Fraction(1, 3), k=0, n=3,
            A=Fraction(1, 20), R=(Fraction(2, 3), Fraction(4, 3), Fraction(4, 3)),
        )
        report = verify_certificate(cert, 8)
        slack, beta = naive_worst(cert, 8)
        assert report.extremes["worst_beta"] == list(beta) != [0, 0, 0]
        assert report.extremes["worst_slack"] == float(slack)
        assert per_beta_oracle(cert, 8).extremes["worst_beta"] == [0, 0, 0]

    def test_built_failing_cases_occur(self):
        cert = BoundCertificate(
            a0=Fraction(1), r=Fraction(1), k=2, n=3,
            A=Fraction(3), R=(Fraction(2), Fraction(3), Fraction(5, 2)),
        )
        report = verify_certificate(cert, 6)
        assert not report.passed and report.extremes["violations"] > 1
        assert same_verdict(report, per_beta_oracle(cert, 6))
        slack, beta = naive_worst(cert, 6)
        assert report.extremes["worst_beta"] == list(beta)

    def test_degree_zero(self):
        cert = bound_certificate(1, 1, 1, 3, 4)
        report = verify_certificate(cert, 0)
        assert report.samples["indices_checked"] == 1
        assert report.to_dict() == per_beta_oracle(cert, 0).to_dict()

    def test_indices_checked(self):
        cert = bound_certificate(1, 1, 1, 1, 4)
        assert verify_certificate(cert, 16).samples["indices_checked"] == 4845


class TestMeasureGrowth:
    def test_values(self):
        u = TruncatedSeries(2, (0, 0), 3, {(0, 0): 3, (2, 1): Fraction(-5, 2)})
        v = TruncatedSeries(2, (0, 0), 3, {(1, 0): Fraction(1, 2)})
        a, c, r, k = measure_growth(u, v, r=1)
        assert (a, c, r, k) == (Fraction(3), Fraction(1, 2), Fraction(1), 1)

    def test_radius_scaling(self):
        u = TruncatedSeries(2, (0, 0), 2, {(0, 2): 8})
        v = TruncatedSeries(2, (0, 0), 2, {(0, 0): 1})
        a, _, _, _ = measure_growth(u, v, r=2)
        assert a == 2  # 8 / 2^2

    def test_requires_normalized_divisor(self):
        u = TruncatedSeries(2, (0, 0), 3, {(0, 0): 1})
        v = TruncatedSeries(2, (0, 0), 3, {(1, 1): 1})  # pivot (2,0) missing
        with pytest.raises(ValueError):
            measure_growth(u, v)


class TestCoefficientBound:
    def _ratio_and_cert(self, degree=6):
        u = catalog_get("expsin").taylor((0, 0), degree + 1)
        v = catalog_get("coshsin").taylor((0, 0), degree + 1)
        f = series_ratio(u, v, degree).quotient
        a, c, r, k = measure_growth(u, v)
        return f, bound_certificate(a, c, r, k, n=2)

    def test_measured_pipeline_passes(self):
        f, cert = self._ratio_and_cert()
        report = coefficient_bound_check(f, cert)
        assert report.passed
        assert report.extremes["worst_ratio"] <= 1.0
        assert report.samples["coefficients_checked"] == 28  # |beta| <= 6 in 2D

    def test_adversarial_coefficient_fails(self):
        f, cert = self._ratio_and_cert()
        beta = (1, 1)
        bound = cert.A * cert.R[0] * cert.R[1]
        bad = dict(f.coefficients)
        bad[beta] = bound + 1
        f_bad = TruncatedSeries(f.dim, f.center, f.max_degree, bad)
        report = coefficient_bound_check(f_bad, cert)
        assert not report.passed
        assert report.extremes["violations"] == 1


class TestClassSweep:
    """Indices that differ by a permutation of coordinates of equal radius
    and shift are checked once; the reports are the full enumeration's."""

    @SETTINGS
    @given(pooled())
    def test_pooled(self, case):
        cert, n_check = case
        assert same_verdict(
            verify_certificate(cert, n_check), per_beta_oracle(cert, n_check)
        )

    @SETTINGS
    @given(pooled(), st.integers(0, 4))
    def test_pooled_worst_is_true_minimum(self, case, n_check):
        cert = case[0]
        report = verify_certificate(cert, n_check)
        slack, beta = naive_worst(cert, n_check)
        assert report.extremes["worst_slack"] == float(slack)
        assert report.extremes["worst_beta"] == list(beta)

    @pytest.mark.parametrize("kind", [
        "equal tail radii", "R0 equal to a tail radius, k = 0",
        "R0 equal to a tail radius, k > 0", "failing",
    ])
    def test_pooled_reaches(self, kind):
        def wanted(case):
            cert, n_check = case
            tail = set(cert.R[1:])
            if kind == "equal tail radii":
                return cert.n > 2 and len(tail) == 1
            if kind == "failing":
                return not verify_certificate(cert, n_check).passed
            return cert.R[0] in tail and (cert.k == 0) == kind.endswith("k = 0")

        # generation alone: a found case need not be shrunk
        find(pooled(), wanted, settings=settings(
            database=None, max_examples=500, phases=[Phase.generate]
        ))

    def test_violations_count_indices_not_classes(self):
        # R1 = R2 = R3: 185 of the 210 indices of |beta| <= 6 fail, in 51
        # classes of (beta_0, sorted tail); the first, (1, 1, 0, 0), is
        # the least of its class (1, 0, 1, 0), (1, 0, 0, 1) in graded order
        cert = BoundCertificate(
            a0=Fraction(1), r=Fraction(1), k=1, n=4,
            A=Fraction(3), R=(Fraction(2), Fraction(5), Fraction(5), Fraction(5)),
        )
        report, oracle = verify_certificate(cert, 6), per_beta_oracle(cert, 6)
        assert same_verdict(report, oracle)
        failing = [
            beta for beta in mi.iter_up_to_degree(4, 6)
            if naive_slack(cert, beta) < 0
        ]
        classes = {(beta[0],) + tuple(sorted(beta[1:])) for beta in failing}
        assert report.extremes["violations"] == len(failing) > len(classes)
        assert report.notes.endswith(f"first violation at {failing[0]}")

    def test_indices_checked_at_six_coordinates(self):
        cert = bound_certificate(1, 1, 1, 1, 6)
        assert verify_certificate(cert, 16).samples["indices_checked"] == 74613
