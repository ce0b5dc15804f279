"""Certified geometric bounds on ratio coefficients.

From measured growth of the input coefficients (|u_alpha|, |v_alpha| bounded
by a r^|alpha|, pivot coefficient c, vanishing order k) the construction
produces A and radii R with |f_beta| <= A R^beta, which pins down a polydisc
of guaranteed convergence for the ratio series.  The verifier then re-checks
the inequality for every index in exact arithmetic, one index per class of
indices that differ by a permutation of equal radii; it shares no algebra
with the construction.
"""

from harmonic_ratios import (
    bound_certificate,
    catalog_get,
    coefficient_bound_check,
    measure_growth,
    series_ratio,
    verify_certificate,
)

N = 10
u = catalog_get("expsin").taylor((0, 0), N + 1)
v = catalog_get("coshsin").taylor((0, 0), N + 1)

a, c, r, k = measure_growth(u, v)
print(f"measured growth: a = {a}, c = {c}, r = {r}, k = {k}")

cert = bound_certificate(a, c, r, k, n=2)
print(f"certificate: A = {cert.A}, R = {tuple(map(str, cert.R))}")
print("convergence polydisc radii:", tuple(map(str, cert.polydisc)))
print()

rep = verify_certificate(cert, n_check=12)
print(rep.summary())

f = series_ratio(u, v, N).quotient
rep2 = coefficient_bound_check(f, cert)
print(rep2.summary())
print("worst |f_beta| / (A R^beta):", rep2.extremes["worst_ratio"])
