"""The ratio of two harmonic functions sharing a nodal set is analytic.

e^y sin x and cosh y sin x both vanish exactly on the vertical lines
x = m pi.  Their ratio extends across that common zero set to the analytic
function e^y / cosh y = 1 + tanh y.  The coefficient recursion recovers the
tanh expansion exactly, in rational arithmetic, and then verifies the full
product residual u - v*f = 0 through the requested degree.
"""

from harmonic_ratios import catalog_get, series_ratio

N = 8
u = catalog_get("expsin").taylor((0, 0), N + 1)
v = catalog_get("coshsin").taylor((0, 0), N + 1)

out = series_ratio(u, v, N)
print(f"f = u/v to total degree {N}, residual verified: {out.residual_verified}")
print()
print("nonzero coefficients (all on the pure-y axis):")
for alpha, c in out.quotient.sorted_terms():
    print(f"  f_{alpha} = {c}")
print()
print("compare with tanh y = y - y^3/3 + 2 y^5/15 - 17 y^7/315 + ...")
