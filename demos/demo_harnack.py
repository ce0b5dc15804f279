"""Harnack-type measurements for the ratio of a shared-zero pair.

On a compact set, the ratio f = u/v of two harmonic functions with the same
nodal set is continuous and bounded away from its zeros, so sup|f| / inf|f|
is finite.  For (e^y sin x, cosh y sin x) on [-1, 1]^2 the ratio is
e^y / cosh y, whose extremes sit at y = +-1, giving C* = e^2 exactly.
The same machinery confirms the maximum principle on random sub-disks.
"""

import numpy as np

from harmonic_ratios import (
    RatioEvaluator,
    Region,
    harnack_constant,
    max_principle_check,
    shared_pair,
)

pair = shared_pair("expsin", "coshsin")
ev = RatioEvaluator.for_pair(pair)
box = Region.box((-1, -1), (1, 1))

rep = harnack_constant(ev, box, samples=10**6)
print(rep.summary())
print(f"C* = {rep.extremes['C_star']:.9f}, e^2 = {np.e**2:.9f}")
print()

rng = np.random.default_rng(1)
for i in range(3):
    center = rng.uniform(-1.5, 1.5, size=2)
    radius = rng.uniform(0.1, 0.5)
    mp = max_principle_check(ev, Region.ball(center, radius),
                             boundary_samples=256, interior_samples=256)
    print(f"disk at ({center[0]:+.2f}, {center[1]:+.2f}) r={radius:.2f}: "
          f"{mp.summary()}")
