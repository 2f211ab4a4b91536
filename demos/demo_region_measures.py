"""
Measures of product-form approximation domains
==============================================

A tour of the exact machinery: one-dimensional slice measures, the closed
form for products of plain distances, and the piecewise law of the
coprime distance.
"""

import math

import numpy as np

from diolab import (
    RegionSpec,
    coprime_dist_cdf,
    product_region_measure_coprime,
    product_region_measure_plain,
    region_measure_1d,
    sample_points,
    slice_union,
)

# A 1-D slice {x : ||q x|| < delta} has measure min(1, 2 delta) no matter
# what q is; the coprime variant scales by phi(q)/q while the intervals
# around coprime fractions stay disjoint.
print("plain slice,   q=5,  delta=0.1 ->", region_measure_1d(RegionSpec(5, 1, 0.1)).value)
print("coprime slice, q=12, delta=0.1 ->", region_measure_1d(RegionSpec(12, 1, 0.1, coprime=True)).value)
print("same thing by explicit interval sweep ->", slice_union(12, 0.1, coprime=True).measure)

# In higher dimension the product of plain distances has a closed-form law:
# each ||q x_i|| is uniform on [0, 1/2], so the product law is the Gamma-type
# formula F_n(2^n delta).  At n=2, delta=1/8 the value is (1/2)(1 + log 2).
m2 = product_region_measure_plain(2, 1 / 8)
print("\nplain product, n=2, delta=1/8 ->", m2.value, f"({m2.provenance})")
print("analytic (1/2)(1+log 2)       ->", 0.5 * (1 + math.log(2)))

# The value does not depend on q.  Check q=360 by simulation:
xs = sample_points(42, 0, 200_000, 2)
d = np.minimum((360 * xs) % 1.0, 1.0 - (360 * xs) % 1.0)
print("q=360 Monte Carlo             ->", np.mean(d[:, 0] * d[:, 1] < 1 / 8))

# The coprime distance ||q x||' is NOT capped at 1/2: its law is piecewise
# linear with breakpoints at half the cyclic gaps between coprime residues.
cdf = coprime_dist_cdf(12)
print("\ncoprime distance law for q=12 (radical 6):")
print("  breakpoints:", cdf.breakpoints)
print("  values:     ", [round(v, 6) for v in cdf.values])
print("  P(dist < 1/2) = phi(12)/12 =", cdf(0.5))

# Products of coprime distances need a convolution over that law; n=2 is
# one closed form at every delta, a mixture over pairs of coprime gaps,
# and n>=3 is adaptive quadrature down to it.
for q in (12, 360, 2310):
    est = product_region_measure_coprime(q, 2, 1e-3)
    print(f"coprime product, q={q}, n=2, delta=1e-3 -> {est.value:.8f} (+-{est.error_bound:.1e})")
