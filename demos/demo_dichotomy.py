"""
Zero-one dichotomy scans
========================

Truncated limsup-set measures trend to 0 or 1 depending on which side of
the divergence criterion the family sits.  Tail unions (Q0 well above 1)
are the honest display: the first few slices are huge and mask everything.
"""

from diolab import (
    ExperimentConfig,
    SumCriterion,
    estimate_union_measure,
    power_log,
)

# psi(q) = 1/(4q): the log-weighted sum at n=2 diverges, so the limsup set
# should be full.  Watch the tail union over [100, 2000] climb.
divergent = power_log(0.25, 1.0, 0.0)
print("divergence metadata:", divergent.divergence(SumCriterion("log_weighted", 2)))
cfg = ExperimentConfig(
    family=divergent, n=2, mode="product", coprime=True,
    Q0=100, Q=2000, samples=4000, seed=1,
)
for q, est in estimate_union_measure(cfg):
    print(f"  Q={q:5d}  union ~ {est.value:.4f}  ci [{est.ci_low:.4f}, {est.ci_high:.4f}]")

# psi(q) = 1/(q log(q+1)^4) converges even with the log weight; the same
# tail union stays near zero.
convergent = power_log(1.0, 1.0, 4.0)
print("\ndivergence metadata:", convergent.divergence(SumCriterion("log_weighted", 2)))
cfg = ExperimentConfig(
    family=convergent, n=2, mode="product", coprime=True,
    Q0=1000, Q=4000, samples=4000, seed=2,
)
for q, est in estimate_union_measure(cfg):
    print(f"  Q={q:5d}  union ~ {est.value:.4f}  ci [{est.ci_low:.4f}, {est.ci_high:.4f}]")

# The limsup-ratio "condition" scan behind the dichotomy: for psi = 1 the
# ratio of the phi-weighted to the unweighted log sums settles near
# 6/pi^2 = 0.6079, comfortably positive.
from diolab import cond1_scan

points, running = cond1_scan(power_log(1, 0, 0), 1, [10, 100, 1000, 10_000, 100_000])
print("\ncondition-ratio scan for psi = 1 (n = 1):")
for q, r in points:
    print(f"  Q={q:6d}  ratio {r:.6f}")
print("running max (limsup proxy):", round(running, 6))
