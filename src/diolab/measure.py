"""Measure values with provenance and confidence intervals.

Monte Carlo hit fractions get exact Clopper-Pearson bounds when hits (or
misses) are scarce or samples are few, and the Wilson score interval with
continuity correction otherwise.  A Clopper-Pearson bound is the p at which a
binomial tail reaches alpha/2: the lower tail, k + 1 terms, for the upper
bound, and the upper tail, summed from its first term, for the lower bound.
Neither tail is taken as one minus a sum, so both bounds stay accurate at any
confidence.  Each is a bisection on the float bits of p, so neither an
incomplete beta function nor scipy is needed.  The misses side mirrors the
hits side.

Wilson from 30 hits can be narrower than Clopper-Pearson at 29, for up to 113
samples at confidences above about 1 - 2.5e-5.  Below ``EXACT_CI_SAMPLES``
every count is therefore exact, and both bounds are non-decreasing in hits
across the whole range, the switch included.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from statistics import NormalDist

__all__ = ["MeasureEstimate", "binomial_ci"]

# below this many hits (or misses), or this many samples, the Wilson interval
# is replaced by exact Clopper-Pearson bounds (rare-hit tail experiments)
EXACT_CI_HITS = 30
EXACT_CI_SAMPLES = 4 * EXACT_CI_HITS

_FLOAT_BITS = struct.Struct("<d")
_INT_BITS = struct.Struct("<q")


def _float(bits: int) -> float:
    return _FLOAT_BITS.unpack(_INT_BITS.pack(bits))[0]


def _first_true(pred) -> float:
    """Smallest float p in (0, 1] with pred(p), for a pred false then true on [0, 1].

    Non-negative floats are ordered like their bit patterns, so bisecting the
    integers between 0.0 and 1.0 pins p in about 62 steps.
    """
    lo, hi = 0, _INT_BITS.unpack(_FLOAT_BITS.pack(1.0))[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(_float(mid)):
            hi = mid
        else:
            lo = mid
    return _float(hi)


def _upper_bound(k: int, n: int, half_alpha: float) -> float:
    """Clopper-Pearson upper bound for k < n hits: where P(X <= k) falls to half_alpha.

    The k + 1 terms t_i of the tail are summed by Horner's rule from the last,
    t_k * (1 + u_k * (1 + ... (1 + u_1))) with t_{i-1} / t_i = u_i =
    i / (n - i + 1) * (1 - p) / p.  The sum overflows only where t_0 dominates
    and the tail is 1, far above half_alpha.
    """
    log_comb = math.log(math.comb(n, k))
    ratios = [i / (n - i + 1) for i in range(1, k + 1)]

    def at_most_target(p: float) -> bool:
        odds, s = (1.0 - p) / p, 1.0
        for u in ratios:
            s = 1.0 + u * odds * s
        return math.exp(log_comb + k * math.log(p) + (n - k) * math.log1p(-p) + math.log(s)) <= half_alpha

    return _first_true(at_most_target)


def _lower_bound(k: int, n: int, half_alpha: float) -> float:
    """Clopper-Pearson lower bound for k > 0 hits: where P(X >= k) rises to half_alpha.

    Once p >= k/n the median is at least k and the tail is at least 1/2.
    Below that the terms fall from t_k, and the ratio r = t_{i+1} / t_i is
    below k/(k+1) and shrinks with i, so the terms from t_{i+1} on sum to at
    most t_{i+1} / (1 - r).  They are summed from t_k until the sum passes
    half_alpha, or that bound on the rest cannot lift it there, or it stops
    moving.
    """
    log_comb = math.log(math.comb(n, k))

    def above_target(p: float) -> bool:
        if p * n >= k:
            return True
        odds = p / (1.0 - p)
        term = total = math.exp(log_comb + k * math.log(p) + (n - k) * math.log1p(-p))
        for i in range(k, n):
            if total > half_alpha:
                return True
            ratio = (n - i) / (i + 1) * odds
            term *= ratio
            if total + term / (1.0 - ratio) <= half_alpha or total + term == total:
                return False
            total += term
        return total > half_alpha

    return _first_true(above_target)


def binomial_ci(hits: int, samples: int, confidence: float = 0.95) -> tuple[float, float]:
    """Confidence interval for a hit fraction.

    Exact Clopper-Pearson bounds when either tail has fewer than
    EXACT_CI_HITS observations or there are fewer than EXACT_CI_SAMPLES
    samples; Wilson with continuity correction (Newcombe 1998, method 4)
    otherwise.  ``confidence`` must lie strictly between 0 and 1.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0 <= hits <= samples:
        raise ValueError("hits outside [0, samples]")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence {confidence!r} outside (0, 1)")
    half_alpha = (1.0 - confidence) / 2
    n, misses = samples, samples - hits
    if min(hits, misses) < EXACT_CI_HITS or n < EXACT_CI_SAMPLES:
        k = min(hits, misses)  # the misses side mirrors the hits side
        lo = 0.0 if k == 0 else _lower_bound(k, n, half_alpha)
        hi = _upper_bound(k, n, half_alpha)
        return (lo, hi) if k == hits else (1.0 - hi, 1.0 - lo)
    z = -NormalDist().inv_cdf(half_alpha)
    zz = z * z
    lo = (2 * hits + zz - 1 - z * math.sqrt(zz - 2 - 1 / n + 4 * hits * (misses + 1) / n)) / (2 * (n + zz))
    hi = (2 * hits + zz + 1 + z * math.sqrt(zz + 2 - 1 / n + 4 * hits * (misses - 1) / n)) / (2 * (n + zz))
    return max(0.0, lo), min(1.0, hi)


@dataclass(frozen=True)
class MeasureEstimate:
    """A measure in [0, 1] tagged with how it was obtained.

    provenance is one of:

    * ``"exact"``        - rational/interval arithmetic, no numeric error
    * ``"closed-form"``  - evaluated formula (float rounding only)
    * ``"numeric-exact"``- float evaluation with an absolute error bound:
      a rounding bound derived from the float operations (the n = 2
      coprime law), or a quadrature error bound (n >= 3)
    * ``"monte-carlo"``  - sampled hit fraction with a confidence interval
    """

    value: float
    provenance: str
    error_bound: float | None = None
    samples: int | None = None
    hits: int | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    seed: int | None = None
    generator: str | None = None

    _PROVENANCES = ("exact", "closed-form", "numeric-exact", "monte-carlo")

    def __post_init__(self):
        if self.provenance not in self._PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if not -1e-12 <= self.value <= 1.0 + 1e-12:
            raise ValueError(f"measure value {self.value} outside [0, 1]")
        object.__setattr__(self, "value", min(1.0, max(0.0, self.value)))
        if self.provenance == "monte-carlo":
            if self.ci_low is None or self.ci_high is None:
                raise ValueError("monte-carlo estimates need a confidence interval")
            if not self.ci_low <= self.value + 1e-15 or not self.value <= self.ci_high + 1e-15:
                raise ValueError("confidence interval must contain the estimate")

    @classmethod
    def exact(cls, value: float) -> "MeasureEstimate":
        return cls(value=float(value), provenance="exact")

    @classmethod
    def closed_form(cls, value: float) -> "MeasureEstimate":
        return cls(value=float(value), provenance="closed-form")

    @classmethod
    def numeric(cls, value: float, error_bound: float) -> "MeasureEstimate":
        return cls(value=float(value), provenance="numeric-exact", error_bound=float(error_bound))

    @classmethod
    def monte_carlo(
        cls,
        hits: int,
        samples: int,
        seed: int,
        generator: str,
    ) -> "MeasureEstimate":
        """Hit fraction with its 95% ``binomial_ci``."""
        lo, hi = binomial_ci(hits, samples)
        return cls(
            value=hits / samples,
            provenance="monte-carlo",
            samples=samples,
            hits=hits,
            ci_low=lo,
            ci_high=hi,
            seed=seed,
            generator=generator,
        )

    @property
    def ci_width(self) -> float:
        if self.ci_low is None or self.ci_high is None:
            return 0.0
        return self.ci_high - self.ci_low
