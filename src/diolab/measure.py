"""Measure values with provenance and confidence intervals.

Monte Carlo hit fractions get a normal-approximation interval in the bulk and
exact Clopper-Pearson bounds when hits (or misses) are scarce.  The exact
bounds are quantiles of beta distributions, computed as the inverse
regularized incomplete beta function ``scipy.special.betaincinv``; the normal
quantile is ``scipy.special.ndtri``.  Both come from ``scipy.special`` so that
importing diolab does not load ``scipy.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import betaincinv, ndtri

__all__ = ["MeasureEstimate", "binomial_ci"]

# below this many hits the normal approximation is replaced by exact
# Clopper-Pearson bounds (rare-hit tail experiments)
EXACT_CI_HITS = 30


def binomial_ci(hits: int, samples: int, confidence: float = 0.95) -> tuple[float, float]:
    """Confidence interval for a hit fraction.

    Normal approximation in the bulk; exact Clopper-Pearson bounds when either
    tail has fewer than EXACT_CI_HITS observations.  ``confidence`` must lie
    strictly between 0 and 1.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0 <= hits <= samples:
        raise ValueError("hits outside [0, samples]")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence {confidence!r} outside (0, 1)")
    p = hits / samples
    alpha = 1.0 - confidence
    if min(hits, samples - hits) < EXACT_CI_HITS:
        lo = 0.0 if hits == 0 else float(betaincinv(hits, samples - hits + 1, alpha / 2))
        hi = 1.0 if hits == samples else float(betaincinv(hits + 1, samples - hits, 1 - alpha / 2))
        return lo, hi
    z = 1.959963984540054  # two-sided 95% normal quantile
    if confidence != 0.95:
        z = float(ndtri(1 - alpha / 2))
    half = z * math.sqrt(p * (1.0 - p) / samples)
    return max(0.0, p - half), min(1.0, p + half)


@dataclass(frozen=True)
class MeasureEstimate:
    """A measure in [0, 1] tagged with how it was obtained.

    provenance is one of:

    * ``"exact"``        - rational/interval arithmetic, no numeric error
    * ``"closed-form"``  - evaluated formula (float rounding only)
    * ``"numeric-exact"``- quadrature with a tracked absolute error bound
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
        confidence: float = 0.95,
    ) -> "MeasureEstimate":
        lo, hi = binomial_ci(hits, samples, confidence)
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
