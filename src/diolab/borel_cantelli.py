"""Second-moment lower bounds for unions of events and quasi-independence diagnostics.

The central quantity is the divergence-type lower bound

    (sum_{s<=Q} mu(E_s))**2 / sum_{s,t<=Q} mu(E_s intersect E_t)

which never exceeds the measure of the union at the same truncation
(Cauchy-Schwarz), so it doubles as a checkable certificate against exact
union measures.  The limsup over Q is reported as a running maximum over a
geometric checkpoint grid (ratio 2 by default); the grid is a computable
stand-in, configurable by the caller.

Pair measures are a full (Q, Q) matrix from interval geometry (1-D), pair
sums per truncation from Monte Carlo per-sample depths (the integral of
N_Q(x)**2, N_Q(x) = #{s <= Q : x in E_s}), or the independence model
mu(E_s) * mu(E_t).  The independence model uses the accumulator identity
sum_{s,t} = S1 + S1**2 - S2  (S1 = sum mu, S2 = sum mu**2) instead of the
literal double loop; the two are cross-checked by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UndefinedBoundError, UndefinedRatioError
from .measure import MeasureEstimate
from .psi import ApproxFunction, _checkpoints

__all__ = [
    "EventStats",
    "bc_lower_bound",
    "bc_scan",
    "quasi_independence_ratio",
]

INDEPENDENT = "independence"


@dataclass(frozen=True)
class EventStats:
    """Per-event measures plus a pair-measure source.

    ``pairs`` is "independence", a (Q, Q) matrix of intersection measures, or a
    (Q,) array of pair sums P[Q - 1] = sum_{s,t <= Q} mu(E_s intersect E_t).
    It may hold no events, as an empty support does.
    """

    singles: np.ndarray
    pairs: object = INDEPENDENT

    def __post_init__(self):
        singles = np.asarray(self.singles, dtype=np.float64)
        object.__setattr__(self, "singles", singles)
        if singles.ndim != 1:
            raise ValueError("singles must be a 1-D array")
        if singles.size and (singles.min() < 0.0 or singles.max() > 1.0 + 1e-12):
            raise ValueError("event measures must lie in [0, 1]")
        if isinstance(self.pairs, np.ndarray):
            if self.pairs.shape not in ((singles.size,), (singles.size, singles.size)):
                raise ValueError("pair sums or pair matrix shape must match singles")
        elif self.pairs != INDEPENDENT:
            raise ValueError("pairs must be 'independence' or a matrix or pair sums")

    @property
    def q_max(self) -> int:
        return self.singles.size

    def pair_sum(self, Q: int) -> float:
        """sum_{s,t <= Q} mu(E_s intersect E_t)."""
        if not 1 <= Q <= self.q_max:
            raise ValueError(f"Q={Q} outside [1, {self.q_max}]")
        if isinstance(self.pairs, np.ndarray):
            return float(self.pairs[Q - 1] if self.pairs.ndim == 1 else np.sum(self.pairs[:Q, :Q]))
        mu = self.singles[:Q]
        s1 = float(np.sum(mu))
        s2 = float(np.sum(mu * mu))
        return s1 + s1 * s1 - s2


def bc_lower_bound(stats: EventStats, Q: int) -> float:
    """(sum of singles)**2 over the pair sum, truncated at Q."""
    denom = stats.pair_sum(Q)
    if denom == 0.0:
        raise UndefinedBoundError(f"pair sum is zero at Q={Q}")
    num = float(np.sum(stats.singles[:Q]))
    return num * num / denom


def bc_scan(stats: EventStats, grid: Sequence[int]) -> tuple[list[tuple[int, float]], float]:
    """Bound at each checkpoint plus the running maximum (limsup proxy)."""
    points = [(Q, bc_lower_bound(stats, Q)) for Q in _checkpoints(grid)]
    return points, max(b for _, b in points)


def quasi_independence_ratio(
    q: int,
    r: int,
    f: ApproxFunction,
    n: int,
    intersection: MeasureEstimate | float,
) -> float:
    """Intersection measure over psi(q) log(q)**(n-1) * psi(r) log(r)**(n-1).

    A uniform band of these ratios across pairs is the empirical face of
    pairwise quasi-independence on average.
    """
    if q == r:
        raise ValueError("quasi-independence ratio needs q != r")
    if n >= 2 and min(q, r) < 2:
        raise ValueError("need q, r >= 2 when n >= 2 (log weight vanishes)")
    psi_q, psi_r = f(q), f(r)
    if psi_q <= 0.0 or psi_r <= 0.0:
        raise UndefinedRatioError("psi must be positive at q and r")
    denom = psi_q * math.log(q) ** (n - 1) * psi_r * math.log(r) ** (n - 1)
    if denom == 0.0:
        raise UndefinedRatioError("zero denominator in quasi-independence ratio")
    value = intersection.value if isinstance(intersection, MeasureEstimate) else float(intersection)
    return value / denom
