"""Exact and closed-form measures of product and max approximation domains.

Geometry conventions
--------------------
A q-slice in dimension n is the set of x in [0,1]^n with

* product mode:  prod_i dist_i < delta
* max mode:      (max_i dist_i)**n < delta

where dist_i is ``||q x_i||`` (plain) or ``||q x_i||'`` (coprime) and
delta = psi(q).  Membership of the hyperbolic region around rational points
p/q is equivalent to the product condition because the per-coordinate
minimization over (coprime) numerators is exact; a unit test pins this down
on explicit small cases.

Closed forms used here
----------------------
* For x uniform on [0,1], ``||q x||`` is uniform on [0, 1/2] for every q, so
  with V_i = 2 dist_i i.i.d. uniform on [0,1],

      |{prod dist_i < delta}| = P(prod V_i < 2**n delta) = F_n(2**n delta),
      F_n(t) = t * sum_{k=0}^{n-1} log(1/t)**k / k!   (0 < t <= 1).

  (log of a uniform is exponential; the product has a Gamma(n) log-law.)
  This formula is validated against the Monte Carlo sampler by the test
  suite before anything downstream trusts it, and its q-independence is a
  tested property, not an assumption.

* The law of ``||q x||'`` is piecewise linear and depends only on the
  radical of q: between consecutive coprime fractions with cyclic gap g (in
  units of 1/q), the distance sweeps a tent of height g/2, so

      P(||q x||' < t) = (1/q) * sum_over_gaps min(2t, g),

  which equals 2t * phi(q)/q for t <= 1/2 and reaches 1 at g_max/2.  Every
  n = 1 coprime entry returns it at the rational delta, rounded once.

* The same law is a mixture: with r = rad(q) and c_g gaps of length g,
  the distance is uniform on [0, g/2] with probability c_g g/r.  A product
  of uniforms on [0, a] and [0, b] lies below delta with probability
  F_2(delta/(ab)), F_2(t) = t (1 - log t) on (0, 1] and 1 above, so with
  x = 4 delta and the gap pairs grouped by their product P = g h,

      P(D1 * D2 < delta) = sum_P (N_P/r**2) F_2(x/P),
      N_P = sum_{g h = P} c_g g c_h h = P K_P,  K_P = sum_{g h = P} c_g c_h.

  Every P <= x contributes N_P/r**2 whole, so with i = #{P <= x}

      P(D1 * D2 < delta) = below[i] + x [(1 - log x) above[i] + above_log[i]],

  ``below`` the prefix sums of N_P/r**2, ``above`` and ``above_log`` the
  suffix sums of K_P/r**2 and K_P log P/r**2 over the sorted distinct
  products (``PiecewiseCdf.law2_terms``, evaluated by ``_product_law2``):
  one bisection per delta, at every delta.  Below x = 1 no product is
  <= x and the terms are (0, phi**2/r**2, 2 phi L/r**2), with phi = phi(r)
  and L the sum of log(gap) over the phi cyclic gaps; the public n = 2
  entry below delta = 1/4 takes phi and L from ``_gap_log_sum`` and builds
  no table.  r and the largest prime of q come from a cached block of
  4096 q, one per thread, sieved by ``radical_segment`` when the thread's
  previous q lay in that block, so consecutive q cost O(1) each; a lone
  call factors q by trial division, and so does q > 2**30: a block past
  it would sieve with more than the pi(2**15) = 3512 primes below 2**15,
  a few strided passes each, close to one prime per q of the block.

* The n-fold product law under the coprime marginal follows the recursion
  G_k(d) = int G_{k-1}(d/t) dF(t); n >= 3 uses adaptive Gauss-Legendre
  refinement of it down to the n = 2 law above (``_product_cdf_rec``).
  Level passes fill a cache of panel rules: every panel of a refinement
  level is evaluated at its 7 + 15 nodes in one numpy pass, at n = 3 the
  n = 2 law by one ``searchsorted`` and a libm log per node.  A
  depth-first stack of panels then decides, sums and brackets, reading
  each panel from the cache, so every value, bound and
  ``ConvergenceError`` is that of panel-by-panel refinement, bit for
  bit.  The rules are numpy's ``leggauss`` as ``float.hex`` literals.

Exact truncated unions
----------------------
``truncated_union_1d`` returns the measure of the union of the slices
Q0 <= q <= Q, rounded once, for psi as the family gives it: psi(q) is the
rational a/b of a ``TablePsi`` entry as written (int, Fraction or float)
and of any other family's float value.  That is its ``exact`` label: no
decision is float-rounded.  It reads only the family's ``support_range``
and caps delta at q, where a slice covers [0, 1] already.  The centres c
of slice q, -delta < c < q + delta, are chosen in integers, and each float
key (c -+ float(delta))/q is within bound = 4u (1 + 2 max delta/q) + _TINY
of its rational: u each for the sum and the quotient, u delta/q for
float(delta) when delta is no float, _TINY below the normal range, and
constants rounded up to cover the comparisons.  One float sweep decides
wherever keys lie more than 2 bound apart (Shewchuk's filter) and compares
rationals only where they do not: in runs of near-tied starts that could
open a component, and in merges (touching intervals merge) of a start with
the running maximum end, whose rational is among the ends within 2 bound.
A component of one interval inside [bound, 1 - bound] adds 2a/(bq) by a
count per slice; any other adds its rational end less its start, clipped
to [0, 1].  The sum is one integer per denominator, rounded once.

Interval measures
-----------------
``IntervalUnion.measure``, ``intersection_measure`` and
``intersection_matrix`` sum their float components in one order, left to
right in x, so the matrix equals the pairwise measures bit for bit.

Rounding bounds
---------------
The ``numeric-exact`` bounds of the n = 2 law are derived, not
chosen: each float operation is counted at a relative error <= u = 2**-53,
a libm ``log`` at <= 1 ulp, and results in the subnormal range at an
absolute error <= ``_TINY``.  Second-order terms in u are covered by
rounding each constant up by one u.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, cmp_to_key, lru_cache
from itertools import accumulate

import numpy as np

from .arith import (
    SCAN_BLOCK,
    _cyclic_gaps,
    coprime_residues,
    euler_phi,
    gap_multiset,
    phi_values,
    prime_factors,
    radical,
    radical_segment,
    range_array,
)
from .errors import ConvergenceError, ResourceBudgetError
from .measure import MeasureEstimate
from .psi import ApproxFunction, TablePsi

__all__ = [
    "IntervalUnion",
    "PiecewiseCdf",
    "RegionSpec",
    "coprime_dist_cdf",
    "intersection_matrix",
    "product_region_measure_coprime",
    "product_region_measure_plain",
    "region_measure",
    "region_measure_1d",
    "slice_union",
    "truncated_union_1d",
    "uniform_product_cdf",
]

_U = 2.0**-53  # unit roundoff of float64
_TINY = math.ulp(0.0)  # twice the largest rounding error of a subnormal result
_PAIR_BLOCK = 1 << 12  # interval pairs per block of ``intersection_matrix``: small temporaries at any size


@dataclass(frozen=True)
class RegionSpec:
    """One q-slice: dimension, threshold delta = psi(q), mode, coprimality."""

    q: int
    n: int
    delta: float
    mode: str = "product"
    coprime: bool = False

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.delta >= 0:  # also rejects nan
            raise ValueError("delta must be >= 0")
        if self.mode not in ("product", "max"):
            raise ValueError(f"unknown mode {self.mode!r}")


# ---------------------------------------------------------------------------
# interval unions


def _sweep(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(order, starts, ends, running maximum of the ends) of intervals sorted by start."""
    order = np.argsort(starts)
    e = ends[order]
    return order, starts[order], e, np.maximum.accumulate(e)


def _left_sum(x: np.ndarray) -> float:
    """Sum of x from left to right: the one summation order of every interval measure."""
    return float(np.cumsum(x)[-1]) if x.size else 0.0


def _components(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Components of a nonempty union of closed intervals: a start above the running max end opens one."""
    _, s, _, cm = _sweep(starts, ends)
    heads = np.flatnonzero(np.concatenate(([True], s[1:] > cm[:-1])))
    tails = np.append(heads[1:], s.size) - 1
    return s[heads], cm[tails]


class IntervalUnion:
    """Sorted disjoint closed subintervals of [0, 1]."""

    __slots__ = ("starts", "ends")

    def __init__(self, starts: np.ndarray, ends: np.ndarray):
        self.starts = starts
        self.ends = ends

    @classmethod
    def from_intervals(cls, starts, ends) -> "IntervalUnion":
        """Normalize raw intervals: clip to [0,1], sort, merge overlapping or touching ones."""
        starts = np.clip(np.asarray(starts, dtype=np.float64), 0.0, 1.0)
        ends = np.clip(np.asarray(ends, dtype=np.float64), 0.0, 1.0)
        keep = ends > starts  # clipping is monotone, so it keeps every order
        starts, ends = starts[keep], ends[keep]
        if starts.size == 0:
            return cls(starts, ends)
        return cls(*_components(starts, ends))

    def __len__(self) -> int:
        return self.starts.size

    @property
    def measure(self) -> float:
        return _left_sum(self.ends - self.starts)

    def _inside(self, xs: np.ndarray) -> np.ndarray:
        # parity of endpoint crossings; valid because intervals are disjoint
        flat = np.empty(2 * len(self))
        flat[0::2] = self.starts
        flat[1::2] = self.ends
        return np.searchsorted(flat, xs, side="right") % 2 == 1

    def intersection_measure(self, other: "IntervalUnion") -> float:
        if len(self) == 0 or len(other) == 0:
            return 0.0
        cuts = np.unique(np.concatenate([self.starts, self.ends, other.starts, other.ends]))
        # classify each elementary segment by its left cut: a midpoint of two
        # cuts a few ulps apart can round onto the right cut and read outside
        both = self._inside(cuts[:-1]) & other._inside(cuts[:-1])
        return _left_sum((cuts[1:] - cuts[:-1])[both])


def intersection_matrix(unions: list[IntervalUnion]) -> np.ndarray:
    """Pairwise intersection measures of unions, with their measures on the diagonal.

    One sweep over the intervals of all unions sorted by start lists each
    strictly overlapping pair of intervals once: an interval meets exactly
    the later ones that start before its end.  Their component min(ends) -
    later start is an elementary segment of ``intersection_measure``.  A
    pair of unions lists its components in ascending x, so ``np.add.at``
    into the entry (min owner, max owner) and its mirror sums them from left
    to right, _PAIR_BLOCK pairs at a time.
    """
    k = len(unions)
    starts = np.concatenate([u.starts for u in unions] + [np.empty(0)])
    order = np.argsort(starts)
    starts = starts[order]
    ends = np.concatenate([u.ends for u in unions] + [np.empty(0)])[order]
    owner = np.repeat(np.arange(k), [len(u) for u in unions])[order]
    del order
    # interval a meets the later intervals that start before its end: its pairs are listed at last[a - 1]:last[a]
    last = np.cumsum(np.searchsorted(starts, ends, side="left") - np.arange(1, starts.size + 1))
    total = int(last[-1]) if last.size else 0
    out = np.zeros((k, k))
    for lo in range(0, total, _PAIR_BLOCK):
        t = np.arange(lo, min(lo + _PAIR_BLOCK, total))
        a = np.searchsorted(last, t, side="right")  # the earlier interval, and b the later one
        b = t - np.where(a > 0, last[a - 1], 0) + a + 1
        i, j = np.minimum(owner[a], owner[b]), np.maximum(owner[a], owner[b])
        # the two intervals overlap strictly, so every component is > 0
        comp = np.minimum(ends[a], ends[b]) - starts[b]
        # a flat index takes np.add.at's one-dimensional loop; reshape of the fresh matrix is a view
        np.add.at(out.reshape(-1), np.concatenate((i * k + j, j * k + i)), np.concatenate((comp, comp)))
    np.fill_diagonal(out, [u.measure for u in unions])
    return out


# ---------------------------------------------------------------------------
# q-slice intervals in dimension 1


def _slice_centers(q: int, delta, coprime: bool) -> np.ndarray:
    """Centres c of the intervals (c -+ delta)/q of one 1-D slice; delta > 0, float or Fraction."""
    if not coprime:
        return np.arange(0, q + 1, dtype=np.int64)
    res = coprime_residues(q)
    centers = np.concatenate([res - q, res, res + q])
    # exact for integer c and k = ceil(delta): c > -delta iff c > -k, c < q + delta iff c < q + k (no
    # float sum q + delta to round); the centres lie in [-q, 2q), so a cap at q + 1 keeps every one
    k = math.ceil(min(delta, q + 1))
    return centers[(centers > -k) & (centers < q + k)]


def _slice_raw_intervals(q: int, delta, coprime: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, ends, centres): the raw (unclipped, unmerged) float intervals of one 1-D slice.

    The centres come from delta itself, the keys (c -+ float(delta))/q from its float.
    """
    if delta <= 0:
        return np.empty(0), np.empty(0), np.empty(0, dtype=np.int64)
    centers = _slice_centers(q, delta, coprime)
    d = float(delta)
    return (centers - d) / q, (centers + d) / q, centers


def slice_union(q: int, delta: float, coprime: bool = False) -> IntervalUnion:
    """The 1-D slice {x : dist(q, x) < delta} as float intervals; its measure may be off by ulps."""
    if q < 1:
        raise ValueError("q must be >= 1")
    starts, ends, _ = _slice_raw_intervals(q, delta, coprime)
    return IntervalUnion.from_intervals(starts, ends)


def region_measure_1d(spec: RegionSpec) -> MeasureEstimate:
    """Exact measure of a 1-D slice, rounded once.

    Plain mode is min(1, 2 delta).  Coprime mode is the gap law at delta's
    exact value: below 1/2 every gap (>= 1) exceeds 2 delta, so it is
    2 delta phi(q)/q, one correctly rounded int division; above, ``eval_fraction``.
    """
    if spec.n != 1:
        raise ValueError("region_measure_1d requires n = 1")
    d = spec.delta
    if d == 0.0:
        return MeasureEstimate.exact(0.0)
    if not spec.coprime:
        return MeasureEstimate.exact(min(1.0, 2.0 * d))
    if d < 0.5:
        a, b = d.as_integer_ratio()
        return MeasureEstimate.exact(2 * a * euler_phi(spec.q) / (b * int(spec.q)))
    return MeasureEstimate.exact(float(coprime_dist_cdf(spec.q).eval_fraction(d)))


# ---------------------------------------------------------------------------
# closed form for the plain product domain


def uniform_product_cdf(n: int, t: float) -> float:
    """P(V_1 * ... * V_n < t) for V_i i.i.d. uniform on [0, 1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    L = -math.log(t)
    term = 1.0
    total = 1.0
    for k in range(1, n):
        term *= L / k
        total += term
    return t * total


def product_region_measure_plain(n: int, delta: float) -> MeasureEstimate:
    """|{x in [0,1]^n : prod ||q x_i|| < delta}|, independent of q."""
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
    return MeasureEstimate.closed_form(uniform_product_cdf(n, (2.0**n) * delta))


# ---------------------------------------------------------------------------
# the coprime distance law


class PiecewiseCdf:
    """Piecewise-linear CDF of ``||q x||'`` for x uniform on [0, 1].

    Built from the cyclic gap multiset of the coprime residues of the
    radical of q (the law only sees the squarefree kernel).  Evaluation is
    float by default; ``eval_fraction`` is exact on rational inputs.

    It also holds the n = 2 product law's table ``_law2``, built on first
    use: the m sorted distinct gap products P = g h as float64, exact as
    each is an integer far below 2**53, and the 3 x (m + 1) array of the
    running sums ``below``, ``above`` and ``above_log`` of the module
    docstring, so ``law2_terms`` and ``_law_values`` serve any delta with
    one ``searchsorted``.  ``below`` and ``above`` are integer ratios,
    each rounded once (Python's int / int is correctly rounded), so within
    u.  ``above_log`` is ``math.fsum`` of K_P log P, divided by r**2,
    within 7u: 2u from the log, u each from K_P and r**2 as floats, and u
    each from the product, the sum and the division (every term >= 0).
    """

    def __init__(self, modulus: int, gaps: np.ndarray, counts: np.ndarray):
        self.modulus = int(modulus)
        self.gaps = [int(g) for g in gaps]
        self.counts = [int(c) for c in counts]
        self.phi = int(sum(self.counts))
        ccounts = [0]
        cgsum = [0]
        for g, c in zip(self.gaps, self.counts):
            ccounts.append(ccounts[-1] + c)
            cgsum.append(cgsum[-1] + c * g)
        self._ccounts = ccounts
        self._cgsum = cgsum

    @cached_property
    def _law2(self) -> tuple[np.ndarray, np.ndarray]:
        weights = Counter()  # K_P
        for g, c in zip(self.gaps, self.counts):
            for h, e in zip(self.gaps, self.counts):
                weights[g * h] += c * e
        products = sorted(weights)
        r2 = self.modulus**2
        ks = [weights[P] for P in products]
        below = [n / r2 for n in accumulate((P * k for P, k in zip(products, ks)), initial=0)]
        above = [(self.phi**2 - k) / r2 for k in accumulate(ks, initial=0)]
        logs = [k * math.log(P) for P, k in zip(products, ks)]
        above_log = [math.fsum(logs[i:]) / r2 for i in range(len(logs) + 1)]
        return np.array(products, dtype=np.float64), np.array([below, above, above_log])

    def law2_terms(self, x: float) -> list[float]:
        """[below, above, above_log] at i = #{P <= x}, for ``_product_law2`` at delta = x/4."""
        products, terms = self._law2
        return terms[:, np.searchsorted(products, x, "right")].tolist()

    @property
    def max_distance(self) -> float:
        return self.gaps[-1] / 2.0

    def _split(self, two_t: float) -> tuple[int, int]:
        """(count of gaps > 2t, weighted sum of gaps <= 2t)."""
        idx = bisect_right(self.gaps, two_t)
        return self.phi - self._ccounts[idx], self._cgsum[idx]

    def __call__(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        if 2.0 * t >= self.gaps[-1]:
            return 1.0
        n_above, s_below = self._split(2.0 * t)
        return (2.0 * t * n_above + s_below) / self.modulus

    def eval_fraction(self, t) -> Fraction:
        """The law at the exact value of t, a Fraction or a float (inf included)."""
        if t <= 0:
            return Fraction(0)
        if 2 * t >= self.gaps[-1]:
            return Fraction(1)
        t = Fraction(t)
        n_above, s_below = self._split(2 * t)
        return (2 * t * n_above + s_below) / self.modulus


@lru_cache(maxsize=1024)
def _radical_cdf(r: int) -> PiecewiseCdf:
    """The law of the squarefree r, kept for the 1024 radicals read last."""
    return PiecewiseCdf(r, *gap_multiset(r))


def coprime_dist_cdf(q: int) -> PiecewiseCdf:
    """Exact law of ``||q x||'``; cached per radical of q."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return _radical_cdf(radical(q))


def _log_count_sum(values: np.ndarray) -> tuple[float, np.ndarray]:
    """(sum of fl(log v) over the integers v >= 1, the distinct v ascending): the exact sum by count, rounded once.

    Every fl(log v) is 0 or at least fl(log 2) > 1/2, so a multiple of
    2**-53, and the sum is one integer over 2**53: int / int rounds it
    correctly, as ``math.fsum`` of the terms one by one would.
    """
    counts = np.bincount(values)
    distinct = np.flatnonzero(counts)
    num = sum(c * int(math.ldexp(math.log(v), 53)) for v, c in zip(distinct.tolist(), counts[distinct].tolist()))
    return num / 2**53, distinct


@cache
def _gap_stats(m: int) -> tuple[int, float, float, tuple[int, ...]]:
    """(phi, L, P, G) of the cyclic coprime gaps g_i of m; cached per m.

    L = sum log g_i, P = sum log(g_{i-1} + g_i) and G the distinct g_i,
    ascending.  Both sums take each distinct value's libm log times its
    count, exactly, and round once (``_log_count_sum``), so each is within
    3u relative: 2u from the logs, all >= 0, and u from the rounding.
    """
    gaps = _cyclic_gaps(m)[1]
    log_sum, distinct = _log_count_sum(gaps)
    return gaps.size, log_sum, _log_count_sum(gaps + np.roll(gaps, 1))[0], tuple(distinct.tolist())


_RAD_BLOCK, _RAD_CAP = 4096, 1 << 30  # q per sieved block of radicals; no block is sieved past this q
_radicals = threading.local()  # per thread: "previous", the previous call's block; "sieved", the last with its (r, p)


def _gap_log_sum(q: int) -> tuple[int, int, float]:
    """(r, phi(r), L_r) for r = rad(q), L_r = sum of log(gap) over r's cyclic coprime gaps.

    Lifting along the largest prime p of r, with s = r/p: every unit of s
    lifts to p residues mod r, exactly one of them divisible by p, and
    dropping that one merges the two gaps of s around it.  Two lifts a
    gap g of s apart are both divisible by p exactly when p divides g, so
    when p divides no gap of s no two dropped residues are neighbours, and
    phi(r) = (p - 1) phi(s) and L_r = (p - 2) L_s + P_s, with s's data
    from ``_gap_stats`` (few distinct s occur).  Otherwise r's own gaps
    are taken.  p above every gap of s settles it without a division.
    r = 1 gives (1, 0) and a prime (p - 1, log 2).  L_r is
    within 5u relative: 3u from L_s and P_s, then one product and one sum.
    Serves the public n = 2 entry below delta = 1/4 (``_lifted_terms``),
    which builds no ``PiecewiseCdf``.  r and p are read from q's sieved
    block or found by trial division (module docstring); q = 1 reads p = 1.
    """
    k, i = divmod(q - 1, _RAD_BLOCK)
    mine = _radicals.__dict__  # this thread's own: read as a dict, it costs about what a global does
    previous, mine["previous"] = mine.get("previous"), k
    block, rads, tops = mine.get("sieved", (None, (), ()))
    if previous == k != block and 0 < q <= _RAD_CAP:
        span = radical_segment(k * _RAD_BLOCK + 1, (k + 1) * _RAD_BLOCK + 1)
        block, rads, tops = mine["sieved"] = k, *map(memoryview, span)  # read as ints
    if block == k:
        r, p = rads[i], tops[i]
    else:
        primes = prime_factors(q) or [1]
        r, p = math.prod(primes), primes[-1]
    phi_s, log_s, merged_s, gaps_s = _gap_stats(r // p)
    if p > gaps_s[-1] or all(g % p for g in gaps_s):
        return r, (p - 1) * phi_s, (p - 2) * log_s + merged_s
    phi_r, log_r, _, _ = _gap_stats(r)
    return r, phi_r, log_r


# ---------------------------------------------------------------------------
# n-fold product of coprime distances


def _lifted_terms(q: int) -> tuple[float, float, float]:
    """``law2_terms`` below x = 1, (0, phi**2/r**2, 2 phi L/r**2), from ``_gap_log_sum``.

    phi**2/r**2 is one correctly rounded integer ratio (u); 2 phi L/r**2
    carries L's 5u, u from the ratio 2 phi/r**2 and u from the product.
    """
    r, phi, log_sum = _gap_log_sum(q)
    r2 = r * r
    return 0.0, phi * phi / r2, 2 * phi / r2 * log_sum


def _product_law2(delta: float, below: float, above: float, above_log: float) -> tuple[float, float]:
    """(P(D1 * D2 < delta), rounding bound) from the terms at x = 4 delta, 0 < delta < T**2.

    value = below + x s, s = (1 - log x) above + above_log > 0.  Rounding,
    with below and above within u, above_log within 7u (either source) and
    a = 1 - log x: x is exact; log x is within 1 ulp <= 2u |log x|, so a is
    within u (2 |log x| + |a|), absolute, because a changes sign at x = e
    (delta = e/4) and has no relative bound there; a above is within
    u above (2 |log x| + 3 |a|), s within u [2 |log x| above + 4 |a| above
    + 8 above_log], x s adds u x s and the sum u value; x s <= value.  That
    is u [below + x (2 |log x| above + 4 |a| above + 8 above_log) + 2 value],
    each constant rounded up by one.  Only x s can underflow, by at most
    _TINY / 2.
    """
    x = 4.0 * delta
    log_x = math.log(x)
    a = 1.0 - log_x
    value = below + x * (a * above + above_log)
    slack = (3.0 * abs(log_x) + 5.0 * abs(a)) * above + 9.0 * above_log
    return min(1.0, value), _U * (2.0 * below + x * slack + 3.0 * value) + _TINY


def _gl_rule(half: tuple[tuple[str, str], ...]) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of a Gauss-Legendre rule on [-1, 1], odd order, from its (node, weight) pairs at nodes >= 0."""
    x, w = (np.array([float.fromhex(v) for v in col]) for col in zip(*half))
    return np.concatenate((-x[:0:-1], x)), np.concatenate((w[:0:-1], w))


# numpy's leggauss(7) and leggauss(15), ascending from the middle node; the negative half mirrors them exactly
_GL7 = _gl_rule((
    ("0x0.0p+0", "0x1.abfd7e03c2fa4p-2"),
    ("0x1.9f95df119fd62p-2", "0x1.86fe74ee32b39p-2"),
    ("0x1.7ba9f9be3a1d6p-1", "0x1.1e6b1713d8648p-2"),
    ("0x1.e5f178e7c622ap-1", "0x1.092f69f826d58p-3"),
))
_GL15 = _gl_rule((
    ("0x0.0p+0", "0x1.9ee1575f9c980p-3"),
    ("0x1.9c0ba62ef04b5p-3", "0x1.96633f1fd02cfp-3"),
    ("0x1.939c69257d6b6p-2", "0x1.7d41fa76dc267p-3"),
    ("0x1.245676f08f3a4p-1", "0x1.5484f30a86ed3p-3"),
    ("0x1.72e6e181ab3c4p-1", "0x1.1dd73b4963165p-3"),
    ("0x1.b248221fffd63p-1", "0x1.b6ec9635f1120p-4"),
    ("0x1.dfe24c4f8b447p-1", "0x1.2038260b5d03ap-4"),
    ("0x1.f9da27c32e6d0p-1", "0x1.f7dc7227a2908p-6"),
))
_GL_NODES = np.concatenate((_GL7[0], _GL15[0]))  # a panel's 7 coarse nodes, then its 15 fine ones


def _gl_sum(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each row's weighted sum, added in ``np.sum``'s order for its length.

    ``np.sum`` adds fewer than 8 floats left to right, and 8 to 15 as a
    tree of pairs over the first eight with the rest added in turn.
    """
    p = values * weights
    if p.shape[1] >= 8:
        pairs = p[:, 0:8:2] + p[:, 1:8:2]
        p[:, 7] = (pairs[:, 0] + pairs[:, 1]) + (pairs[:, 2] + pairs[:, 3])
        p = p[:, 7:]
    return p.cumsum(axis=1)[:, -1]


def _law_values(cdf: PiecewiseCdf, k: int, u: np.ndarray, tol: float) -> np.ndarray:
    """The k-fold law at each u, k >= 2, row by row: a row's values do not depend on the other rows.

    k = 2 is ``_product_law2``'s value in one pass: the terms by one
    ``searchsorted`` and a libm log per node (``np.log`` may differ from
    ``math.log`` by an ulp), and 0 at u <= 0 and 1 at u >= T**2, each
    without a log.  k >= 3 calls the driver at each u in turn, and a
    child's ``ConvergenceError`` propagates.
    """
    if k > 2:
        values = (_product_cdf_rec(cdf, k, v, tol)[0] for v in u.ravel().tolist())
        return np.fromiter(values, np.float64, u.size).reshape(u.shape)
    products, terms = cdf._law2
    T2 = cdf.max_distance**2
    inside = (u > 0.0) & (u < T2)
    everywhere = inside.all()
    x = 4.0 * (u if everywhere else np.where(inside, u, 0.25))  # x = 1 stands in outside: no log of 0 or inf
    below, above, above_log = terms[:, np.searchsorted(products, x, "right")]
    log_x = np.fromiter(map(math.log, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)
    out = np.minimum(1.0, below + x * ((1.0 - log_x) * above + above_log))
    return out if everywhere else np.where(inside, out, u >= T2)


def _product_cdf_rec(
    cdf: PiecewiseCdf, k: int, delta: float, tol: float, max_panels: int = 4000
) -> tuple[float, float]:
    """(value, error bound) of the k-fold product CDF at delta, k >= 2.

    k = 2 is ``_product_law2``.  Above it, G_k(delta) = int G_{k-1}(delta/t)
    dF(t) over the density of one coprime distance, exactly 1 below
    t = delta / T**(k-1), with panels between the density's breakpoints
    refined until a 7- and a 15-point Gauss-Legendre rule agree within
    tol/2 (b - a)/T, or b - a < 1e-14; the children take the other tol/2.
    Level passes fill a cache first: each evaluates all 22 nodes of every
    panel of a refinement level in one ``_law_values`` pass, stores its
    (15-point rule, rule difference) under (a, b) and halves every panel
    that fails the test, until a child fails or more than max_panels panels
    are built.  A depth-first stack of panels then decides, sums and
    brackets, reading each panel from the cache and evaluating one that no
    pass reached as a one-row pass (a row's values do not depend on the
    other rows), so every float addition is the stack's own and no order
    is emulated.  Its (max_panels + 1)-th pop raises ConvergenceError with
    the sum of the 15-point rules of the panels it holds; a child's
    failure is raised where the stack evaluates that child.
    """
    T = cdf.max_distance
    if delta <= 0.0:
        return 0.0, 0.0
    if delta >= T**k:
        return 1.0, 0.0
    if k == 2:
        return _product_law2(delta, *cdf.law2_terms(4.0 * delta))
    child_tol = 0.5 * tol
    quad_tol = 0.5 * tol
    r = cdf.modulus

    def rules(a: np.ndarray, b: np.ndarray, cf: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, ...]:
        """cf times the Gauss-Legendre rules of each panel (a, b) in one ``_law_values`` pass: at _GL_NODES
        the 7-point and the 15-point rule, at _GL15[0] the 15-point rule alone."""
        half = 0.5 * (b - a)
        values = _law_values(cdf, k - 1, delta / ((0.5 * (a + b))[:, None] + half[:, None] * nodes), child_tol)
        fine = cf * (half * _gl_sum(values[:, -15:], _GL15[1]))
        return (cf * (half * _gl_sum(values[:, :7], _GL7[1])), fine) if nodes.size > 15 else (fine,)

    # density breakpoints; below cut the child CDF is exactly 1
    cut = delta / T ** (k - 1)
    pieces = sorted({0.0, T, min(cut, T)} | {g / 2.0 for g in cdf.gaps if g / 2.0 < T})
    total = 0.0
    err = 0.0
    work: list[tuple[float, float, float]] = []
    for t1, t2 in zip(pieces[:-1], pieces[1:]):
        tm = 0.5 * (t1 + t2)
        n_density, _ = cdf._split(2.0 * tm)
        if n_density == 0:
            continue
        c_f = 2.0 * n_density / r
        if t2 <= cut:
            total += c_f * (t2 - t1)
        else:
            work.append((t1, t2, c_f))
    cache = {}  # (a, b) -> (15-point rule, |15-point - 7-point|) of the panel
    a, b, cf = np.array(work).reshape(-1, 3).T
    while a.size and len(cache) <= max_panels:
        try:
            coarse, fine = rules(a, b, cf, _GL_NODES)
        except ConvergenceError:
            break
        panel_err = np.abs(fine - coarse)
        cache.update(zip(zip(a.tolist(), b.tolist()), zip(fine.tolist(), panel_err.tolist())))
        split = ~((panel_err <= quad_tol * (b - a) / T) | (b - a < 1e-14))
        a, b, cf = a[split], b[split], cf[split]
        mid = 0.5 * (a + b)
        a, b, cf = np.concatenate((a, mid)), np.concatenate((mid, b)), np.concatenate((cf, cf))
    used = 0
    while work:
        a, b, cf = work.pop()
        used += 1
        if used > max_panels:
            best = total + sum(  # a panel no pass reached at its 15 nodes alone: a child at a 7-point node never runs
                cache[p[:2]][0] if p[:2] in cache else float(rules(*np.array([p]).T, _GL15[0])[0][0])
                for p in work + [(a, b, cf)]
            )
            raise ConvergenceError(f"adaptive refinement exceeded {max_panels} panels", best, err + quad_tol)
        if (a, b) not in cache:  # a one-row pass, past the budget or a child's failure
            coarse, fine = (float(x[0]) for x in rules(*np.array([(a, b, cf)]).T, _GL_NODES))
            cache[a, b] = fine, abs(fine - coarse)
        fine, panel_err = cache[a, b]
        if panel_err <= quad_tol * (b - a) / T or (b - a) < 1e-14:
            total += fine
            err += panel_err
        else:
            mid = 0.5 * (a + b)
            work.append((a, mid, cf))
            work.append((mid, b, cf))
    return min(1.0, total), err + child_tol


def product_region_measure_coprime(
    q: int, n: int, delta: float, tol: float = 1e-9
) -> MeasureEstimate:
    """|{x in [0,1]^n : prod ||q x_i||' < delta}| with an error bound; tol applies to n >= 3 only.

    n = 1 is ``region_measure_1d``.  n = 2 is the gap-pair mixture of the
    module docstring at every delta, from the table of ``coprime_dist_cdf(q)``.  Below delta = 1/4 its terms
    need only phi(r) and L_r, the sum of log(gap) over the cyclic coprime
    gaps of r = rad(q); L_r is lifted from s = r/p, p the largest prime of
    r, when p divides no coprime gap of s, and taken from r's own gaps
    otherwise: O(1) per q on sequential calls, no table of r.  The error
    bound is the derived rounding bound for n = 2, which ignores tol, and
    for n >= 3 that of adaptive quadrature to absolute tolerance tol.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
    if n == 1:
        return region_measure_1d(RegionSpec(q, 1, delta, coprime=True))
    if n == 2 and 0.0 < delta < 0.25:
        return MeasureEstimate.numeric(*_product_law2(delta, *_lifted_terms(q)))
    value, err = _product_cdf_rec(coprime_dist_cdf(q), n, delta, tol)
    return MeasureEstimate.numeric(value, err)


# ---------------------------------------------------------------------------
# max-mode (cubical) measures


def region_measure(spec: RegionSpec, tol: float = 1e-9) -> MeasureEstimate:
    """Measure of one q-slice under any mode/coprimality combination.

    Max-mode sets are products of per-coordinate slices, hence closed form
    per q; product mode dispatches to the dedicated routines.
    """
    if spec.n == 1:
        # both modes coincide at n = 1
        return region_measure_1d(spec)
    side = spec.delta ** (1.0 / spec.n)
    if spec.mode == "max":
        if not spec.coprime:
            return MeasureEstimate.closed_form(min(1.0, 2.0 * side) ** spec.n)
        return MeasureEstimate.closed_form(coprime_dist_cdf(spec.q)(side) ** spec.n)
    if not spec.coprime:
        return product_region_measure_plain(spec.n, spec.delta)
    return product_region_measure_coprime(spec.q, spec.n, spec.delta, tol)


# ---------------------------------------------------------------------------
# exact truncated unions in dimension 1

INTERVAL_BUDGET = 5_000_000


def _key_bound(ratio: float) -> float:
    """Distance from each float key (c -+ float(delta))/q of a slice to its rational, ratio the largest delta/q."""
    return 4 * _U * (1 + 2 * ratio) + _TINY


def _exact_union(slices: list[tuple[int, object]], coprime: bool) -> float:
    """Measure of the union of the 1-D slices (q, delta), 0 < delta <= q: the certified sweep of the module docstring."""
    parts = [_slice_raw_intervals(q, d, coprime) for q, d in slices]
    offsets = np.cumsum([0] + [c.size for _, _, c in parts])  # slice k holds keys offsets[k]:offsets[k+1]
    starts, ends, centres = (np.concatenate(x) for x in zip(*parts))
    del parts
    order, s, e, cm = _sweep(starts, ends)
    del starts, ends
    bound = _key_bound(max(float(d) / q for q, d in slices))
    tol = 2 * bound
    ratios = [(q, *d.as_integer_ratio()) for q, d in slices]

    def exact(js: np.ndarray, side: int) -> list[tuple[int, int]]:
        """(num, den) of the endpoints (c + side delta)/q behind the sorted keys js: side -1 for starts, 1 for ends."""
        i = order[js]
        slice_of = map(ratios.__getitem__, (np.searchsorted(offsets, i, "right") - 1).tolist())
        return [(c * b + side * a, b * q) for c, (q, a, b) in zip(centres[i].tolist(), slice_of)]

    def above(x: tuple[int, int], y: tuple[int, int]) -> bool:  # of rationals (num, den), den > 0
        return x[0] * y[1] > y[0] * x[1]

    by_value = cmp_to_key(lambda x, y: above(x, y) - above(y, x))

    def tops(ix: np.ndarray) -> list[tuple[int, int]]:
        """For each i of the ascending ix, the largest end at sorted indices <= i: only the ``near`` keys
        within tol of cm[i] can hold it, read past the i before, whose top counts where they reach back."""
        floor = cm[ix] - tol
        reach = np.searchsorted(cm, floor)
        lo = np.searchsorted(near, np.maximum(reach, np.append(0, ix[:-1] + 1)))
        size = np.searchsorted(near, ix, "right") - lo
        owner = np.repeat(np.arange(ix.size), size)
        cand = near[np.arange(owner.size) + np.repeat(lo - np.cumsum(size) + size, size)]
        keep = e[cand] >= floor[owner]
        best = [None] * ix.size
        for k, x in zip(owner[keep].tolist(), exact(cand[keep], 1)):
            best[k] = x if best[k] is None or above(x, best[k]) else best[k]
        for k in (np.flatnonzero(reach[1:] <= ix[:-1]) + 1).tolist():
            best[k] = best[k - 1] if best[k] is None or above(best[k - 1], best[k]) else best[k]
        return best

    edges = np.flatnonzero(np.diff(np.concatenate(([False], np.diff(s) <= tol, [False]))))
    los, his = edges[0::2], edges[1::2] + 1  # the runs of near-tied starts
    # a run whose starts all lie more than tol below the running maximum end merges whole, in any order
    sort = (los == 0) | (s[his - 1] >= cm[los - 1] - tol)
    if sort.any():  # put every other run in rational order, in its place
        pos = np.concatenate([np.arange(lo, hi) for lo, hi in zip(los[sort].tolist(), his[sort].tolist())])
        run = np.repeat(np.arange(np.count_nonzero(sort)), (his - los)[sort]).tolist()
        keys = list(map(by_value, exact(pos, -1)))
        new = pos[sorted(range(pos.size), key=lambda k: (run[k], keys[k]))]
        order[pos], s[pos], e[pos] = order[new], s[new], e[new]
        np.maximum.accumulate(e, out=cm)
    near = np.flatnonzero(e >= cm - tol)  # every end within tol of the running maximum where it stands
    gap = s[1:] - cm[:-1]
    split = gap > tol
    unsure = np.flatnonzero(~split & (gap >= -tol))
    del gap
    for i, start, top in zip(unsure.tolist(), exact(unsure + 1, -1), tops(unsure)):
        split[i] = above(start, top)
    heads = np.flatnonzero(np.concatenate(([True], split)))
    tails = np.append(heads[1:], s.size) - 1
    alone = (heads == tails) & (s[heads] >= bound) & (e[heads] <= 1 - bound)
    sums = Counter()
    counts = np.bincount(np.searchsorted(offsets, order[heads[alone]], "right") - 1, minlength=len(slices))
    for k in np.flatnonzero(counts).tolist():
        q, a, b = ratios[k]
        sums[b * q] += 2 * int(counts[k]) * a
    for (lo, lo_den), (hi, hi_den) in zip(exact(heads[~alone], -1), tops(tails[~alone])):
        sums[lo_den] -= max(lo, 0)  # each clipped to [0, 1]: every interval meets (0, 1), so each component does
        sums[hi_den] += min(hi, hi_den)
    den = math.lcm(*sums)
    return sum(n * (den // d) for d, n in sums.items()) / den


def truncated_union_1d(
    f: ApproxFunction,
    Q0: int,
    Q: int,
    coprime: bool = False,
    budget: int = INTERVAL_BUDGET,
) -> MeasureEstimate:
    """Exact measure of the union of 1-D slices for Q0 <= q <= Q, at the rational psi(q) of the family.

    That is a ``TablePsi``'s entry as written, any other family's float value
    (module docstring).  The q of the family's ``support_range`` are read in
    blocks of SCAN_BLOCK, each checked for an infinite psi, then counted, then
    turned into slices: a sweep whose interval count would exceed ``budget``
    raises ResourceBudgetError before it is built, the first failure in q order.
    """
    if not 1 <= Q0 <= Q:
        raise ValueError("need 1 <= Q0 <= Q")
    support = f.support_range(Q0, Q)
    table = f.entries if isinstance(f, TablePsi) else None
    slices = []
    total = 0
    for lo in range(0, len(support), SCAN_BLOCK):
        block = support[lo : lo + SCAN_BLOCK]
        qs = range_array(block)
        psis = f.values(qs) if table is None else np.array([table[q - 1] for q in block], dtype=object)
        if not np.all(psis < math.inf):  # +inf or nan
            raise ValueError("family evaluates to +inf inside the truncation range")
        keep = psis > 0
        qs, psis = qs[keep], psis[keep]
        total += int(np.sum(phi_values(qs) if coprime else qs + 1))
        if total > budget:
            raise ResourceBudgetError(
                f"sweep would build more than budget={budget} intervals; raise the budget explicitly"
            )
        slices += [(q, min(v, q)) for q, v in zip(qs.tolist(), psis.tolist())]
    return MeasureEstimate.exact(_exact_union(slices, coprime) if slices else 0.0)
