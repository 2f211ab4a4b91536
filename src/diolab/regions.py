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

  which equals 2t * phi(q)/q for t <= 1/2 and reaches 1 at g_max/2.

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
  no table.

* The n-fold product law under the coprime marginal follows the recursion
  G_k(d) = int G_{k-1}(d/t) dF(t); n >= 3 uses adaptive Gauss-Legendre
  refinement of it down to the n = 2 law above.

Exact truncated unions
----------------------
``truncated_union_1d`` sweeps a rational table exactly, in integers.  The
slice q with delta = a/b has the endpoints (c b -+ a)/(b q), kept as
integer numerators over one denominator per slice and clipped in integers.
Endpoints are ordered by their correctly rounded float keys num/den:
rounding is monotone, so fl(x) < fl(y) proves x < y, and only runs of equal
keys are settled by integer cross-multiplication.  The sweep then sees the
rational order, so every decision, the merge test included, is the
rational one and the ``exact`` label holds.

Rounding bounds
---------------
The ``numeric-exact`` bounds of the n = 1 and n = 2 laws are derived, not
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

MERGE_EPS = 1e-15
_U = 2.0**-53  # unit roundoff of float64
_TINY = math.ulp(0.0)  # twice the largest rounding error of a subnormal result


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


def _sweep(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intervals in stable start order, with the running maximum of their ends."""
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    return s, e, np.maximum.accumulate(e)


def union_measure_raw(starts: np.ndarray, ends: np.ndarray) -> float:
    """Measure of a union of intervals given as parallel float start/end arrays."""
    if starts.size == 0:
        return 0.0
    s, e, cm = _sweep(starts, ends)
    frontier = np.empty_like(cm)
    frontier[0] = s[0]
    frontier[1:] = cm[:-1]
    contrib = e - np.maximum(s, frontier)
    return np.sum(contrib[contrib > 0])


def _exact_order(keys: np.ndarray, nums: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """Indices of the rationals nums/dens in ascending order, from their float keys.

    keys[i] is num/den correctly rounded, and rounding is monotone, so
    keys[i] < keys[j] proves nums[i]/dens[i] < nums[j]/dens[j].  Only runs
    of equal keys are reordered, by Fraction comparison, which is integer
    cross-multiplication.
    """
    order = np.argsort(keys, kind="stable")
    tied = np.diff(keys[order]) == 0
    edges = np.flatnonzero(np.diff(np.concatenate(([False], tied, [False]))))
    for lo, hi in zip(edges[0::2].tolist(), (edges[1::2] + 1).tolist()):
        run = order[lo:hi]
        exact = [Fraction(n, d) for n, d in zip(nums[run].tolist(), dens[run].tolist())]
        order[lo:hi] = run[sorted(range(run.size), key=exact.__getitem__)]
    return order


def _exact_union_measure(slices: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> Fraction:
    """Exact measure of the union of the intervals [lo/den, hi/den] of ``_slice_numerators`` slices.

    The float keys are Python int true divisions, correctly rounded at any
    size.  ``_sweep`` merges the exact ranks, so the merge test "start >
    running max end" is the rational one too.  Each merged component adds
    its end and subtracts its start, in one integer sum per denominator.
    """
    los, his, dens = (np.concatenate(parts) for parts in zip(*slices))
    n = los.size
    nums, dens = np.concatenate([los, his]), np.concatenate([dens, dens])
    keys = (nums / dens).astype(np.float64)
    order = _exact_order(keys, nums, dens)
    rank = np.empty(2 * n, dtype=np.int64)
    rank[order] = np.arange(2 * n)
    s, _, cm = _sweep(rank[:n], rank[n:])
    heads = np.flatnonzero(np.concatenate(([True], s[1:] > cm[:-1])))
    tails = np.append(heads[1:], n) - 1
    sums: dict[int, int] = {}
    for sign, ends in ((-1, order[s[heads]]), (1, order[cm[tails]])):
        for num, den in zip(nums[ends].tolist(), dens[ends].tolist()):
            sums[den] = sums.get(den, 0) + sign * num
    return sum((Fraction(v, d) for d, v in sums.items()), Fraction(0))


class IntervalUnion:
    """Sorted disjoint closed subintervals of [0, 1]."""

    __slots__ = ("starts", "ends")

    def __init__(self, starts: np.ndarray, ends: np.ndarray):
        self.starts = starts
        self.ends = ends

    @classmethod
    def from_intervals(cls, starts, ends, merge_eps: float = MERGE_EPS) -> "IntervalUnion":
        """Normalize raw intervals: clip to [0,1], sort, merge near-touching."""
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        keep = ends > starts
        starts, ends = np.clip(starts[keep], 0.0, 1.0), np.clip(ends[keep], 0.0, 1.0)
        keep = ends > starts
        starts, ends = starts[keep], ends[keep]
        if starts.size == 0:
            return cls(starts, ends)
        s, _, cm = _sweep(starts, ends)
        new_group = np.empty(s.size, dtype=bool)
        new_group[0] = True
        new_group[1:] = s[1:] > cm[:-1] + merge_eps
        heads = np.flatnonzero(new_group)
        tails = np.append(heads[1:], s.size) - 1
        return cls(s[heads].copy(), cm[tails].copy())

    def __len__(self) -> int:
        return self.starts.size

    @property
    def measure(self) -> float:
        return float(np.sum(self.ends - self.starts))

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
        if cuts.size < 2:
            return 0.0
        # classify each elementary segment by its left cut: a midpoint of two
        # cuts a few ulps apart can round onto the right cut and read outside
        both = self._inside(cuts[:-1]) & other._inside(cuts[:-1])
        return float(np.sum((cuts[1:] - cuts[:-1])[both]))


def intersection_matrix(unions: list[IntervalUnion]) -> np.ndarray:
    """Pairwise intersection measures of unions, with their measures on the diagonal.

    One vectorised pass per row i over the intervals of all unions j > i:
    ``searchsorted`` finds the row-i intervals each one overlaps, and each
    overlap is one component min(ends) - max(starts), an elementary segment
    of ``intersection_measure``.  Each entry is ``np.sum`` of its components
    in ascending order, so it equals ``intersection_measure`` bit for bit.
    A row costs a fixed number of numpy calls, not one per pair, and
    temporaries live for one row only.
    """
    k = len(unions)
    sizes = [len(u) for u in unions]
    firsts = np.cumsum(sizes)  # union i + 1 starts at firsts[i]
    starts = np.concatenate([u.starts for u in unions] + [np.empty(0)])
    ends = np.concatenate([u.ends for u in unions] + [np.empty(0)])
    owner = np.repeat(np.arange(k), sizes)
    out = np.zeros((k, k))
    for i, a in enumerate(unions):
        bs, be, bj = starts[firsts[i]:], ends[firsts[i]:], owner[firsts[i]:]
        lo = np.searchsorted(a.ends, bs, side="right")
        counts = np.searchsorted(a.starts, be, side="left") - lo
        hit = np.flatnonzero(counts > 0)
        lo, counts = lo[hit], counts[hit]
        b = np.repeat(hit, counts)
        ai = np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(b.size)
        # the two intervals overlap strictly, so every component is > 0
        comp = np.minimum(a.ends[ai], be[b]) - np.maximum(a.starts[ai], bs[b])
        heads = np.flatnonzero(np.diff(bj[b], prepend=-1))
        # np.sum(x) is 0 + pairwise(x) but reduceat is x[0] + pairwise(x[1:]): a
        # 0.0 at the head of each group makes reduceat equal np.sum bit for bit
        padded = np.insert(comp, heads, 0.0)
        js = bj[b[heads]]
        out[i, js] = out[js, i] = np.add.reduceat(padded, heads + np.arange(heads.size))
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
    # exact for integer c: c > a iff c > floor(a), c < b iff c < ceil(b); the
    # centres lie in [-q, 2q), so clamping there only keeps an infinite delta finite
    lo = math.floor(max(-q - 1, -delta))
    hi = math.ceil(min(2 * q + 1, q + delta))
    return centers[(centers > lo) & (centers < hi)]


def _slice_raw_intervals(q: int, delta, coprime: bool) -> tuple[np.ndarray, np.ndarray]:
    """Raw (unclipped, unmerged) float intervals of one 1-D slice."""
    if delta <= 0:
        return np.empty(0), np.empty(0)
    centers = _slice_centers(q, delta, coprime)
    return (centers - delta) / q, (centers + delta) / q


def _slice_numerators(q: int, delta: Fraction, coprime: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(los, his, dens): the numerators c b -+ a over b q of one 1-D slice, delta = a/b > 0.

    They are Python ints in object arrays, clipped to [0, 1] in integers.
    """
    a, b = delta.numerator, delta.denominator
    den = b * q
    cbs = _slice_centers(q, delta, coprime).astype(object) * b
    return np.maximum(cbs - a, 0), np.minimum(cbs + a, den), np.full(cbs.size, den, dtype=object)


def slice_union(q: int, delta: float, coprime: bool = False) -> IntervalUnion:
    """Exact 1-D slice {x : dist(q, x) < delta} as an interval union."""
    if q < 1:
        raise ValueError("q must be >= 1")
    starts, ends = _slice_raw_intervals(q, delta, coprime)
    return IntervalUnion.from_intervals(starts, ends)


def region_measure_1d(spec: RegionSpec) -> MeasureEstimate:
    """Exact measure of a 1-D slice.

    Plain mode is min(1, 2 delta) for every q.  Coprime mode is
    2 delta phi(q)/q while the coprime intervals stay disjoint
    (delta < 1/2); beyond that the explicit interval union is swept.
    """
    if spec.n != 1:
        raise ValueError("region_measure_1d requires n = 1")
    d = spec.delta
    if d == 0.0:
        return MeasureEstimate.exact(0.0)
    if not spec.coprime:
        return MeasureEstimate.exact(min(1.0, 2.0 * d))
    if d < 0.5:
        return MeasureEstimate.exact(2.0 * d * euler_phi(spec.q) / spec.q)
    return MeasureEstimate.exact(min(1.0, slice_union(spec.q, d, coprime=True).measure))


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

    It also holds the n = 2 product law's table: the sorted distinct gap
    products P = g h with the running sums ``below``, ``above`` and
    ``above_log`` of the module docstring, so ``law2_terms`` serves any
    delta with one bisection.  ``below`` and ``above`` are integer ratios,
    each rounded once (Python's int / int is correctly rounded), so within
    u.  ``above_log`` is ``math.fsum`` of K_P log P, divided by r**2,
    within 7u: 2u from the log, u each from K_P and r**2 as floats, and u
    each from the product, the sum and the division (every term >= 0).
    """

    __slots__ = (
        "modulus", "gaps", "counts", "phi", "_ccounts", "_cgsum",
        "_products", "_below", "_above", "_above_log",
    )

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
        weights = Counter()  # K_P
        for g, c in zip(self.gaps, self.counts):
            for h, e in zip(self.gaps, self.counts):
                weights[g * h] += c * e
        self._products = sorted(weights)
        r2 = self.modulus**2
        ks = [weights[P] for P in self._products]
        self._below = [n / r2 for n in accumulate((P * k for P, k in zip(self._products, ks)), initial=0)]
        self._above = [(self.phi**2 - k) / r2 for k in accumulate(ks, initial=0)]
        logs = [k * math.log(P) for P, k in zip(self._products, ks)]
        self._above_log = [math.fsum(logs[i:]) / r2 for i in range(len(logs) + 1)]

    def law2_terms(self, x: float) -> tuple[float, float, float]:
        """(below, above, above_log) at i = #{P <= x}, for ``_product_law2`` at delta = x/4."""
        i = bisect_right(self._products, x)
        return self._below[i], self._above[i], self._above_log[i]

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

    def eval_fraction(self, t: Fraction) -> Fraction:
        if t <= 0:
            return Fraction(0)
        if 2 * t >= self.gaps[-1]:
            return Fraction(1)
        n_above, s_below = self._split(2 * t)
        return (2 * t * n_above + s_below) / self.modulus

    @property
    def breakpoints(self) -> list[float]:
        return [g / 2.0 for g in self.gaps]

    @property
    def values(self) -> list[float]:
        return [self(b) for b in self.breakpoints]


_cdf_cache: dict[int, PiecewiseCdf] = {}
_cdf_lock = threading.Lock()


def coprime_dist_cdf(q: int) -> PiecewiseCdf:
    """Exact law of ``||q x||'``; cached per radical of q."""
    if q < 1:
        raise ValueError("q must be >= 1")
    r = radical(q)
    cdf = _cdf_cache.get(r)
    if cdf is None:
        gaps, counts = gap_multiset(r)
        cdf = PiecewiseCdf(r, gaps, counts)
        with _cdf_lock:
            _cdf_cache.setdefault(r, cdf)
    return cdf


_gap_cache: dict[int, tuple[int, float, float, int]] = {}
_gap_lock = threading.Lock()


def _gap_stats(m: int) -> tuple[int, float, float, int]:
    """(phi, L, P, G) of the cyclic coprime gaps g_i of m; cached per m.

    L = sum log g_i, P = sum log(g_{i-1} + g_i) and G = max g_i.  Both sums
    are ``math.fsum`` of libm logs of integers >= 1, so each is within 3u
    relative: 2u from the logs, all >= 0, and u from the rounded sum.
    """
    stats = _gap_cache.get(m)
    if stats is None:
        gaps = _cyclic_gaps(m)[1]
        merged = gaps + np.roll(gaps, 1)
        stats = (
            gaps.size,
            math.fsum(map(math.log, gaps.tolist())),
            math.fsum(map(math.log, merged.tolist())),
            int(gaps.max()),
        )
        with _gap_lock:
            _gap_cache.setdefault(m, stats)
    return stats


def _gap_log_sum(q: int) -> tuple[int, int, float]:
    """(r, phi(r), L_r) for r = rad(q), L_r = sum of log(gap) over r's cyclic coprime gaps.

    Lifting along the largest prime p of r, with s = r/p: every unit of s
    lifts to p residues mod r, exactly one of them divisible by p, and
    dropping that one merges the two gaps of s around it.  When p exceeds
    every gap of s no two dropped residues are neighbours, so
    phi(r) = (p - 1) phi(s) and L_r = (p - 2) L_s + P_s, with s's data
    from ``_gap_stats`` (few distinct s occur).  Otherwise r's own gaps
    are taken.  r = 1 gives (1, 0) and a prime (p - 1, log 2).  L_r is
    within 5u relative: 3u from L_s and P_s, then one product and one sum.
    Serves the public n = 2 entry below delta = 1/4 (``_lifted_terms``),
    which builds no ``PiecewiseCdf``.
    """
    primes = prime_factors(q)
    if not primes:
        return 1, 1, 0.0
    r = math.prod(primes)
    p = primes[-1]
    phi_s, log_s, merged_s, max_gap_s = _gap_stats(r // p)
    if p > max_gap_s:
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


_GL7 = np.polynomial.legendre.leggauss(7)
_GL15 = np.polynomial.legendre.leggauss(15)


def _gl_panel(fn, a: float, b: float, rule) -> float:
    nodes, weights = rule
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * float(np.sum(weights * np.array([fn(mid + half * x) for x in nodes])))


def _product_cdf_rec(
    cdf: PiecewiseCdf, k: int, delta: float, tol: float, max_panels: int = 4000
) -> tuple[float, float]:
    """(value, error bound) of the k-fold product CDF at delta."""
    T = cdf.max_distance
    if delta <= 0.0:
        return 0.0, 0.0
    if delta >= T**k:
        return 1.0, 0.0
    if k == 1:
        value = cdf(delta)
        # 2t n_above, + s_below, / r: three roundings, rounded up to 4u
        return value, 4.0 * _U * value + _TINY
    if k == 2:
        return _product_law2(delta, *cdf.law2_terms(4.0 * delta))
    child_tol = 0.5 * tol
    quad_tol = 0.5 * tol
    r = cdf.modulus

    def child(u: float) -> float:
        return _product_cdf_rec(cdf, k - 1, u, child_tol)[0]

    # density breakpoints; below cut the child CDF is exactly 1
    cut = delta / T ** (k - 1)
    pieces = sorted({0.0, T, min(cut, T)} | {g / 2.0 for g in cdf.gaps if g / 2.0 < T})
    total = 0.0
    err = 0.0
    panels: list[tuple[float, float, float]] = []
    for t1, t2 in zip(pieces[:-1], pieces[1:]):
        if t2 <= t1:
            continue
        tm = 0.5 * (t1 + t2)
        n_density, _ = cdf._split(2.0 * tm)
        if n_density == 0:
            continue
        c_f = 2.0 * n_density / r
        if t2 <= cut:
            total += c_f * (t2 - t1)
        else:
            panels.append((t1, t2, c_f))
    work = [(a, b, cf) for a, b, cf in panels]
    used = 0
    while work:
        a, b, cf = work.pop()
        used += 1
        if used > max_panels:
            best = total + sum(
                cf2 * _gl_panel(lambda t: child(delta / t), a2, b2, _GL15)
                for a2, b2, cf2 in work + [(a, b, cf)]
            )
            raise ConvergenceError(
                f"adaptive refinement exceeded {max_panels} panels", best, err + quad_tol
            )
        fn = lambda t: child(delta / t)
        coarse = cf * _gl_panel(fn, a, b, _GL7)
        fine = cf * _gl_panel(fn, a, b, _GL15)
        panel_err = abs(fine - coarse)
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
    """|{x in [0,1]^n : prod ||q x_i||' < delta}| to absolute tolerance tol.

    n = 2 is the gap-pair mixture of the module docstring at every delta,
    from the table of ``coprime_dist_cdf(q)``.  Below delta = 1/4 its terms
    need only phi(r) and L_r, the sum of log(gap) over the cyclic coprime
    gaps of r = rad(q); L_r is lifted from s = r/p, p the largest prime of
    r, when p exceeds every coprime gap of s, and taken from r's own gaps
    otherwise: O(1) per q after factoring, no table of r.  n >= 3 uses
    adaptive quadrature down to the n = 2 law.  The error bound is the
    derived rounding bound for n <= 2 and the quadrature bound for n >= 3.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
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


def truncated_union_1d(
    f: ApproxFunction,
    Q0: int,
    Q: int,
    coprime: bool = False,
    budget: int = INTERVAL_BUDGET,
    exact: bool | None = None,
) -> MeasureEstimate:
    """Exact measure of the union of 1-D slices for Q0 <= q <= Q.

    Rational table families are swept exactly, in integers (see the module
    docstring), when ``exact`` is true, the default for such families.
    Sweeps whose interval count would exceed ``budget`` raise
    ResourceBudgetError.  The range is read in blocks of q, each checked
    for an infinite psi, then counted, then turned into slices, so an
    oversized range fails before it is built, and the first failure in q
    order is the one raised.
    """
    if not 1 <= Q0 <= Q:
        raise ValueError("need 1 <= Q0 <= Q")
    if exact is None:
        exact = isinstance(f, TablePsi) and f.is_rational
    # rationality is a property of the whole family, so one q tells
    rational = f.value_fraction(Q0) is not None
    slices = []
    count = 0
    for lo in range(Q0, Q + 1, SCAN_BLOCK):
        qs = np.arange(lo, min(lo + SCAN_BLOCK, Q + 1), dtype=np.int64)
        psis = f.values(qs)
        if not np.all(np.isfinite(psis)):
            raise ValueError("family evaluates to +inf inside the truncation range")
        live = psis > 0
        count += int(np.sum(phi_values(qs[live]) if coprime else qs[live] + 1))
        if count > budget:
            raise ResourceBudgetError(
                f"sweep would build more than budget={budget} intervals; raise the budget explicitly"
            )
        if not exact:
            pairs = zip(qs[live].tolist(), psis[live].tolist())
            slices += [_slice_raw_intervals(q, d, coprime) for q, d in pairs]
        elif rational:
            pairs = ((q, f.value_fraction(q)) for q in qs.tolist())
            slices += [_slice_numerators(q, d, coprime) for q, d in pairs if d > 0]
    if exact and not rational:
        raise ValueError("exact sweep requires a rational-valued family")
    if not slices:
        return MeasureEstimate.exact(0.0)
    if exact:
        return MeasureEstimate.exact(min(1, _exact_union_measure(slices)))
    starts = np.clip(np.concatenate([s for s, _ in slices]), 0.0, 1.0)
    ends = np.clip(np.concatenate([e for _, e in slices]), 0.0, 1.0)
    return MeasureEstimate.exact(min(1.0, union_measure_raw(starts, ends)))
