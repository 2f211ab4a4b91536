"""Approximating-function families and divergence-sum criteria.

Family conventions
------------------
* ``power_log(c, a, b)`` evaluates ``c * q**(-a) / log(q + 1)**b``.  The log
  sits on ``q + 1`` so the family itself is finite at q = 1; this is a family
  convention only.  Criterion weights stay literal: ``log(q)**(n-1)`` really
  is 0 at q = 1 for n >= 2, and is the empty product 1 when n = 1.
* All logarithms are natural.
* Division conventions for conditional families: ``a/0 = +inf`` for a > 0 and
  ``0/0 = 0``.
* Divergence of a series is metadata attached to a family, never inferred
  from finite partial sums.  Closed-form families carry computed metadata;
  table and derived families report "unknown".
* Each family defines only ``values(qs)``, its evaluation over an int array.
  The scalar ``f(q)`` is a one-element call of it, ``f.values([q])[0]`` bit
  for bit, so a scalar reader and a vector reader always see the same psi.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .arith import PhiTable as default_phi_table  # not called here: bench/tracing.py times table builds by this name
from .arith import SCAN_BLOCK, SIEVE_CHUNK, is_prime, phi_segment, phi_values, primes_up_to, range_array
from .errors import UndefinedRatioError

__all__ = [
    "ApproxFunction",
    "CONVERGENT",
    "DIVERGENT",
    "SumCriterion",
    "SupportPredicate",
    "UNKNOWN",
    "WeightFn",
    "adversarial_primorial",
    "cond1_ratio",
    "cond1_scan",
    "conditional_psi",
    "family_from_spec",
    "indicator_support",
    "padic_weighted_psi",
    "partial_sum",
    "partial_sum_scan",
    "power_log",
    "table_psi",
]

DIVERGENT = "known-divergent"
CONVERGENT = "known-convergent"
UNKNOWN = "unknown"

CRITERION_KINDS = ("plain", "log_weighted", "phi_log_weighted", "phi_plain")


@dataclass(frozen=True)
class SumCriterion:
    """One of the four divergence-sum criteria, at dimension n.

    kind:
      plain              sum psi(q)
      log_weighted       sum psi(q) * log(q)**(n-1)
      phi_log_weighted   sum (phi(q)/q)**n * psi(q) * log(q)**(n-1)
      phi_plain          sum (phi(q)/q)**n * psi(q)
    """

    kind: str
    n: int = 1

    def __post_init__(self):
        if self.kind not in CRITERION_KINDS:
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("criterion dimension n must be >= 1")

    @property
    def log_exponent(self) -> int:
        return self.n - 1 if self.kind in ("log_weighted", "phi_log_weighted") else 0

    @property
    def uses_phi(self) -> bool:
        return self.kind in ("phi_log_weighted", "phi_plain")


class ApproxFunction:
    """Base for approximating functions psi: N -> [0, +inf].

    Instances are immutable value objects.  A family defines only
    ``values(qs)``, which evaluates a whole int array at once; the scalar
    ``f(q)`` is ``f.values([q])[0]`` bit for bit, so q must fit in int64.
    A one-element call pays numpy's fixed cost per call, so loops over many
    q should read one ``values`` array.

    The support contract: ``nonzero_support`` is a pair (step, last), with
    last an int or None for no end.  It promises that ``values`` is exactly
    +0.0, for every input, at each q >= 1 that is not a multiple of step or
    lies past last.  A family derives it from its own definition, and
    declares one only where that holds whatever its parameters; the default
    (1, None) promises nothing.  ``support_range`` is its one reader: the
    divergence scans, ``truncated_union_1d``, ``estimate_union_measure``,
    ``solution_counts``, ``exact_event_stats_1d`` and ``run_bc_evidence``
    read only the q it returns.  That changes no sum and no strict
    membership: each skipped psi is +0.0.
    """

    nonzero_support: tuple = (1, None)

    def support_range(self, Q0: int, Q: int) -> range:
        """The q of [Q0, Q] that ``nonzero_support`` leaves, the multiples of step up to last; ValueError past int64."""
        step, last = self.nonzero_support
        qs = range(-(-Q0 // step) * step, (Q if last is None else min(Q, last)) + 1, step)
        if qs and qs[-1] > np.iinfo(np.int64).max:
            raise ValueError(f"the support would read q = {qs[-1]}, past int64")
        return qs

    def __call__(self, q: int) -> float:
        if q < 1:
            raise ValueError("q must be >= 1")
        return float(self.values(np.array([q], dtype=np.int64))[0])

    def values(self, qs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def divergence(self, criterion: SumCriterion) -> str:
        return UNKNOWN

    def spec_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class PowerLog(ApproxFunction):
    c: float
    a: float
    b: float

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("power_log coefficient c must be >= 0")

    def values(self, qs: np.ndarray) -> np.ndarray:
        qs = np.asarray(qs, dtype=np.float64)
        out = self.c * qs ** (-self.a)
        # x ** -+0.0 is 1.0 for every x, and a product with 1.0 is the other factor
        return out * np.log(qs + 1.0) ** (-self.b) if self.b else out

    def divergence(self, criterion: SumCriterion) -> str:
        # The summand is ~ c * q**(-a) * log(q)**(e) with e = n-1-b for the
        # log-weighted kinds.  The phi factor has a positive mean value, so by
        # partial summation it does not change convergence for these regular
        # families; the integral test settles the rest.
        if self.c == 0:
            return CONVERGENT
        e = criterion.log_exponent - self.b
        if self.a < 1:
            return DIVERGENT
        if self.a > 1:
            return CONVERGENT
        return DIVERGENT if e >= -1 else CONVERGENT

    def spec_dict(self) -> dict:
        return {"family": "power_log", "c": self.c, "a": self.a, "b": self.b}


@dataclass(frozen=True)
class TablePsi(ApproxFunction):
    entries: tuple

    def __post_init__(self):
        for v in self.entries:
            if not isinstance(v, (int, float, Fraction)):
                raise ValueError("table entries must be numbers")
            if not v >= 0:  # also rejects nan
                raise ValueError("table entries must be >= 0")

    @cached_property
    def _floats(self) -> np.ndarray:
        # built once per instance; the trailing 0.0 serves every q beyond the table
        return np.array([float(v) for v in self.entries] + [0.0])

    def values(self, qs: np.ndarray) -> np.ndarray:
        qs = np.asarray(qs, dtype=np.int64)
        idx = np.where(qs <= len(self.entries), qs - 1, len(self.entries))
        return self._floats[idx]

    @property
    def nonzero_support(self) -> tuple:
        """Every q up to the last entry: past it, q reads the trailing 0.0."""
        return 1, len(self.entries)

    def spec_dict(self) -> dict:
        vals = [str(v) if isinstance(v, Fraction) else v for v in self.entries]
        return {"family": "table", "values": vals}


@dataclass(frozen=True)
class SupportPredicate:
    """Named support predicate for indicator families."""

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in ("multiples_of", "primorial_multiples", "phi_ratio_below"):
            raise ValueError(f"unknown support predicate {self.kind!r}")
        if self.kind in ("multiples_of", "primorial_multiples") and int(self.param) < 1:
            raise ValueError("modulus parameter must be >= 1")

    @cached_property
    def modulus(self) -> int:
        if self.kind == "multiples_of":
            return int(self.param)
        if self.kind == "primorial_multiples":  # the first k primes, multiplied as Python ints
            # the 16 primes up to 53 already multiply past int64, so a larger k has the same (empty) mask
            return math.prod(primes_up_to(53)[: int(self.param)].tolist())
        raise ValueError("predicate has no modulus")

    def mask(self, qs: np.ndarray) -> np.ndarray:
        qs = np.asarray(qs, dtype=np.int64)
        if self.kind == "phi_ratio_below":
            return phi_values(qs) / qs < self.param
        if self.modulus > np.iinfo(np.int64).max:
            return np.zeros(qs.shape, dtype=bool)  # no q that fits int64 is a multiple
        return qs % self.modulus == 0

    def spec_dict(self) -> dict:
        return {"kind": self.kind, "param": self.param}


@dataclass(frozen=True)
class IndicatorSupport(ApproxFunction):
    base: ApproxFunction
    support: SupportPredicate

    def values(self, qs: np.ndarray) -> np.ndarray:
        qs = np.asarray(qs, dtype=np.int64)
        return np.where(self.support.mask(qs), self.base.values(qs), 0.0)

    @property
    def nonzero_support(self) -> tuple:
        """The base's, narrowed to the multiples of a modulus: off the mask the value is the literal 0.0."""
        step, last = self.base.nonzero_support
        if self.support.kind == "phi_ratio_below":
            return step, last
        return math.lcm(step, self.support.modulus), last

    def spec_dict(self) -> dict:
        return {
            "family": "indicator_support",
            "base": self.base.spec_dict(),
            "support": self.support.spec_dict(),
        }


@dataclass(frozen=True)
class ConditionalPsi(ApproxFunction):
    """base(q) / prod ||q * x_i|| with a/0 = +inf for a > 0 and 0/0 = 0."""

    base: ApproxFunction
    anchors: tuple

    def __post_init__(self):
        if not self.anchors:
            raise ValueError("conditional family needs at least one anchor")

    def values(self, qs: np.ndarray) -> np.ndarray:
        qs = np.asarray(qs, dtype=np.int64)
        d = np.ones(qs.shape, dtype=np.float64)
        for x in self.anchors:
            y = np.mod(qs * float(x), 1.0)
            d *= np.minimum(y, 1.0 - y)
        b = self.base.values(qs)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.where(d > 0.0, b / np.where(d > 0.0, d, 1.0), np.where(b > 0.0, np.inf, 0.0))
        return out

    @property
    def nonzero_support(self) -> tuple:
        """The base's: where the base is +0.0, so is 0/d for d > 0, and 0/0 is taken as 0."""
        return self.base.nonzero_support

    def spec_dict(self) -> dict:
        return {
            "family": "conditional",
            "base": self.base.spec_dict(),
            "anchors": list(self.anchors),
        }


@dataclass(frozen=True)
class WeightFn:
    """Positive weight applied to a p-adic absolute value.

    kind "power": f(t) = t**exponent; kind "const": f(t) = value > 0.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in ("power", "const"):
            raise ValueError(f"unknown weight function kind {self.kind!r}")
        if self.kind == "const" and self.param <= 0:
            raise ValueError("constant weight must be positive")

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """f over an array of p-adic absolute values."""
        return np.full_like(t, self.param) if self.kind == "const" else t**self.param

    def spec_dict(self) -> dict:
        return {"kind": self.kind, "param": self.param}


def _padic_abs_array(qs: np.ndarray, p: int) -> np.ndarray:
    """|q|_p over an int array: the valuation v counted per entry, then 1 / p**v.

    p**v divides q, so it is an exact int64, and the one division rounds
    correctly: the float of ``arith.padic_abs(q, p)`` bit for bit.
    """
    v = np.zeros(qs.shape, dtype=np.int64)
    rem = qs.astype(np.int64)
    divisible = rem % p == 0
    while divisible.any():
        v += divisible
        rem[divisible] //= p
        divisible &= rem % p == 0
    return 1.0 / np.power(p, v)


@dataclass(frozen=True)
class PadicWeightedPsi(ApproxFunction):
    """base(q) / prod_i f_i(|q|_{p_i}), the effective function of the weighted inequality."""

    base: ApproxFunction
    primes: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.primes) != len(self.weights):
            raise ValueError("primes and weights must pair up")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("primes must be distinct")
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")

    def values(self, qs: np.ndarray) -> np.ndarray:
        qs = np.asarray(qs, dtype=np.int64)
        w = np.ones(qs.shape, dtype=np.float64)
        for p, fn in zip(self.primes, self.weights):
            w *= fn(_padic_abs_array(qs, p))
        return self.base.values(qs) / w

    def spec_dict(self) -> dict:
        return {
            "family": "padic_weighted",
            "base": self.base.spec_dict(),
            "primes": list(self.primes),
            "weights": [w.spec_dict() for w in self.weights],
        }


# ---------------------------------------------------------------------------
# constructors


def power_log(c: float, a: float, b: float) -> PowerLog:
    """psi(q) = c * q**(-a) / log(q+1)**b."""
    return PowerLog(float(c), float(a), float(b))


def table_psi(values: Sequence) -> TablePsi:
    """Explicit table, 1-indexed; q beyond the table evaluates to 0."""
    return TablePsi(tuple(values))


def indicator_support(base: ApproxFunction, kind: str, param: float) -> IndicatorSupport:
    return IndicatorSupport(base, SupportPredicate(kind, param))


def conditional_psi(base: ApproxFunction, anchors: Sequence[float]) -> ConditionalPsi:
    return ConditionalPsi(base, tuple(float(x) for x in anchors))


def padic_weighted_psi(
    base: ApproxFunction,
    primes: Sequence[int],
    weights: Sequence[WeightFn | tuple],
) -> PadicWeightedPsi:
    wfs = tuple(w if isinstance(w, WeightFn) else WeightFn(*w) for w in weights)
    return PadicWeightedPsi(base, tuple(int(p) for p in primes), wfs)


def adversarial_primorial(k: int = 4, c: float = 1.0, a: float = 1.0, b: float = 0.0) -> IndicatorSupport:
    """Family supported only on multiples of the k-th primorial.

    Heuristic stress case: on the support, phi(q)/q is at most the primorial's
    own ratio, which drives the phi-weighted sums far below the unweighted
    ones.  Divergence metadata stays "unknown" by design.
    """
    return indicator_support(power_log(c, a, b), "primorial_multiples", k)


# ---------------------------------------------------------------------------
# partial sums and the limsup-ratio condition


def _checkpoints(grid: Sequence[int]) -> list[int]:
    grid = sorted(set(int(g) for g in grid))
    if not grid or grid[0] < 1:
        raise ValueError("grid checkpoints must be >= 1")
    return grid


def _log_weighted(f: ApproxFunction, e: int, qs: np.ndarray) -> np.ndarray:
    """psi(q) * log(q)**e over one block of q."""
    vals = f.values(qs)
    if not np.all(np.isfinite(vals)):
        raise ValueError("family evaluates to +inf inside the summation range")
    if e > 0:
        logs = np.log(qs.astype(np.float64))
        vals = vals * (logs if e == 1 else logs**e)  # x ** 1 is x
    return vals


def _scan(grid: list[int], qs: range, reads_phi: bool, streams: int, terms) -> list[np.ndarray]:
    """Running sums of each term stream at the grid checkpoints, over the support q of 1..grid[-1].

    qs is a family's ``support_range(1, grid[-1])``: q = step*j for j = 1,
    2, ..., read SCAN_BLOCK at a time.  ``terms(qs, phis)`` gives one
    block's ``streams`` term arrays; phis is phi over the block when
    ``reads_phi``, else None.  Each block adds the carried total into its
    first term and then takes ``np.cumsum``, which adds in the same order
    as one cumsum over 1..Q; every q skipped has a +0.0 term, and s + 0.0
    is s, so the sums are bit for bit the same.  A checkpoint reads the
    total at the last support q at or before it: 0.0 before the first, the
    carried total past the last.  phi(step*j) comes from ``phi_segment``
    SIEVE_CHUNK indices j at a time, sliced into the blocks.  So time
    follows the support, not the range, at O(len(qs)), and memory is
    O(isqrt(len(qs)) + SIEVE_CHUNK).
    """
    reads = np.array([bisect_right(qs, g) for g in grid], dtype=np.int64)  # support q at or before each checkpoint
    carried, picked = [0.0] * streams, [[np.zeros(np.count_nonzero(reads == 0))] for _ in range(streams)]
    for lo in range(0, len(qs), SCAN_BLOCK):
        block = range_array(qs[lo : lo + SCAN_BLOCK])
        at = reads[(reads > lo) & (reads <= lo + block.size)] - lo - 1
        if reads_phi and lo % SIEVE_CHUNK == 0:
            chunk = phi_segment(lo + 1, min(lo + SIEVE_CHUNK, len(qs)) + 1, qs.step)
        phis = chunk[lo % SIEVE_CHUNK :][: block.size] if reads_phi else None
        for j, t in enumerate(terms(block, phis)):
            t = np.array(t, dtype=np.float64)  # our own copy: the carry goes into its first term
            t[0] += carried[j]
            np.cumsum(t, out=t)
            carried[j] = t[-1]
            if not math.isfinite(carried[j]):  # terms are >= 0, so a sum that overflows stays inf
                raise ValueError(f"a running sum overflows float64 by q = {block[-1]}")
            picked[j].append(t[at])
    return [np.concatenate(p) for p in picked]


def partial_sum(f: ApproxFunction, criterion: SumCriterion, Q: int) -> float:
    """Sum of the criterion's summand for q = 1..Q (natural logs): the scan at one checkpoint."""
    return partial_sum_scan(f, criterion, [Q])[0][1]


def partial_sum_scan(
    f: ApproxFunction, criterion: SumCriterion, grid: Sequence[int]
) -> list[tuple[int, float]]:
    """Partial sums at each grid checkpoint, streamed over q in blocks of SCAN_BLOCK.

    Only the q of the family's ``support_range`` are read (see ``_scan``),
    so cost follows the support, not the range.  Memory is O(SCAN_BLOCK)
    when nothing reads phi, and O(isqrt(Q / step) + SIEVE_CHUNK) when the
    criterion or the family does.
    """
    grid = _checkpoints(grid)
    e, n = criterion.log_exponent, criterion.n

    def terms(qs, phis):
        out = _log_weighted(f, e, qs)
        return [out * (phis / qs) ** n if criterion.uses_phi else out]

    (sums,) = _scan(grid, f.support_range(1, grid[-1]), criterion.uses_phi, 1, terms)
    return [(g, float(s)) for g, s in zip(grid, sums)]


def cond1_ratio(f: ApproxFunction, n: int, Q: int) -> float:
    """Ratio of the phi-log-weighted to the log-weighted partial sum at Q: the scan at one checkpoint.

    Raises UndefinedRatioError when the log-weighted sum is zero at Q.
    """
    return cond1_scan(f, n, [Q])[0][0][1]


def cond1_scan(f: ApproxFunction, n: int, grid: Sequence[int]) -> tuple[list[tuple[int, float]], float]:
    """Ratio at each checkpoint plus the running maximum (limsup proxy).

    Streamed like ``partial_sum_scan``, over the family's support; the
    log-weighted summand is computed once per block and the numerator is it
    times (phi(q)/q)**n.
    Checkpoints with a zero denominator are skipped.
    """
    grid = _checkpoints(grid)

    def terms(qs, phis):
        den = _log_weighted(f, n - 1, qs)
        return [den * (phis / qs) ** n, den]

    num, den = _scan(grid, f.support_range(1, grid[-1]), True, 2, terms)
    points = [(g, float(a / b)) for g, a, b in zip(grid, num, den) if b > 0.0]
    if not points:
        raise UndefinedRatioError("log-weighted partial sum is zero on the whole grid")
    return points, max(r for _, r in points)


# ---------------------------------------------------------------------------
# config serialization


def family_from_spec(d: dict) -> ApproxFunction:
    """Rebuild a family from its spec dict (the experiment-config format)."""
    if not isinstance(d, dict):
        raise ValueError(f"a family spec must be an object, not {type(d).__name__}")
    kind = d.get("family")
    if kind == "power_log":
        return power_log(d["c"], d["a"], d["b"])
    if kind == "table":
        vals = [Fraction(v) if isinstance(v, str) else v for v in d["values"]]
        return table_psi(vals)
    if kind == "indicator_support":
        sup = d["support"]
        return indicator_support(family_from_spec(d["base"]), sup["kind"], sup["param"])
    if kind == "conditional":
        return conditional_psi(family_from_spec(d["base"]), d["anchors"])
    if kind == "padic_weighted":
        weights = [WeightFn(w["kind"], w["param"]) for w in d["weights"]]
        return padic_weighted_psi(family_from_spec(d["base"]), d["primes"], weights)
    raise ValueError(f"unknown family name {kind!r}")
