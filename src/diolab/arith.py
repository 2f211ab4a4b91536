"""Number-theoretic kernel: totient sieve, integer distances, coprime structure.

Conventions used throughout the package:

* Euler phi has one kernel, ``phi_segment(lo, hi)``, a segmented sieve that
  keeps nothing between calls but its wheel.  ``phi_values(qs)`` factors sparse
  q and sieves the rest by it; ``euler_phi(q)`` is a one-element call, which factors.
* ``dist_nearest(q, x)`` is the distance from ``q*x`` to the nearest integer,
  always in ``[0, 1/2]``.
* ``dist_nearest_coprime(q, x)`` restricts the nearest integer to those
  coprime to ``q``; it can exceed ``1/2`` (up to half the largest run of
  non-coprime residues).
* Residues coprime to ``q`` are taken in ``[0, q)`` and their cyclic gaps sum
  to ``q``, so the gap table carries exactly the geometry of coprime
  fractions on the unit circle.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

__all__ = [
    "PhiTable",
    "coprime_gaps",
    "coprime_residues",
    "dist_nearest",
    "dist_nearest_coprime",
    "euler_phi",
    "gap_multiset",
    "is_prime",
    "nearest_coprime_distance",
    "padic_abs",
    "phi_segment",
    "phi_values",
    "prime_factors",
    "primes_up_to",
    "radical",
]


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending (classic boolean sieve)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


SCAN_BLOCK = 1 << 16  # entries per block of a streamed pass: a divergence-sum scan, a union's budget count
SIEVE_CHUNK = 1 << 18  # entries per phi_segment call of a streamed pass: four scan blocks
_STRIDED = 1 << 14  # prime powers up to this take one strided pass each; larger ones are gathered


@functools.cache
def _wheel() -> tuple[np.ndarray, np.ndarray]:
    """Over one period of q mod 2310, the products of p - 1 and of p over the primes p <= 11 dividing q."""
    phi, smooth = np.ones((2, 2310), dtype=np.int32)
    for p in (2, 3, 5, 7, 11):
        phi[::p] *= p - 1
        smooth[::p] *= p
    return phi, smooth


def phi_segment(lo: int, hi: int) -> np.ndarray:
    """Euler phi for lo <= q < hi (1 <= lo <= hi), from the primes <= isqrt(hi - 1) alone.

    phi and ``smooth`` start from the wheel, which holds the first powers
    of 2..11.  Every other prime power p**k < hi multiplies phi by p - 1
    (k = 1) or p (k > 1), and smooth by p, at its multiples: one strided
    pass each up to _STRIDED, one ``np.multiply.at`` (which handles
    repeated indices) for all above.  The cofactor q // smooth is then 1 or
    one prime P > isqrt(hi - 1), which contributes P - 1.  Every product
    divides q, so int32 holds it while hi <= 2**31, and int64 beyond.
    Memory is O(hi - lo): streamed callers take SIEVE_CHUNK entries at a time.
    """
    if not 1 <= lo <= hi:
        raise ValueError("phi_segment needs 1 <= lo <= hi")
    dtype = np.int32 if hi <= 2**31 else np.int64
    n = hi - lo
    phi, smooth = (np.resize(np.roll(w, -(lo % w.size)), n).astype(dtype, copy=False) for w in _wheel())
    gathered, factors = [], []
    for p in primes_up_to(math.isqrt(hi - 1)).tolist():
        pk, f = (p * p, p) if p <= 11 else (p, p - 1)
        while pk < hi:
            start = -lo % pk
            if pk <= _STRIDED:
                phi[start::pk] *= f
                smooth[start::pk] *= p
            elif start < n:
                gathered.append(np.arange(start, n, pk))
                factors.append((f, p))
            pk, f = pk * p, p
    if gathered:
        idx = np.concatenate(gathered)
        per_index = np.repeat(np.array(factors, dtype=dtype), [i.size for i in gathered], axis=0)
        np.multiply.at(phi, idx, per_index[:, 0])
        np.multiply.at(smooth, idx, per_index[:, 1])
    cofactor = np.arange(lo, hi, dtype=dtype)
    cofactor //= smooth
    cofactor -= 1
    phi *= np.maximum(cofactor, 1, out=cofactor)
    return phi


class PhiTable:
    """Euler phi for 0 <= q <= limit in one read-only int64 array, ``values``: 8 B per q, which no diolab reader builds."""

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("PhiTable limit must be >= 1")
        self.limit = int(limit)
        self.values = np.concatenate(([0], phi_values(np.arange(1, self.limit + 1))))
        self.values.setflags(write=False)


def prime_factors(q: int) -> list[int]:
    """Distinct prime factors of q >= 1 by trial division, ascending."""
    if q < 1:
        raise ValueError("q must be >= 1")
    out = []
    n = q
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_prime(p: int) -> bool:
    return p >= 2 and prime_factors(p) == [p]


def radical(q: int) -> int:
    """Product of the distinct primes dividing q (1 for q=1)."""
    r = 1
    for p in prime_factors(q):
        r *= p
    return r


def phi_values(qs) -> np.ndarray:
    """Euler phi over an int array of q >= 1 (each fitting int64), exact either way it is taken.

    Factoring costs about isqrt(q) steps per entry and sieving at most
    qs.max(), so each q is factored when qs.size * isqrt(qs.max()) <=
    qs.max(), as one q always is.  Otherwise the sorted q are sieved by
    ``phi_segment`` in windows of at most SIEVE_CHUNK, each from the next q.
    """
    qs = np.asarray(qs, dtype=np.int64)
    if qs.min(initial=1) < 1:
        raise ValueError("Euler phi requires q >= 1")
    top = int(qs.max(initial=1))
    if qs.size * math.isqrt(top) <= top:
        return np.array([_factored_phi(q) for q in qs.ravel().tolist()], dtype=np.int64).reshape(qs.shape)
    order = np.argsort(qs, axis=None, kind="stable")  # timsort: linear on the sorted blocks callers pass
    ordered = qs.ravel()[order]
    phis = np.empty(qs.size, dtype=np.int64)
    i = 0
    while i < qs.size:
        lo = int(ordered[i])
        j = int(np.searchsorted(ordered, lo + SIEVE_CHUNK))
        phis[order[i:j]] = phi_segment(lo, int(ordered[j - 1]) + 1)[ordered[i:j] - lo]
        i = j
    return phis.reshape(qs.shape)


def _factored_phi(q: int) -> int:
    for p in prime_factors(q):
        q = q // p * (p - 1)
    return q


def euler_phi(q: int) -> int:
    """Euler phi of q >= 1: a one-element ``phi_values`` call, which factors q."""
    return int(phi_values([q])[0])


def dist_nearest(q: int, x: float) -> float:
    """Distance from q*x to the nearest integer, in [0, 1/2]."""
    if q < 1:
        raise ValueError("q must be >= 1")
    y = math.fmod(q * x, 1.0)
    if y < 0.0:
        y += 1.0
    return min(y, 1.0 - y)


def nearest_coprime_distance(y: float, modulus: int) -> float:
    """min |y - p| over integers p with gcd(p, modulus) = 1.

    Candidates are scanned outward from round(y) in order of increasing
    distance; the scan provably terminates within ``modulus`` steps because
    every window of ``modulus`` consecutive integers contains a unit.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    p0 = round(y)
    delta = y - p0
    if math.gcd(p0, modulus) == 1:
        return abs(delta)
    # near side first: |delta -+ k| = k - |delta| before k + |delta|
    near = 1 if delta > 0 else -1
    for k in range(1, modulus + 1):
        if math.gcd(p0 + near * k, modulus) == 1:
            return k - abs(delta)
        if math.gcd(p0 - near * k, modulus) == 1:
            return k + abs(delta)
    raise RuntimeError("no coprime integer found within the proven bound")


def dist_nearest_coprime(q: int, x: float) -> float:
    """Distance from q*x to the nearest integer coprime to q (>= dist_nearest)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return nearest_coprime_distance(q * x, q)


def coprime_residues(q: int) -> np.ndarray:
    """Sorted residues r in [0, q) with gcd(r, q) = 1."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if q == 1:
        return np.zeros(1, dtype=np.int64)
    mask = np.ones(q, dtype=bool)
    for p in prime_factors(q):
        mask[::p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _cyclic_gaps(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Coprime residues of q and the gap from each to the next, cyclically (summing to q)."""
    res = coprime_residues(q)
    gaps = np.empty_like(res)
    np.subtract(res[1:], res[:-1], out=gaps[:-1])
    gaps[-1] = res[0] + q - res[-1]  # the wrap-around gap; q itself when q has one unit
    return res, gaps


def coprime_gaps(q: int) -> list[tuple[int, int]]:
    """(residue, gap to next coprime residue) pairs, cyclic, gaps summing to q."""
    res, gaps = _cyclic_gaps(q)
    return list(zip(res.tolist(), gaps.tolist()))


def gap_multiset(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct cyclic gap lengths between coprime residues, with counts."""
    return np.unique(_cyclic_gaps(q)[1], return_counts=True)


def padic_abs(q: int, p: int) -> Fraction:
    """p-adic absolute value |q|_p = p**(-v) with p**v the exact power dividing q."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    v = 0
    n = q
    while n % p == 0:
        v += 1
        n //= p
    return Fraction(1, p**v)
