"""Number-theoretic kernel: totient sieve, integer distances, coprime structure.

Conventions used throughout the package:

* Euler phi has one kernel, ``phi_segment(lo, hi, step)``: phi(step*j) over
  an interval of j, sieved and lifted by multiplicativity, keeping nothing
  between calls but its wheel.  ``phi_values(qs)`` factors sparse q and
  sieves the rest by it; ``euler_phi(q)`` is a one-element call, which factors.
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
    "radical_segment",
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


def range_array(qs: range) -> np.ndarray:
    """The q of a range as one int64 array; every q must fit int64."""
    return np.arange(qs.start, qs.stop, qs.step, dtype=np.int64)


@functools.cache
def _wheel() -> tuple[np.ndarray, np.ndarray]:
    """Over one period of q mod 2310, the products of p - 1 and of p over the primes p <= 11 dividing q."""
    phi, smooth = np.ones((2, 2310), dtype=np.int32)
    for p in (2, 3, 5, 7, 11):
        phi[::p] *= p - 1
        smooth[::p] *= p
    return phi, smooth


def phi_segment(lo: int, hi: int, step: int) -> np.ndarray:
    """Euler phi of q = step*j for lo <= j < hi (1 <= lo <= hi, step >= 1); ValueError if a q passes int64.

    phi(j) is sieved from the primes <= isqrt(hi - 1) alone: the wheel holds
    the first powers of 2..11, every other prime power p**k < hi multiplies
    phi by p - 1 (k = 1) or p (k > 1) and ``smooth`` by p at its multiples
    (strided up to _STRIDED, one ``np.multiply.at`` above), and the cofactor
    j // smooth is 1 or one prime P > isqrt(hi - 1), giving P - 1.  A step
    > 1 is lifted by phi(step*j) = phi(j) * step * prod (p - 1)/p over the
    primes p of step not dividing j.  Every product divides step*j: int32
    below 2**31, int64 beyond.  Cost is O(hi - lo + isqrt(hi)) at any step.
    """
    if not 1 <= lo <= hi or step < 1:
        raise ValueError("phi_segment needs 1 <= lo <= hi and step >= 1")
    top = step * max(hi - 1, 1)  # the last q, or step itself for the empty span at 1
    if top > np.iinfo(np.int64).max:
        raise ValueError(f"phi_segment would read q = {top}, past int64")
    dtype = np.int32 if top < 2**31 else np.int64
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
    if step > 1:
        phi *= step
        for p in prime_factors(step):
            multiples = phi[-lo % p :: p].copy()  # p | j: phi(j) already holds p's share of phi(step*j)
            phi -= phi // p
            phi[-lo % p :: p] = multiples
    return phi


def radical_segment(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(rad(q), largest prime of q) for lo <= q < hi (1 <= lo <= hi); (1, 1) at q = 1.

    Sieved like ``phi_segment`` from the primes p <= isqrt(hi - 1), in
    ascending order: p multiplies rad and sets the largest prime at its
    multiples, and ``smooth`` at those of each p**k < hi, k >= 2.  The
    cofactor q // (smooth * rad) is 1 or one prime > isqrt(hi - 1).  Every
    entry divides q: int32 below 2**31, int64 beyond.
    """
    dtype = np.int32 if hi <= 2**31 else np.int64
    rad, top, smooth = (np.ones(hi - lo, dtype=dtype) for _ in range(3))
    for p in primes_up_to(math.isqrt(hi - 1)).tolist():
        rad[-lo % p :: p] *= p
        top[-lo % p :: p] = p
        pk = p * p
        while pk < hi:
            smooth[-lo % pk :: pk] *= p
            pk *= p
    smooth *= rad
    cofactor = np.arange(lo, hi, dtype=dtype)
    cofactor //= smooth
    rad *= cofactor
    return rad, np.maximum(top, cofactor, out=top)


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

    The q are read as g*j, with g their gcd when the first 64 share one
    and 1 otherwise.  Factoring costs about isqrt(q) steps per entry and
    sieving at most j.max(), so each q is factored when qs.size *
    isqrt(j.max()) <= j.max(), as one q always is.  Otherwise each window
    (j - 1) // SIEVE_CHUNK holding a j is sieved by ``phi_segment`` at step
    g, from its least j to its largest; input not already grouped, as
    sorted q are, is grouped by a stable radix sort of the window indices.
    """
    qs = np.asarray(qs, dtype=np.int64)
    if qs.min(initial=1) < 1:
        raise ValueError("Euler phi requires q >= 1")
    flat = qs.ravel()
    g = int(np.gcd.reduce(flat)) if math.gcd(*flat[:64].tolist()) > 1 else 1
    js = flat // g if g > 1 else flat
    top = int(js.max(initial=1))
    if js.size * math.isqrt(top) <= top:
        return np.array([_factored_phi(q) for q in flat.tolist()], dtype=np.int64).reshape(qs.shape)
    window = js - 1
    window >>= SIEVE_CHUNK.bit_length() - 1  # // SIEVE_CHUNK, a power of two
    window = window.astype(np.min_scalar_type((top - 1) // SIEVE_CHUNK))
    order = None if (window[1:] >= window[:-1]).all() else np.argsort(window, kind="stable")
    if order is not None:
        window = window[order]
    cuts = [0, *(np.flatnonzero(window[1:] != window[:-1]) + 1).tolist(), qs.size]
    phis = np.empty(qs.size, dtype=np.int64)
    for i, j in zip(cuts, cuts[1:]):
        at = slice(i, j) if order is None else order[i:j]
        sub = js[at]
        lo = int(sub.min())
        phis[at] = phi_segment(lo, int(sub.max()) + 1, g)[sub - lo]
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
