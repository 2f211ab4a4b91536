"""Number-theoretic kernel: totient sieve, integer distances, coprime structure.

Conventions used throughout the package:

* ``phi_values(qs)`` is the one reader of Euler phi.  It sieves the shared
  table to ``qs.max()`` when ``qs.size * isqrt(qs.max()) > qs.max()``, and
  otherwise factors each q the shared table does not already cover; the
  scalar ``euler_phi(q)`` is a one-element call of it and builds no table.
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

import math
import threading
from fractions import Fraction

import numpy as np

__all__ = [
    "PhiTable",
    "coprime_gaps",
    "coprime_residues",
    "default_phi_table",
    "dist_nearest",
    "dist_nearest_coprime",
    "euler_phi",
    "gap_multiset",
    "is_prime",
    "nearest_coprime_distance",
    "padic_abs",
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


SCAN_BLOCK = 1 << 16  # entries per block of a streamed pass: a strided sieve pass, a divergence-sum scan


class PhiTable:
    """Sieved Euler phi values for 1 <= q <= limit.

    Each prime p dividing q applies ``v -= v // p`` to q's entry, which
    starts at q.  A prime p <= isqrt(limit) is applied by one strided pass.
    Every q <= limit has at most one prime factor P above isqrt(limit), and
    its cofactor m = q / P is at most limit // (isqrt(limit) + 1); so one
    gathered pass per m applies every large P <= limit // m.  That is
    O(sqrt(limit)) vector passes in all (269 + 1,731 at limit 3e6), instead
    of one per prime.  The order does not matter: while p is still to be
    applied, p divides q's running value (q / prod(applied primes) keeps
    the factor p), so every step is an exact integer division.  A strided
    pass runs in place over chunks of SCAN_BLOCK entries, so its
    temporary stays small beside the table.

    The table is immutable after construction and safe to share across
    threads; builders below keep a process-wide cached instance.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("PhiTable limit must be >= 1")
        self.limit = int(limit)
        root = math.isqrt(self.limit)
        primes = primes_up_to(self.limit)
        cut = int(np.searchsorted(primes, root, side="right"))
        values = np.arange(self.limit + 1, dtype=np.int64)
        for p in primes[:cut].tolist():
            for lo in range(p, self.limit + 1, p * SCAN_BLOCK):
                view = values[lo : lo + p * SCAN_BLOCK : p]
                view -= view // p
        large = primes[cut:]
        for m in range(1, self.limit // (root + 1) + 1):
            big = large[: np.searchsorted(large, self.limit // m, side="right")]
            idx = m * big
            values[idx] -= values[idx] // big
        values[0] = 0
        self.values = values
        self.values.setflags(write=False)


_table_lock = threading.Lock()
_default_table: PhiTable | None = None


def default_phi_table(limit: int) -> PhiTable:
    """Shared phi table, grown on demand (never shrunk)."""
    global _default_table
    with _table_lock:
        if _default_table is None or _default_table.limit < limit:
            _default_table = PhiTable(limit)
        return _default_table


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

    A sieve to qs.max() takes about qs.max() steps and factoring about
    isqrt(q) per entry, so the shared table is grown only when the sieve is
    the cheaper.  One q never is: 1 * isqrt(q) <= q.
    """
    qs = np.asarray(qs, dtype=np.int64)
    if qs.min(initial=1) < 1:
        raise ValueError("Euler phi requires q >= 1")
    top = int(qs.max(initial=1))
    table = _default_table
    if table is None or table.limit < top:
        if qs.size * math.isqrt(top) <= top:
            limit = table.limit if table is not None else 0
            phis = [int(table.values[q]) if q <= limit else _factored_phi(q) for q in qs.ravel().tolist()]
            return np.array(phis, dtype=np.int64).reshape(qs.shape)
        table = default_phi_table(top)
    return table.values[qs]


def _factored_phi(q: int) -> int:
    for p in prime_factors(q):
        q = q // p * (p - 1)
    return q


def euler_phi(q: int) -> int:
    """Euler phi of q >= 1: a one-element ``phi_values`` call, which builds no table."""
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
