"""Reference Euler phi sieve for the tests: the whole-range table diolab used
before its segmented kernel, kept verbatim so the kernel is checked against
code it shares nothing with but ``primes_up_to``.  Build one only for small
limits: it holds 8 B per q.
"""

import math

import numpy as np

from diolab.arith import primes_up_to

SCAN_BLOCK = 1 << 16


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

