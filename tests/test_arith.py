import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diolab.arith import (
    PhiTable,
    coprime_gaps,
    coprime_residues,
    default_phi_table,
    dist_nearest,
    dist_nearest_coprime,
    euler_phi,
    gap_multiset,
    is_prime,
    nearest_coprime_distance,
    padic_abs,
    prime_factors,
    primes_up_to,
    radical,
)


def brute_phi(q: int) -> int:
    return sum(1 for p in range(1, q + 1) if math.gcd(p, q) == 1)


def trial_division_phi(q: int) -> int:
    # independent of every PhiTable: euler_phi would read the cached one
    v = q
    for p in prime_factors(q):
        v = v // p * (p - 1)
    return v


# limits where isqrt(limit) moves, so a prime changes sides of the sieve's cut
SIEVE_CUTS = sorted({1, 2, 3} | {p * p + d for p in (2, 3, 5, 7, 11, 13, 31, 47) for d in (-1, 0, 1)})


def with_examples(values):
    def wrap(test):
        for v in values:
            test = example(v)(test)
        return test

    return wrap


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == 4  # brute force: 1, 5, 7, 11
        assert euler_phi(7) == 6

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            euler_phi(0)

    def test_brute_force_agreement_to_1e4(self):
        table = PhiTable(10_000)
        qs = np.arange(1, 10_001)
        for q in qs:
            counted = int(np.count_nonzero(np.gcd(np.arange(1, q + 1), q) == 1))
            assert table.phi(int(q)) == counted

    def test_table_fallback_consistency(self):
        table = PhiTable(50)
        for q in [51, 97, 360, 510510]:
            assert euler_phi(q, table) == brute_phi(q) if q <= 2000 else True
        assert euler_phi(97, table) == 96
        assert euler_phi(360, table) == 96

    def test_prime_and_multiplicative(self):
        table = default_phi_table(2000)
        for p in [2, 3, 5, 7, 11, 101, 997]:
            assert table.phi(p) == p - 1
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = int(rng.integers(1, 40))
            b = int(rng.integers(1, 40))
            if math.gcd(a, b) == 1:
                assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 3_000))
    @with_examples(SIEVE_CUTS)
    def test_sieve_matches_trial_division(self, limit):
        table = PhiTable(limit)
        assert table.values[0] == 0
        assert table.values[1:].tolist() == [trial_division_phi(q) for q in range(1, limit + 1)]

    def test_bounds(self):
        table = PhiTable(500)
        vals = table.values[1:]
        assert np.all(vals >= 1)
        assert np.all(vals <= np.arange(1, 501))


class TestDistNearest:
    def test_examples(self):
        assert dist_nearest(3, 1 / 3) == pytest.approx(0.0, abs=1e-12)
        assert dist_nearest(4, 0.49) == pytest.approx(0.04)
        assert dist_nearest(1, 0.5) == 0.5

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            q = int(rng.integers(1, 1000))
            x = float(rng.random())
            d = dist_nearest(q, x)
            assert 0.0 <= d <= 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            q = int(rng.integers(1, 200))
            x = float(rng.random())
            assert dist_nearest(q, x) == pytest.approx(dist_nearest(q, 1.0 - x), abs=1e-12)
            assert dist_nearest_coprime(q, x) == pytest.approx(
                dist_nearest_coprime(q, 1.0 - x), abs=1e-9
            )

    def test_periodicity_on_rational_grid(self):
        # shifting x by k/q leaves ||q x|| unchanged; exercised on exact grid points
        for q in [2, 3, 5, 12]:
            for num in range(4 * q):
                x = num / (4 * q)
                shifted = math.modf(x + 1 / q)[0]
                assert dist_nearest(q, x) == pytest.approx(dist_nearest(q, shifted), abs=1e-12)


class TestDistNearestCoprime:
    def test_examples(self):
        assert dist_nearest_coprime(1, 0.3) == pytest.approx(0.3)
        assert dist_nearest_coprime(4, 0.5) == pytest.approx(1.0)
        assert dist_nearest_coprime(12, 1 / 12) == pytest.approx(0.0, abs=1e-12)

    def test_dominates_plain(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            q = int(rng.integers(1, 500))
            x = float(rng.random())
            assert dist_nearest_coprime(q, x) >= dist_nearest(q, x) - 1e-15

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            q = int(rng.integers(1, 60))
            x = float(rng.random())
            y = q * x
            best = min(
                abs(y - p) for p in range(-2, q + 3) if math.gcd(p, q) == 1
            )
            assert dist_nearest_coprime(q, x) == pytest.approx(best, abs=1e-12)

    def test_half_integer_tie(self):
        # q*x exactly between two integers; nearest coprime may sit on either side
        assert dist_nearest_coprime(2, 0.75) == pytest.approx(0.5)  # qx = 1.5, p = 1
        assert nearest_coprime_distance(2.5, 4) == pytest.approx(0.5)  # p = 3


class TestCoprimeGaps:
    def test_examples(self):
        assert coprime_gaps(4) == [(1, 2), (3, 2)]
        assert coprime_gaps(1) == [(0, 1)]
        assert coprime_gaps(6) == [(1, 4), (5, 2)]

    def test_counts_and_sum(self):
        for q in range(1, 500):
            pairs = coprime_gaps(q)
            assert len(pairs) == euler_phi(q)
            assert sum(g for _, g in pairs) == q
            residues = [r for r, _ in pairs]
            assert residues == sorted(residues)
            assert all(math.gcd(r, q) == 1 or q == 1 for r in residues)

    def test_gap_multiset_matches(self):
        for q in [1, 2, 12, 30, 210]:
            gaps, counts = gap_multiset(q)
            from collections import Counter

            expected = Counter(g for _, g in coprime_gaps(q))
            assert dict(zip(gaps.tolist(), counts.tolist())) == dict(expected)


class TestPadicAbs:
    def test_examples(self):
        assert padic_abs(8, 2) == Fraction(1, 8)
        assert padic_abs(9, 2) == 1
        assert padic_abs(12, 3) == Fraction(1, 3)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            padic_abs(8, 4)
        with pytest.raises(ValueError):
            padic_abs(8, 1)

    def test_multiplicativity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = int(rng.integers(1, 500))
            b = int(rng.integers(1, 500))
            for p in (2, 3, 5):
                assert padic_abs(a * b, p) == padic_abs(a, p) * padic_abs(b, p)


def test_is_prime_matches_the_sieve():
    assert [p for p in range(-3, 5000) if is_prime(p)] == primes_up_to(4999).tolist()


def test_radical():
    assert radical(1) == 1
    assert radical(12) == 6
    assert radical(8) == 2
    assert radical(30030) == 30030


def test_coprime_residues_match_gcd():
    for q in [1, 2, 9, 12, 36, 210]:
        res = coprime_residues(q).tolist()
        expected = [r for r in range(q) if math.gcd(r, q) == 1] or [0]
        assert res == expected


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(97) == [97]
    assert prime_factors(360) == [2, 3, 5]
