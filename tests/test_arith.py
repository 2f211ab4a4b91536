import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diolab
import diolab.arith
from diolab.arith import (
    SIEVE_CHUNK,
    PhiTable,
    coprime_gaps,
    coprime_residues,
    dist_nearest,
    dist_nearest_coprime,
    euler_phi,
    gap_multiset,
    is_prime,
    nearest_coprime_distance,
    padic_abs,
    phi_segment,
    phi_values,
    prime_factors,
    primes_up_to,
    radical,
    radical_segment,
)
from phi_reference import PhiTable as ReferenceTable

SRC = str(Path(__file__).resolve().parent.parent / "src")


def brute_phi(q: int) -> int:
    return sum(1 for p in range(1, q + 1) if math.gcd(p, q) == 1)


def trial_division_phi(q: int) -> int:
    # independent of every sieve: euler_phi factors too, but through phi_values
    v = q
    for p in prime_factors(q):
        v = v // p * (p - 1)
    return v


# limits where isqrt(limit) moves, so a prime changes sides of the sieve's cut: the
# wheel's last prime (11) and the next, and squares either side of the strided cut 2**14
SIEVE_CUTS = sorted({1, 2, 3} | {p * p + d for p in (2, 3, 5, 7, 11, 13, 31, 47, 127, 131) for d in (-1, 0, 1)})
REFERENCE_TOP = 3 * SIEVE_CHUNK + 1000
_reference = []


def reference_phi(qs) -> list[int]:
    """phi from the verbatim whole-range sieve, built once to REFERENCE_TOP."""
    if not _reference:
        _reference.append(ReferenceTable(REFERENCE_TOP).values)
    return _reference[0][np.asarray(qs, dtype=np.int64)].tolist()


def oracle_phi(qs) -> list[int]:
    """The reference sieve where it reaches, trial division beyond."""
    return [reference_phi([q])[0] if q <= REFERENCE_TOP else trial_division_phi(q) for q in qs]


@st.composite
def spans(draw):
    """[lo, hi) from 1, across a chunk or wheel edge, at a square cut, or around 2**31."""
    kind = draw(st.sampled_from(["from_one", "edge", "cut", "int32_top"]))
    if kind == "from_one":
        return 1, draw(st.integers(1, 5_000))
    if kind == "edge":
        edge = draw(st.sampled_from([SIEVE_CHUNK * k + 1 for k in (1, 2, 3)] + [2310, 2 * 2310, 1 << 14]))
        return max(1, edge - draw(st.integers(0, 3_000))), edge + draw(st.integers(0, 3_000))
    if kind == "cut":
        hi = draw(st.sampled_from(SIEVE_CUTS[1:]))
        return max(1, hi - draw(st.integers(1, 400))), hi
    return 2**31 - draw(st.integers(0, 12)), 2**31 + draw(st.integers(0, 12))


# steps of every kind the lift meets: none, prime powers, primorials, a prime past isqrt of every j
MULTIPLE_STEPS = [1, 169, 2**12, 2**12 * 5**12, 210, 30030, 10**9 + 7]


@st.composite
def multiples(draw):
    """(lo, hi, step) for phi(step*j) over lo <= j < hi: any j, j sharing a prime with step, or step*j around 2**31.

    The large prime step takes short spans of small j, which never share
    it: trial division of step*j runs to about sqrt(step) per entry, and
    to the step itself for a j that shares it.
    """
    kind = draw(st.sampled_from(["any", "shared", "int32_top"]))
    if kind == "int32_top":
        step = draw(st.sampled_from([1, 169, 2**12, 210, 30030]))
        lo = max(1, (2**31 - 1) // step - draw(st.integers(0, 12)))
        return lo, lo + draw(st.integers(0, 24)), step
    step = draw(st.sampled_from(MULTIPLE_STEPS))
    if step == 10**9 + 7:
        lo = draw(st.integers(1, 500))
        return lo, lo + draw(st.integers(0, 12)), step
    lo = draw(st.integers(1, 5_000))
    if kind == "shared":
        lo *= draw(st.sampled_from(prime_factors(step) or [1]))
    return lo, lo + draw(st.integers(0, 700)), step


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
            assert table.values[int(q)] == counted

    def test_table_fallback_consistency(self):
        # no table is shared: building one changes nothing phi_values returns, and every
        # PhiTable is the segmented kernel's values, unchanged by later calls
        table = PhiTable(50)
        for q in [1, 7, 50, 51, 97, 360, 1999]:
            assert euler_phi(q) == brute_phi(q)
        assert euler_phi(97) == 96
        assert euler_phi(360) == 96
        assert phi_values([7, 50, 51, 510510]).tolist() == [6, 20, 32, 92160]
        assert table.values[1:].tolist() == reference_phi(range(1, 51))
        assert PhiTable(20).values.tolist() == table.values[:21].tolist()
        assert not table.values.flags.writeable

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.integers(1, 3_000), min_size=1, max_size=80), st.none() | st.integers(10**6, 10**9))
    @example([1], None)
    @example([2999, 3000], None)
    @example(list(range(1, 61)), None)
    @example([30030, 1], 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 1_000_003)
    def test_phi_values_is_the_sieve(self, small, large):
        qs = small + ([] if large is None else [large])
        want = reference_phi(small) + ([] if large is None else [trial_division_phi(large)])
        sieved = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diolab.arith, "phi_segment", lambda *span: sieved.append(span) or phi_segment(*span))
            assert [euler_phi(q) for q in qs] == [int(phi_values([q])[0]) for q in qs] == want
            assert sieved == []  # one-element calls factor, q = 1 included
            assert phi_values(np.array(qs)).tolist() == want
        # the q = g*j are sieved exactly when that is the cheaper side of the rule for the j,
        # from the least j at step g
        g = math.gcd(*qs)
        top = max(qs) // g
        assert bool(sieved) == (len(qs) * math.isqrt(top) > top)
        if sieved:
            assert sieved[0][0] == min(qs) // g and sieved[-1][1] == top + 1
            assert {span[2] for span in sieved} == {g}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from([1, 2, 6, 7, 97, 169, 210, 1024, 30030]),
        st.lists(st.integers(1, 3_000), min_size=2, max_size=500),
        st.lists(st.integers(1, 3_000), max_size=2),
        st.randoms(use_true_random=False),
    )
    @example(6, list(range(1, 65)), [], None)
    @example(6, list(range(1, 65)), [7], None)  # the first 64 q share 6, the whole input only 1
    @example(30030, [SIEVE_CHUNK - 1, SIEVE_CHUNK, 2 * SIEVE_CHUNK + 3] * 700, [], None)
    def test_a_common_divisor_is_sieved_as_the_step(self, g, js, extra, rng):
        qs = [g * j for j in js]
        if rng is not None:
            rng.shuffle(qs)
        qs += extra
        sieved = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diolab.arith, "phi_segment", lambda *span: sieved.append(span) or phi_segment(*span))
            got = phi_values(np.array(qs))
        assert got.tolist() == oracle_phi(qs)
        # every span is a window of the j = q / gcd(q), sieved at that step
        shared = math.gcd(*qs)
        assert all(step == shared and hi - 1 <= max(qs) // shared for _, hi, step in sieved)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(spans())
    @example((1, 1))
    @example((1, 2))
    @example((1, 2**14 + 1))
    @example((2**31 - 40, 2**31))
    @example((2**31 - 3, 2**31 + 3))
    @example((3 * SIEVE_CHUNK - 500, 3 * SIEVE_CHUNK + 1000))
    # q with two gathered prime powers, where np.multiply.at meets a repeated index
    @example((16411 * 16417 - 2, 16411 * 16417 + 3))
    @example((131**2 * 137**2 - 2, 131**2 * 137**2 + 3))
    @example((16411**2 - 1, 16411**2 + 2))
    def test_segment_matches_the_reference_sieve(self, span):
        lo, hi = span
        got = phi_segment(lo, hi, 1)
        assert got.dtype == (np.int32 if hi <= 2**31 else np.int64)
        assert got.tolist() == oracle_phi(range(lo, hi))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(multiples())
    @example((1, 1, 5))
    @example((7, 7, 10**12))
    @example((1, 14_286, 210))  # every multiple of 210 up to 3e6
    @example((1, 4_001, 169))
    @example((2**31 // 210 - 5, 2**31 // 210 + 6, 210))
    @example((1, 2, 2**62))
    @example((1, 2, 2**63 - 1))
    def test_progression_matches_the_reference_sieve(self, span):
        lo, hi, step = span
        got = phi_segment(lo, hi, step)
        qs = [step * j for j in range(lo, hi)]
        assert got.dtype == (np.int32 if step * max(hi - 1, 1) < 2**31 else np.int64)
        assert got.tolist() == oracle_phi(qs)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(spans())
    @example((1, 1))
    @example((1, 2))
    @example((1, 4097))
    @example((16411**2 - 1, 16411**2 + 2))  # a prime square at the sieve's cut
    @example((2**30 - 4095, 2**30 + 1))
    def test_radical_segment_is_trial_division(self, span):
        lo, hi = span
        rad, top = radical_segment(lo, hi)
        qs = range(lo, hi) if hi - lo <= 3_000 else [*range(lo, lo + 1_500), *range(hi - 1_500, hi)]
        want = [(math.prod(f), max(f, default=1)) for f in map(prime_factors, qs)]
        assert rad.dtype == top.dtype == (np.int32 if hi <= 2**31 else np.int64) and rad.size == top.size == hi - lo
        assert [(int(rad[q - lo]), int(top[q - lo])) for q in qs] == want

    def test_segment_rejects_a_bad_span(self):
        with pytest.raises(ValueError):
            phi_segment(0, 5, 1)
        with pytest.raises(ValueError):
            phi_segment(6, 5, 1)
        with pytest.raises(ValueError):
            phi_segment(1, 5, 0)
        # the product step*(hi - 1) is the last q, and int64 must hold it
        with pytest.raises(ValueError, match="past int64"):
            phi_segment(2, 3, 2**62)
        with pytest.raises(ValueError, match="past int64"):
            phi_segment(1, 2**61 + 2, 4)
        with pytest.raises(ValueError, match="past int64"):
            phi_segment(1, 1, 2**63)
        assert phi_segment(3, 4, 2**61).tolist() == [2**61]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(1, REFERENCE_TOP), min_size=1, max_size=3_000),
        st.lists(st.integers(1, 3_000), max_size=40),
        st.randoms(use_true_random=False),
    )
    @example([SIEVE_CHUNK, SIEVE_CHUNK + 1, 2 * SIEVE_CHUNK + 7] * 700, [1, 1, 2], None)
    def test_unsorted_values_with_duplicates(self, spread, near, rng):
        # windows of the sieve start wherever the next uncovered q lies, in any input order
        qs = spread + near + spread[: len(spread) // 3]
        if rng is not None:
            rng.shuffle(qs)
        got = phi_values(np.array(qs).reshape(-1, 1))
        assert got.shape == (len(qs), 1) and got.dtype == np.int64
        assert got.ravel().tolist() == reference_phi(qs)

    def test_prime_and_multiplicative(self):
        table = phi_values(np.arange(1, 2001))
        for p in [2, 3, 5, 7, 11, 101, 997]:
            assert table[p - 1] == p - 1
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
        assert table.values.tolist() == ReferenceTable(limit).values.tolist()

    def test_bounds(self):
        table = PhiTable(500)
        vals = table.values[1:]
        assert np.all(vals >= 1)
        assert np.all(vals <= np.arange(1, 501))


def test_no_module_holds_phi_state():
    # phi readers keep no table: after large reads no diolab module holds an array
    # longer than one sieve chunk, and the wheel is the only cached array
    phi_values(np.arange(1, 2 * SIEVE_CHUNK))
    diolab.cond1_scan(diolab.power_log(1, 1, 0), 2, [3 * SIEVE_CHUNK])
    for module in [m for name, m in sys.modules.items() if name.startswith("diolab")]:
        for name, value in vars(module).items():
            assert not (isinstance(value, np.ndarray) and value.size > SIEVE_CHUNK), (module.__name__, name)
    assert [w.size for w in diolab.arith._wheel()] == [2310, 2310]


def test_importing_diolab_builds_no_wheel():
    # the wheel is built on the first sieve, so a run that reads no phi pays nothing for it
    code = "import diolab, diolab.arith as a; assert a._wheel.cache_info().currsize == 0"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})


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
