import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

import diolab.arith
import diolab.regions
from diolab.arith import (
    SCAN_BLOCK,
    _cyclic_gaps,
    dist_nearest,
    dist_nearest_coprime,
    euler_phi,
    gap_multiset,
    is_prime,
    phi_values,
    prime_factors,
    primes_up_to,
    radical,
)
from diolab.errors import ConvergenceError, ResourceBudgetError
from diolab.psi import TablePsi, indicator_support, power_log, table_psi
from diolab.regions import (
    IntervalUnion,
    RegionSpec,
    coprime_dist_cdf,
    intersection_matrix,
    product_region_measure_coprime,
    product_region_measure_plain,
    region_measure,
    region_measure_1d,
    slice_union,
    truncated_union_1d,
    uniform_product_cdf,
)
from diolab.regions import (
    _GL7,
    _GL15,
    _gap_log_sum,
    _gap_stats,
    _gl_sum,
    _lifted_terms,
    _product_cdf_rec,
    _product_law2,
    _slice_raw_intervals,
)
from diolab.sampler import sample_points


def dist_nearest_unit_mod6(z: np.ndarray) -> np.ndarray:
    """Distance from each z to the nearest integer coprime to 6 (or to 12).

    Those integers are the ones congruent to +-1 mod 6, at most 4 apart, so
    the nearest one lies in floor(z) - 2 .. floor(z) + 2.  Every |z - c| is
    exact in float, so the result agrees bit for bit with dist_nearest_coprime.
    """
    m = np.floor(z)
    d = np.full(z.shape, np.inf)
    for k in range(-2, 3):
        c = m + k
        unit = np.abs(np.mod(c, 6.0) - 3.0) == 2.0
        np.minimum(d, np.where(unit, np.abs(z - c), np.inf), out=d)
    return d


def assert_matches_scalar_fixup(q: int, xs: np.ndarray, d: np.ndarray, bad: np.ndarray, count: int = 4000):
    idx = np.flatnonzero(bad.ravel())[:count]
    want = [dist_nearest_coprime(q, x) for x in xs.ravel()[idx].tolist()]
    assert d.ravel()[idx].tolist() == want


class TestIntervalUnion:
    def test_merge_and_measure(self):
        u = IntervalUnion.from_intervals([0.0, 0.05, 0.5], [0.1, 0.2, 0.7])
        assert len(u) == 2
        assert u.measure == pytest.approx(0.4)

    def test_clipping(self):
        u = IntervalUnion.from_intervals([-0.5, 0.9], [0.1, 1.5])
        assert u.measure == pytest.approx(0.2)
        assert u.starts[0] == 0.0 and u.ends[-1] == 1.0

    def test_intersection_measure(self):
        a = IntervalUnion.from_intervals([0.0, 0.6], [0.4, 0.9])
        b = IntervalUnion.from_intervals([0.2], [0.7])
        assert a.intersection_measure(b) == pytest.approx(0.3)
        assert b.intersection_measure(a) == pytest.approx(0.3)

    def test_intersection_of_zero_length_intervals(self):
        # built directly, so nothing drops them: every cut is one point and no segment lies between two
        point = IntervalUnion(np.array([0.3]), np.array([0.3]))
        points = IntervalUnion(np.array([0.2, 0.3]), np.array([0.2, 0.3]))
        whole = IntervalUnion(np.array([0.0]), np.array([1.0]))
        for a, b in [(point, point), (point, points), (points, whole), (whole, point)]:
            assert a.intersection_measure(b) == 0.0 == b.intersection_measure(a)

    def test_intersection_against_grid(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            pts = np.sort(rng.random(8))
            a = IntervalUnion.from_intervals(pts[0::4], pts[1::4])
            b = IntervalUnion.from_intervals(pts[2::4], pts[3::4])
            grid = np.linspace(0, 1, 20001)
            mids = 0.5 * (grid[:-1] + grid[1:])
            brute = np.mean(a._inside(mids) & b._inside(mids))
            assert a.intersection_measure(b) == pytest.approx(brute, abs=2e-4)

    def test_a_gap_of_a_few_ulps_stays_a_gap(self):
        # [1/4, x] and [y, 3/4] with y three ulps above x: a real gap, far below 1e-15
        x = 0.5
        y = x + 3 * math.ulp(x)
        u = IntervalUnion.from_intervals([y, 0.25], [0.75, x])
        assert u.starts.tolist() == [0.25, y] and u.ends.tolist() == [x, 0.75]
        assert u.measure == 0.5 - (y - x) < 0.5
        # touching closed intervals are one component
        assert len(IntervalUnion.from_intervals([0.25, x], [x, 0.75])) == 1

    def test_intersection_keeps_overlaps_a_few_ulps_wide(self):
        # A = [0, x], B = [x - m ulp, 1] for m = 1..3: the midpoint of two cuts
        # this close can round onto x, so a segment is classified by its left cut
        rng = np.random.default_rng(13)
        for x in rng.random(2000):
            y = x
            for _ in range(3):
                y = np.nextafter(y, -1.0)
                a = IntervalUnion(np.array([0.0]), np.array([x]))
                b = IntervalUnion(np.array([y]), np.array([1.0]))
                assert a.intersection_measure(b) == x - y
                assert b.intersection_measure(a) == x - y


def touching_union(starts, ends) -> IntervalUnion:
    """Clip, sort and merge only overlapping or touching intervals, so gaps of an ulp stay."""
    merged = []
    for a, b in sorted((max(a, 0.0), min(b, 1.0)) for a, b in zip(starts, ends)):
        if b <= a:
            continue
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return IntervalUnion(np.array([a for a, _ in merged]), np.array([b for _, b in merged]))


def ulp_neighbours(x: float) -> list[float]:
    down, up = np.nextafter(x, -1.0), np.nextafter(x, 2.0)
    return [float(v) for v in (np.nextafter(down, -1.0), down, x, up, np.nextafter(up, 2.0))]


@st.composite
def union_lists(draw):
    """Unions over a shared pool of endpoints and their ulp neighbours."""
    base = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    pool = sorted({v for x in base + [0.0, 1.0] for v in ulp_neighbours(x)})
    index = st.integers(0, len(pool) - 1)
    unions = []
    for _ in range(draw(st.integers(0, 6))):
        pairs = draw(st.lists(st.tuples(index, index), max_size=8))
        build = draw(st.sampled_from([touching_union, IntervalUnion.from_intervals]))
        unions.append(build([pool[a] for a, _ in pairs], [pool[b] for _, b in pairs]))
    return unions


def assert_matches_pairwise(unions: list[IntervalUnion]):
    got = intersection_matrix(unions)
    want = np.array([[a.intersection_measure(b) for b in unions] for a in unions])
    assert got.shape == (len(unions),) * 2
    assert got.tobytes() == want.reshape(got.shape).tobytes()
    assert np.array_equal(got, got.T)
    assert np.diag(got).tolist() == [u.measure for u in unions]
    singles = np.diag(got)
    assert np.all(got <= np.minimum.outer(singles, singles))


class TestIntersectionMatrix:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(union_lists())
    @example([])
    @example([IntervalUnion.from_intervals([], [])] * 2)
    def test_equals_pairwise_oracle(self, unions):
        assert_matches_pairwise(unions)

    def test_long_component_runs(self):
        # pairs with hundreds of components: a pairwise or blocked sum differs from a sum left to
        # right from 8 terms on, so this pins the matrix's summation order to the oracle's
        rng = np.random.default_rng(14)
        unions = [IntervalUnion.from_intervals([0.0], [1.0])]
        for size in range(5, 400, 15):
            # cubed points span many binades, so the sums round
            pts = np.sort(rng.random(2 * size) ** 3)
            unions.append(IntervalUnion.from_intervals(pts[0::2], pts[1::2]))
        assert_matches_pairwise(unions)

    def test_touching_runs(self):
        # B's m-th interval overlaps A's m-th and touches A's (m + 1)-th at its end: a touching
        # pair adds no component. Unions of different sizes overlap with either one's interval first,
        # so an entry indexed by (owner of the earlier, owner of the later) would split their sum in two
        rng = np.random.default_rng(15)
        unions = []
        for size in range(20, 400, 40):
            pts = np.sort(rng.random(3 * size + 1) ** 3)
            a = IntervalUnion(pts[0:-1:3], pts[2::3])
            b = IntervalUnion(pts[1:-1:3], pts[3::3])
            assert np.array_equal(b.ends[:-1], a.starts[1:])
            unions += [a, b]
        assert_matches_pairwise(unions)

    @pytest.mark.parametrize(
        "family, coprime",
        [
            (power_log(0.25, 1, 0), False),
            (power_log(0.25, 1, 0), True),
            (table_psi([Fraction(2 + q % 5, 13 * q) for q in range(1, 301)]), True),
        ],
        ids=["plain", "coprime", "fraction-table"],
    )
    def test_real_slices_equal_the_pairwise_oracle(self, family, coprime):
        # the unions exact_event_stats_1d builds, thousands of intervals with many pairs overlapping
        Q = 300
        psis = family.values(np.arange(1, Q + 1, dtype=np.int64)).tolist()
        unions = [slice_union(q, d, coprime=coprime) for q, d in zip(range(1, Q + 1), psis)]
        want = np.diag([u.measure for u in unions])
        for i, a in enumerate(unions):
            for j in range(i + 1, Q):
                want[i, j] = want[j, i] = a.intersection_measure(unions[j])
        assert intersection_matrix(unions).tobytes() == want.tobytes()

    @pytest.mark.parametrize("k, bound_mib", [(192, 1.5), (1_000, 28)])
    def test_memory_stays_bounded(self, k, bound_mib):
        # the coprime slices of exact-1d at k = 192 and of `bc-bound --Q 1000`, whose 595,988
        # overlapping interval pairs the sweep adds into the matrix a block at a time: measured
        # peaks were 1.0 and 17.3 MiB, and 1.9 and 62.4 MiB when every pair was built in one block
        psis = power_log(0.25, 1, 0).values(np.arange(1, k + 1, dtype=np.int64)).tolist()
        unions = [slice_union(q, d, coprime=True) for q, d in zip(range(1, k + 1), psis)]
        tracemalloc.start()
        try:
            intersection_matrix(unions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20


class TestRegionMeasure1d:
    def test_examples(self):
        assert region_measure_1d(RegionSpec(5, 1, 0.1)).value == pytest.approx(0.2)
        got = region_measure_1d(RegionSpec(12, 1, 0.1, coprime=True))
        assert got.value == pytest.approx(2 * 0.1 * 4 / 12)
        assert got.provenance == "exact"
        assert region_measure_1d(RegionSpec(7, 1, 0.0)).value == 0.0

    def test_plain_clip(self):
        assert region_measure_1d(RegionSpec(3, 1, 0.7)).value == 1.0

    @pytest.mark.parametrize("delta", [math.nan, -0.1, Fraction(-1, 3)])
    def test_rejects_negative_or_nan_delta(self, delta):
        with pytest.raises(ValueError, match="delta"):
            RegionSpec(12, 1, delta)
        with pytest.raises(ValueError, match="delta"):
            product_region_measure_plain(2, delta)
        with pytest.raises(ValueError, match="delta"):
            product_region_measure_coprime(12, 2, delta)

    def test_closed_form_vs_sweep(self):
        # dual route: disjoint-interval formula against the explicit union
        rng = np.random.default_rng(11)
        for _ in range(60):
            q = int(rng.integers(1, 300))
            d = float(rng.uniform(0, 0.49))
            sweep = slice_union(q, d, coprime=True).measure
            assert sweep == pytest.approx(2 * d * euler_phi(q) / q, abs=1e-12)

    def test_large_delta_matches_cdf(self):
        # the swept union and the gap-law CDF are independent exact routes
        rng = np.random.default_rng(12)
        for _ in range(40):
            q = int(rng.integers(1, 120))
            cdf = coprime_dist_cdf(q)
            d = float(rng.uniform(0.5, cdf.max_distance + 0.2))
            got = region_measure_1d(RegionSpec(q, 1, d, coprime=True)).value
            assert got == pytest.approx(cdf(d), abs=1e-12)


def slice_oracle(q: int, delta: float) -> Fraction:
    """Measure of the coprime 1-D slice: a Fraction union of its clipped intervals (c -+ delta)/q."""
    d = Fraction(delta)
    return fraction_union_measure(
        (max(Fraction(0), (c - d) / q), min(Fraction(1), (c + d) / q)) for c in brute_centers(q, d)
    )


def slice_estimates(q: int, delta: float) -> list:
    """Every public entry that measures one coprime 1-D slice."""
    spec = RegionSpec(q, 1, delta, coprime=True)
    return [
        region_measure(spec),
        region_measure(replace(spec, mode="max")),
        region_measure_1d(spec),
        product_region_measure_coprime(q, 1, delta),
    ]


@st.composite
def slice_inputs(draw):
    """q <= 400 or 2310, with delta in (0, 3]: anywhere, or at or one ulp beside a breakpoint g/2."""
    q = draw(st.one_of(st.integers(1, 400), st.just(2310)))
    if draw(st.booleans()):
        return q, draw(st.floats(0.0, 3.0, exclude_min=True))
    knot = draw(st.sampled_from(coprime_dist_cdf(q).gaps)) / 2
    return q, draw(st.sampled_from([math.nextafter(knot, 0.0), knot, math.nextafter(knot, 4.0)]))


class TestOneAnswerPerSlice:
    """The gap law is the one source of a coprime 1-D slice measure, rounded once."""

    @pytest.mark.parametrize("q", [1, 2, 12, 30, 49, 360, 2310])
    def test_every_entry_returns_the_same_bits(self, q):
        cdf = coprime_dist_cdf(q)
        below_half = math.nextafter(0.5, 0.0)
        knots = [g / 2 for g in cdf.gaps]
        for delta in [0.0, 5e-324, below_half, 0.5, *knots, cdf.max_distance, 3.0, math.inf]:
            got = slice_estimates(q, delta)
            assert {e.provenance for e in got} == {"exact"}, delta
            assert {e.value.hex() for e in got} == {got[0].value.hex()}, delta
            if delta != math.inf:
                assert got[0].value == float(slice_oracle(q, delta)), delta

    def test_n1_is_the_rational_law_rounded_once(self):
        for q in (1, 12, 30, 2310):
            cdf = coprime_dist_cdf(q)
            for delta in (1e-300, 1e-7, 0.3, 0.5, 1.7):
                got = product_region_measure_coprime(q, 1, delta)
                assert got.provenance == "exact" and got.error_bound is None
                assert got.value == float(cdf.eval_fraction(Fraction(delta)))
                # numpy scalars, as a caller holding arrays passes them
                spec = RegionSpec(np.int64(q), 1, np.float64(delta), coprime=True)
                assert region_measure_1d(spec).value == got.value

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(slice_inputs())
    @example((2310, 0.5))
    @example((2310, math.nextafter(0.5, 0.0)))
    @example((1, 3.0))
    def test_matches_the_fraction_union(self, case):
        q, delta = case
        want = float(slice_oracle(q, delta))
        for est in slice_estimates(q, delta):
            assert est.provenance == "exact"
            assert est.value == want

    def test_no_law_is_built_below_one_half(self, monkeypatch):
        monkeypatch.setattr(diolab.regions, "_radical_cdf", None)
        for q in (1, 30, 2310, 10**6 + 3):
            assert region_measure_1d(RegionSpec(q, 1, 0.25, coprime=True)).value == float(
                Fraction(euler_phi(q), 2 * q)
            )


class TestUniformProductCdf:
    def test_n2_closed_value(self):
        assert product_region_measure_plain(2, 1 / 8).value == pytest.approx(
            0.5 * (1 + math.log(2)), rel=1e-12
        )

    def test_n1_consistency(self):
        for d in (0.0, 0.1, 0.3, 0.5, 0.9):
            assert product_region_measure_plain(1, d).value == pytest.approx(
                region_measure_1d(RegionSpec(1, 1, d)).value
            )

    def test_saturation(self):
        for n in (1, 2, 3, 5):
            assert product_region_measure_plain(n, 2.0**-n).value == 1.0
            assert product_region_measure_plain(n, 1.0).value == 1.0

    def test_monotone_zero_at_zero(self):
        assert product_region_measure_plain(3, 0.0).value == 0.0
        ds = np.linspace(0, 0.2, 40)
        vals = [product_region_measure_plain(3, float(d)).value for d in ds]
        assert vals == sorted(vals)

    def test_monte_carlo_validation_before_use(self):
        # the formula is a derived result; certify it against sampling
        rng_pts = sample_points(987, 0, 400_000, 2)
        t = 0.37
        hits = np.count_nonzero(rng_pts[:, 0] * rng_pts[:, 1] < t)
        p_hat = hits / rng_pts.shape[0]
        sigma = math.sqrt(p_hat * (1 - p_hat) / rng_pts.shape[0])
        assert abs(uniform_product_cdf(2, t) - p_hat) < 4 * sigma

    def test_q_independence_monte_carlo(self):
        # |{x : prod ||q x_i|| < delta}| does not depend on q; tested, not assumed
        delta = 0.02
        expected = product_region_measure_plain(2, delta).value
        for q in (1, 2, 7, 360):
            xs = sample_points(53 + q, 0, 200_000, 2)
            y = np.mod(q * xs, 1.0)
            d = np.minimum(y, 1.0 - y)
            p_hat = np.count_nonzero(d[:, 0] * d[:, 1] < delta) / xs.shape[0]
            sigma = math.sqrt(expected * (1 - expected) / xs.shape[0])
            assert abs(p_hat - expected) < 4 * sigma


class TestCoprimeDistCdf:
    def test_q1_uniform(self):
        cdf = coprime_dist_cdf(1)
        assert cdf(0.25) == pytest.approx(0.5)
        assert cdf.max_distance == 0.5

    def test_q4_identity_up_to_one(self):
        cdf = coprime_dist_cdf(4)
        for t in (0.1, 0.5, 0.8, 0.99):
            assert cdf(t) == pytest.approx(t)
        assert cdf.max_distance == 1.0

    def test_total_mass(self):
        for q in range(1, 200):
            cdf = coprime_dist_cdf(q)
            assert cdf(cdf.max_distance) == 1.0

    def test_exact_value_at_half(self):
        for q in (1, 2, 4, 12, 30, 210, 2310):
            cdf = coprime_dist_cdf(q)
            assert cdf.eval_fraction(Fraction(1, 2)) == Fraction(euler_phi(q), q)

    def test_radical_invariance(self):
        for q, r in [(8, 2), (12, 6), (360, 30), (49, 7)]:
            a, b = coprime_dist_cdf(q), coprime_dist_cdf(r)
            for t in np.linspace(0, 3, 50):
                assert a(float(t)) == b(float(t))

    def test_law_cache_is_bounded(self):
        # each coprime 1-D slice at delta >= 1/2 reads its radical's law; over many q the
        # kept laws stay bounded, and none builds the n = 2 table it does not read
        diolab.regions._radical_cdf.cache_clear()
        tracemalloc.start()
        try:
            for q in range(1, 4001):
                region_measure_1d(RegionSpec(q, 1, 0.7, coprime=True))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20
        assert diolab.regions._radical_cdf.cache_info().currsize <= 1024

    def test_matches_swept_slice_measure(self):
        # P(||q x||' < t) equals the exact interval-union measure of the slice
        rng = np.random.default_rng(13)
        for _ in range(50):
            q = int(rng.integers(1, 150))
            cdf = coprime_dist_cdf(q)
            t = float(rng.uniform(0, cdf.max_distance))
            assert cdf(t) == pytest.approx(slice_union(q, t, coprime=True).measure, abs=1e-12)

    def test_matches_empirical_distances(self):
        for q in (6, 12, 30):
            cdf = coprime_dist_cdf(q)
            xs = np.linspace(0, 1, 3000, endpoint=False) + 0.5 / 3000
            dists = np.array([dist_nearest_coprime(q, float(x)) for x in xs])
            for t in (0.2, 0.6, 1.0):
                emp = np.mean(dists < t)
                assert abs(emp - cdf(t)) < 0.02


class TestProductCoprime:
    def test_n1_recursion_base(self):
        for q, d in [(12, 0.3), (7, 0.05), (4, 0.9)]:
            got = product_region_measure_coprime(q, 1, d)
            want = region_measure_1d(RegionSpec(q, 1, d, coprime=True)).value
            assert got.value == pytest.approx(want, abs=1e-12)

    def test_q1_reduces_to_plain(self):
        for n in (2, 3):
            for d in (1e-4, 0.01, 0.2):
                got = product_region_measure_coprime(1, n, d, tol=1e-10)
                want = product_region_measure_plain(n, d).value
                assert got.value == pytest.approx(want, abs=1e-9)

    def test_monte_carlo_oracle_q12(self):
        # 1e7-sample oracle, drawn in chunks to bound memory; 0.3 and 1.1 lie
        # above delta = 1/4 (1.1 above e/4), where no term reduces to phi and L
        deltas = (1e-3, 0.3, 1.1)
        n_samples = 10_000_000
        chunk = 2_000_000
        hits = dict.fromkeys(deltas, 0)
        for start in range(0, n_samples, chunk):
            xs = sample_points(6121, start, start + chunk, 2)
            z = 12.0 * xs
            d = z - np.floor(z)
            np.minimum(d, 1.0 - d, out=d)
            p = np.rint(z).astype(np.int64)
            bad = np.gcd(p, 12) != 1
            d = np.where(bad, dist_nearest_unit_mod6(z), d)
            if start == 0:
                assert_matches_scalar_fixup(12, xs, d, bad)
            prod = d[:, 0] * d[:, 1]
            for delta in deltas:
                hits[delta] += int(np.count_nonzero(prod < delta))
        for delta in deltas:
            got = product_region_measure_coprime(12, 2, delta).value
            sigma = math.sqrt(got * (1 - got) / n_samples)
            assert abs(got - hits[delta] / n_samples) < 4 * sigma, delta

    def test_n3_against_recursion_and_mc(self):
        got = product_region_measure_coprime(6, 3, 5e-3, tol=1e-8)
        assert got.provenance == "numeric-exact"
        assert got.error_bound <= 1e-7
        xs = sample_points(77, 0, 400_000, 3)
        z = 6.0 * xs
        y = np.mod(z, 1.0)
        d = np.minimum(y, 1.0 - y)
        p = np.rint(z).astype(np.int64)
        bad = np.gcd(p, 6) != 1
        d = np.where(bad, dist_nearest_unit_mod6(z), d)
        assert_matches_scalar_fixup(6, xs, d, bad)
        p_hat = np.count_nonzero(d[:, 0] * d[:, 1] * d[:, 2] < 5e-3) / xs.shape[0]
        sigma = math.sqrt(p_hat * (1 - p_hat) / xs.shape[0])
        assert abs(got.value - p_hat) < 4 * sigma

    def test_dominated_by_plain(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            q = int(rng.integers(2, 400))
            n = int(rng.integers(1, 4))
            d = float(rng.uniform(0, 0.3) ** n)
            cop = product_region_measure_coprime(q, n, d, tol=1e-8).value
            plain = product_region_measure_plain(n, d).value
            assert cop <= plain + 1e-7

    def test_monotone_in_delta(self):
        # coprime distances of q=12 reach max-gap/2 = 2, so products cap at 4
        vals = [
            product_region_measure_coprime(12, 2, d).value
            for d in (0, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.1, 4.0)
        ]
        assert vals == sorted(vals)
        assert vals[0] == 0.0
        assert vals[-1] == 1.0

    def test_convergence_failure_carries_bracket(self):
        with pytest.raises(ConvergenceError) as exc:
            _product_cdf_rec(coprime_dist_cdf(12), 3, 1e-3, tol=1e-14, max_panels=3)
        assert 0.0 <= exc.value.best_value <= 1.0
        assert exc.value.error_bound > 0.0

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_a_tol_that_is_not_positive_and_finite(self, tol):
        # nan refined to the panel budget and raised a nan bound; inf returned a bound of inf
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            product_region_measure_coprime(1000, 3, 1e-4, tol=tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            region_measure(RegionSpec(1000, 3, 1e-4, coprime=True), tol=tol)

    @pytest.mark.parametrize("max_panels, best, bound", [
        (3, "0x1.7bb03f3b50c30p-7", "0x1.68b2b86a12b9bp-48"),
        (50, "0x1.8b3e58f90d9c3p-7", "0x1.6b8dc86a12b9bp-48"),
    ])
    def test_convergence_failure_bracket_pinned(self, max_panels, best, bound):
        # the bracket a stack of panels holds at its (max_panels + 1)-th pop, as the depth-first
        # quadrature recorded it
        with pytest.raises(ConvergenceError, match=f"exceeded {max_panels} panels") as exc:
            _product_cdf_rec(coprime_dist_cdf(12), 3, 1e-3, tol=1e-14, max_panels=max_panels)
        assert (exc.value.best_value.hex(), exc.value.error_bound.hex()) == (best, bound)


U = 2.0**-53

# n = 3 coprime values of psi(q) = 1/(q log(q+1)^3) at q = 1000..1009, tol 1e-9,
# from the quadrature whose k = 2 child was the piecewise law at every node
N3_PIECEWISE_CHILD = [
    0.00015809664087875223, 0.0006961505496560918, 9.648372689078682e-05,
    0.0013419589509262896, 0.0002819140762903442, 0.00031045343364635047,
    0.00028274587469951463, 0.0013517750640395817, 6.44859530183303e-05,
    0.001630093391094789,
]


# float.hex of (value, error bound) of product_region_measure_coprime(q, n, delta, tol), recorded from the
# recursive quadrature; delta None is exact-tail's psi(q) = 1/(q log(q + 1)**3)
QUADRATURE_PINS = {
    (1000, 3, None, 1e-9): ("0x1.4b8d7cdeac26cp-13", "0x1.12e11f2d7ce05p-31"),
    (1001, 3, None, 1e-9): ("0x1.6cfbbec03c789p-11", "0x1.12e247439f485p-31"),
    (1002, 3, None, 1e-9): ("0x1.94ae9ce6e2a83p-14", "0x1.12e0fb1df522dp-31"),
    (1003, 3, None, 1e-9): ("0x1.5fc9573a2a88ep-10", "0x1.12e3a210a0495p-31"),
    (1004, 3, None, 1e-9): ("0x1.279bbbcea3b11p-12", "0x1.12e16831e0f95p-31"),
    (1005, 3, None, 1e-9): ("0x1.4588b582d5983p-12", "0x1.12e172875ed35p-31"),
    (1006, 3, None, 1e-9): ("0x1.287b048f01477p-12", "0x1.12e168dfe8af1p-31"),
    (1007, 3, None, 1e-9): ("0x1.625c16c43258fp-10", "0x1.12e3a79769c55p-31"),
    (1008, 3, None, 1e-9): ("0x1.0e7943caffef4p-14", "0x1.12e0e71f43481p-31"),
    (1009, 3, None, 1e-9): ("0x1.ab51b7377a666p-10", "0x1.12e428b719f55p-31"),
    (6, 4, 0.01, 1e-8): ("0x1.f9683d8a2179bp-4", "0x1.58344f39d8c3ap-28"),
    (97, 4, 0.01, 1e-8): ("0x1.bff37495272c6p-1", "0x1.5b1e60fa08c3ap-28"),
}


def squarefree_up_to(limit: int) -> list[int]:
    return [r for r in range(1, limit + 1) if math.prod(prime_factors(r)) == r]


ORACLE_QS = list(range(1, 400)) + [2310, 30030, 99991, 510510]


def closed_form(q: int, delta: float) -> tuple[float, float]:
    """The n = 2 law from the lifted terms (phi, L_r), for 0 < delta < 1/4."""
    return _product_law2(delta, *_lifted_terms(q))


def piecewise(q: int, delta: float) -> tuple[float, float]:
    """The n = 2 law from the table: piecewise in delta, one set of terms between gap products."""
    return _product_cdf_rec(coprime_dist_cdf(q), 2, delta, 1e-9)


def mixture_oracle(q: int, delta: float) -> Decimal:
    """P(D1 D2 < delta) to 50 digits, for any delta >= 0.

    With probability g/r a coprime distance is uniform on [0, g/2], and the
    product of uniforms on [0, a] and [0, b] is below delta with probability
    F_2(delta/(ab)), F_2(t) = t (1 - ln t) on (0, 1]: a double sum over the
    distinct gaps in decimal arithmetic, independent of the float law.
    """
    if delta == 0:
        return Decimal(0)
    gaps, counts = gap_multiset(radical(q))
    with localcontext() as ctx:
        ctx.prec = 50
        r = Decimal(int(np.sum(gaps * counts)))
        x = 4 * Decimal(delta)
        log_x = x.ln()
        terms = [(g, c, Decimal(g).ln()) for g, c in zip(gaps.tolist(), counts.tolist())]
        total = Decimal(0)
        for g, c, log_g in terms:
            for h, e, log_h in terms:
                t = x / (g * h)
                total += c * e * g * h * (1 if t >= 1 else t * (1 - (log_x - log_g - log_h)))
        return total / (r * r)


def covers(value: float, bound: float, exact) -> bool:
    return abs(Decimal(value) - Decimal(exact)) <= Decimal(bound)


def support_deltas(q: int) -> list[float]:
    """delta across (0, T**2): fixed fractions of it, e/4 where 1 - log(4 delta)
    changes sign, and each table knot P/4 with its float neighbours."""
    t2 = coprime_dist_cdf(q).max_distance ** 2
    out = [f * t2 for f in (1e-12, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
    out.append(math.nextafter(t2, 0.0))
    out += [math.e / 4, math.nextafter(math.e / 4, 0.0), math.nextafter(math.e / 4, 1.0)]
    gaps = coprime_dist_cdf(q).gaps
    for knot in sorted({g * h / 4 for g in gaps for h in gaps}):
        out += [math.nextafter(knot, 0.0), knot, math.nextafter(knot, math.inf)]
    return [d for d in out if 0.0 < d < t2]


class TestClosedFormN2:
    def test_lifting_matches_direct_log_sum(self):
        # every squarefree r <= 30030, the fallback (p <= a gap of s) included
        fallback = []
        for r in squarefree_up_to(30030):
            gaps = _cyclic_gaps(r)[1]
            counts = np.bincount(gaps)
            want = math.fsum(c * math.log(g) for g, c in enumerate(counts.tolist()) if c)
            got_r, phi, got = _gap_log_sum(r)
            assert (got_r, phi) == (r, gaps.size)
            # lifted within 5u; grouped by gap length, the direct sum within 4u
            assert abs(got - want) <= 9 * U * want, r
            primes = prime_factors(r)
            if primes and primes[-1] <= _gap_stats(r // primes[-1])[3][-1]:
                fallback.append(r)
        # the only r where p is not above every gap of s; it still lifts (next test)
        assert fallback == [30030]

    def test_30030_lifts_under_the_exact_condition(self, monkeypatch):
        # 13 is not above 14, the largest gap of 2310, but divides none of its gaps
        stats = diolab.regions._gap_stats
        seen = []
        monkeypatch.setattr(diolab.regions, "_gap_stats", lambda m: seen.append(m) or stats(m))
        r, phi, got = _gap_log_sum(30030)
        assert seen == [2310] and all(g % 13 for g in stats(2310)[3])
        gaps, counts = gap_multiset(30030)
        with localcontext() as ctx:
            ctx.prec = 40
            want = float(sum(c * Decimal(g).ln() for g, c in zip(gaps.tolist(), counts.tolist())))
        assert (r, phi) == (30030, stats(30030)[0])
        assert abs(got - want) <= 5 * U * want

    def test_table_head_matches_lifting(self):
        # below x = 1 the table's terms are (0, phi**2/r**2, 2 phi L/r**2), each
        # above_log within 7u
        for q in ORACLE_QS:
            below, above, above_log = coprime_dist_cdf(q).law2_terms(0.5)
            lifted = _lifted_terms(q)
            assert (below, above) == lifted[:2] == (0.0, euler_phi(radical(q)) ** 2 / radical(q) ** 2), q
            assert abs(above_log - lifted[2]) <= 14 * U * above_log, q

    def test_small_radicals(self):
        assert _gap_log_sum(1) == (1, 1, 0.0)
        for p in (2, 3, 7, 99991):
            assert _gap_log_sum(p ** 2) == (p, p - 1, math.log(2))

    @pytest.mark.parametrize("delta", [1e-6, 1e-3, 0.1, 0.2499])
    def test_agrees_with_piecewise(self, delta):
        # both sources at delta, and the table at the same fraction 4 delta of (0, T**2)
        for q in ORACLE_QS:
            exact = mixture_oracle(q, delta)
            assert covers(*closed_form(q, delta), exact), q
            assert covers(*piecewise(q, delta), exact), q
            wide = 4 * delta * coprime_dist_cdf(q).max_distance ** 2
            assert covers(*piecewise(q, wide), mixture_oracle(q, wide)), q

    @pytest.mark.parametrize("q", [1, 2, 6, 12, 30, 97, 210, 2310, 30030])
    def test_bounds_cover_the_true_value(self, q):
        for delta in (1e-9, 1e-4, 0.01, 0.2, 0.2499):
            exact = mixture_oracle(q, delta)
            assert covers(*closed_form(q, delta), exact), delta
            assert covers(*piecewise(q, delta), exact), delta
        for delta in support_deltas(q):
            got = product_region_measure_coprime(q, 2, delta)
            assert covers(got.value, got.error_bound, mixture_oracle(q, delta)), delta

    def test_q1_is_the_plain_law(self):
        for delta in (1e-8, 1e-3, 0.05, 0.2499):
            value, bound = closed_form(1, delta)
            assert abs(value - uniform_product_cdf(2, 4 * delta)) <= bound + 4 * U * value

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        q=st.integers(1, 10**6),
        delta=st.floats(1e-300, 0.25, exclude_max=True) | st.floats(1e-12, 0.25, exclude_max=True),
    )
    @example(q=30030, delta=0.2)
    @example(q=1, delta=5e-324)
    def test_bound_covers_piecewise(self, q, delta):
        exact = mixture_oracle(q, delta)
        assert covers(*closed_form(q, delta), exact)
        assert covers(*piecewise(q, delta), exact)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(q=st.integers(1, 10**6), frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(q=12, frac=math.e / 16)
    @example(q=510510, frac=0.999)
    @example(q=2, frac=5e-324)
    def test_bound_covers_the_mixture_across_the_support(self, q, frac):
        delta = frac * coprime_dist_cdf(q).max_distance ** 2
        got = product_region_measure_coprime(q, 2, delta)
        assert got.provenance == "numeric-exact"
        assert covers(got.value, got.error_bound, mixture_oracle(q, delta))

    def test_public_entry_uses_the_closed_form_below_a_quarter(self):
        got = product_region_measure_coprime(360, 2, 0.01)
        assert (got.value, got.error_bound) == closed_form(360, 0.01)
        assert got.provenance == "numeric-exact"
        assert covers(got.value, got.error_bound, mixture_oracle(360, 0.01))
        for delta in (0.25, 1.0, 3.9):
            got = product_region_measure_coprime(360, 2, delta)
            assert (got.value, got.error_bound) == piecewise(360, delta)
            assert covers(got.value, got.error_bound, mixture_oracle(360, delta)), delta

    @pytest.mark.parametrize("q", [1, 30, 2310])
    def test_n3_at_a_subnormal_delta(self, q):
        # nodes delta/t round to 0: the k = 2 child must return 0, not take log(0)
        got = product_region_measure_coprime(q, 3, 5e-324)
        assert 0.0 <= got.value <= got.error_bound

    def test_n3_within_its_bound_of_the_piecewise_child(self):
        qs = np.arange(1000, 1010)
        deltas = power_log(1.0, 1.0, 3.0).values(qs).tolist()
        for q, delta, old in zip(qs.tolist(), deltas, N3_PIECEWISE_CHILD):
            got = product_region_measure_coprime(q, 3, delta, tol=1e-9)
            assert abs(got.value - old) <= got.error_bound

    def test_quadrature_values_and_bounds_are_pinned_bit_for_bit(self):
        # the quadrature evaluates the n = 2 law at the n = 3 nodes, on float nodes; the same
        # sums in the same order as its recursion into k = 2 gave, when these were recorded
        psi = power_log(1.0, 1.0, 3.0)
        for (q, n, delta, tol), pin in QUADRATURE_PINS.items():
            got = product_region_measure_coprime(q, n, psi(q) if delta is None else delta, tol=tol)
            assert (got.value.hex(), got.error_bound.hex()) == pin, (q, n, delta)


# The depth-first quadrature that the level driver replaced, as it was: the oracle of
# TestLevelQuadrature.  Panels pop from a stack, right half first; each evaluates its k - 1 child
# at the nodes of numpy's Gauss-Legendre rules one by one.
LEGGAUSS7, LEGGAUSS15 = ((x.tolist(), w) for x, w in map(np.polynomial.legendre.leggauss, (7, 15)))


def _gl_panel(fn, a, b, rule):
    nodes, weights = rule
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * float(np.sum(weights * np.array([fn(mid + half * x) for x in nodes])))


def depth_first_quadrature(cdf, k, delta, tol, max_panels=4000):
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
    T2 = T**2

    def child(u):
        if k > 3:
            return depth_first_quadrature(cdf, k - 1, u, child_tol)[0]
        return 0.0 if u <= 0.0 else 1.0 if u >= T2 else _product_law2(u, *cdf.law2_terms(4.0 * u))[0]

    cut = delta / T ** (k - 1)
    pieces = sorted({0.0, T, min(cut, T)} | {g / 2.0 for g in cdf.gaps if g / 2.0 < T})
    total = 0.0
    err = 0.0
    work = []
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
            work.append((t1, t2, c_f))
    used = 0
    while work:
        a, b, cf = work.pop()
        used += 1
        if used > max_panels:
            best = total + sum(
                cf2 * _gl_panel(lambda t: child(delta / t), a2, b2, LEGGAUSS15) for a2, b2, cf2 in work + [(a, b, cf)]
            )
            raise ConvergenceError(f"adaptive refinement exceeded {max_panels} panels", best, err + quad_tol)
        fn = lambda t: child(delta / t)
        coarse = cf * _gl_panel(fn, a, b, LEGGAUSS7)
        fine = cf * _gl_panel(fn, a, b, LEGGAUSS15)
        panel_err = abs(fine - coarse)
        if panel_err <= quad_tol * (b - a) / T or (b - a) < 1e-14:
            total += fine
            err += panel_err
        else:
            mid = 0.5 * (a + b)
            work.append((a, mid, cf))
            work.append((mid, b, cf))
    return min(1.0, total), err + child_tol


def quadrature_outcome(fn, cdf, k, delta, tol, max_panels):
    """fn's (value, bound) or its ConvergenceError, floats by their bits."""
    try:
        value, bound = fn(cdf, k, delta, tol, max_panels=max_panels)
    except ConvergenceError as exc:
        return "error", str(exc), exc.best_value.hex(), exc.error_bound.hex()
    return "value", type(value), value.hex(), bound.hex()


class TestLevelQuadrature:
    def test_rules_are_numpy_leggauss(self):
        for (nodes, weights), (x, w) in zip((_GL7, _GL15), (LEGGAUSS7, LEGGAUSS15)):
            for got, want in zip(nodes.tolist() + weights.tolist(), x + w.tolist()):
                assert abs(got - want) <= 4 * math.ulp(want), (got, want)
            assert nodes.tolist() == sorted(nodes.tolist()) and nodes.tolist() == [-v for v in reversed(nodes.tolist())]

    def test_import_needs_no_numpy_polynomial(self):
        import os
        import subprocess
        from pathlib import Path

        env = {**os.environ, "PYTHONPATH": str(Path(diolab.regions.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import diolab"], capture_output=True, text=True, check=True, env=env
        )
        assert "diolab.regions" in out.stderr and "numpy.polynomial" not in out.stderr

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_gl_sums_add_in_np_sum_order(self, rows, seed):
        rng = np.random.default_rng(seed)
        values = rng.random((rows, 22)) * 10.0 ** rng.integers(-30, 1, (rows, 22))
        for got, (_, weights), cols in ((_gl_sum(values[:, :7], _GL7[1]), LEGGAUSS7, values[:, :7]),
                                        (_gl_sum(values[:, 7:], _GL15[1]), LEGGAUSS15, values[:, 7:])):
            assert got.tolist() == [float(np.sum(weights * row)) for row in cols]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        r=st.integers(1, 3000).map(radical),
        frac=st.floats(5e-324, 1.0) | st.floats(-744.0, 0.0).map(math.exp),  # and spread evenly in log
        tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
        max_panels=st.sampled_from([4000, 4000, 1, 7, 60]),
    )
    @example(r=30030, frac=1e-3, tol=1e-9, max_panels=4000)
    @example(r=2310, frac=5e-324, tol=1e-12, max_panels=4000)
    @example(r=12, frac=1.0, tol=1e-6, max_panels=4000)
    def test_n3_equals_the_depth_first_quadrature(self, r, frac, tol, max_panels):
        cdf = coprime_dist_cdf(r)
        delta = frac * cdf.max_distance**3
        want = quadrature_outcome(depth_first_quadrature, cdf, 3, delta, tol, max_panels)
        assert quadrature_outcome(_product_cdf_rec, cdf, 3, delta, tol, max_panels) == want

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        r=st.sampled_from([1, 2, 3, 5, 6, 7, 10, 30]),
        frac=st.floats(1e-12, 1.0),
        tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
        max_panels=st.integers(1, 8),
    )
    @example(r=6, frac=0.3, tol=1e-9, max_panels=4000)
    def test_n4_equals_the_depth_first_quadrature(self, r, frac, tol, max_panels):
        # every node's child is a k = 3 driver call; a small max_panels keeps each draw to a few
        # hundred of them, and the pinned n = 4 values cover whole runs
        cdf = coprime_dist_cdf(r)
        delta = frac * cdf.max_distance**4
        want = quadrature_outcome(depth_first_quadrature, cdf, 4, delta, tol, max_panels)
        assert quadrature_outcome(_product_cdf_rec, cdf, 4, delta, tol, max_panels) == want

    @pytest.mark.parametrize("q, delta, tol, max_panels, child_panels, stopped_at", [
        # the first child evaluated fails
        (12, 1e-3, 1e-16, 4000, 4000, 4000),
        # a level pass meets a failing child in a panel that the stack has not reached at its 7th pop
        (12, 0.01, 1e-15, 6, 200, 6),
        # the 3rd pop stops the stack; the panel at its bottom failed at a 15-point node in its level
        # pass, and the bracket, which evaluates that rule again, raises that child's failure
        (6, 0.05, 1e-15, 2, 200, 200),
    ])
    def test_n4_raises_the_failure_a_stack_meets_first(self, monkeypatch, q, delta, tol, max_panels, child_panels,
                                                       stopped_at):
        # the k = 3 children stop at child_panels, in the driver and in the oracle
        for fn in (_product_cdf_rec, depth_first_quadrature):
            monkeypatch.setattr(fn, "__defaults__", (child_panels,))
        cdf = coprime_dist_cdf(q)
        want = quadrature_outcome(depth_first_quadrature, cdf, 4, delta, tol, max_panels)
        assert want[:2] == ("error", f"adaptive refinement exceeded {stopped_at} panels")
        assert quadrature_outcome(_product_cdf_rec, cdf, 4, delta, tol, max_panels) == want

    def test_n4_bracket_evaluates_an_unreached_panel_at_its_15_nodes(self, monkeypatch):
        # the level passes stop after the first level (2 panels, past the budget of 1); the stack splits its
        # first panel and stops at its 2nd pop, holding both halves, which no pass reached.  The bracket
        # evaluates their 15-point nodes alone and raises the right half's failing child, as the depth-first
        # quadrature did, where a 7-point node of the left half would fail first
        for fn in (_product_cdf_rec, depth_first_quadrature):
            monkeypatch.setattr(fn, "__defaults__", (50,))
        cdf = coprime_dist_cdf(6)
        delta = 0.3 * cdf.max_distance**4
        want = quadrature_outcome(depth_first_quadrature, cdf, 4, delta, 1e-15, 1)
        assert want[:2] == ("error", "adaptive refinement exceeded 50 panels")
        assert quadrature_outcome(_product_cdf_rec, cdf, 4, delta, 1e-15, 1) == want

    def test_level_passes_evaluate_each_popped_panel_once(self, monkeypatch):
        # exact-tail's n = 3 inputs: each _law_values call is one whole refinement level of the panels the
        # depth-first quadrature pops, and within the budget no panel is evaluated again, one row at a time
        gl_panel, law_values = _gl_panel, diolab.regions._law_values
        popped, rows = [], []
        monkeypatch.setitem(globals(), "_gl_panel", lambda fn, a, b, rule: (
            rule is LEGGAUSS7 and popped.append((a, b))) or gl_panel(fn, a, b, rule))
        monkeypatch.setattr(diolab.regions, "_law_values", lambda cdf, k, u, tol: (
            rows.append(u.shape[0])) or law_values(cdf, k, u, tol))
        psi = power_log(1.0, 1.0, 3.0)
        for q in range(1000, 1010):
            cdf = coprime_dist_cdf(q)
            popped.clear()
            rows.clear()
            want = quadrature_outcome(depth_first_quadrature, cdf, 3, psi(q), 1e-9, 4000)
            assert quadrature_outcome(_product_cdf_rec, cdf, 3, psi(q), 1e-9, 4000) == want
            # a panel's halvings are the popped panels that contain it: its ancestors, each split
            depths = [sum(a2 <= a and b <= b2 for a2, b2 in popped) - 1 for a, b in popped]
            assert rows == np.bincount(depths).tolist(), q
            assert len(rows) == max(depths) + 1 and sum(rows) == len(popped), q


class TestGapStats:
    @pytest.mark.parametrize("ms", [range(1, 3001), [30030, 510510, 9699690]], ids=["m<=3000", "primorials"])
    def test_sums_by_count_equal_fsum(self, ms):
        for m in ms:
            gaps = _cyclic_gaps(m)[1]
            merged = gaps + np.roll(gaps, 1)
            want = (
                gaps.size,
                math.fsum(map(math.log, gaps.tolist())).hex(),
                math.fsum(map(math.log, merged.tolist())).hex(),
                tuple(sorted(set(gaps.tolist()))),
            )
            phi, log_sum, merged_sum, distinct = _gap_stats(m)
            assert (phi, log_sum.hex(), merged_sum.hex(), distinct) == want, m
            assert type(phi) is int and all(type(g) is int for g in distinct)


RAD_BLOCK = diolab.regions._RAD_BLOCK
RAD_CAP = diolab.regions._RAD_CAP
SMALL_PRIMES = primes_up_to(2**15).tolist()


def prev_prime(n: int) -> int:
    while not is_prime(n):
        n -= 1
    return n


def float_bits(values: tuple) -> list:
    """Each entry with its type, floats by their bits."""
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


def trial_route(fn, q: int):
    """fn(q) with rad(q) and its largest prime found by trial division: no q is under the cap."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diolab.regions, "_RAD_CAP", 0)
        return fn(q)


def fresh_radicals(mp: pytest.MonkeyPatch) -> list:
    """No previous call and no sieved block; returns the list of radical_segment spans sieved from here on."""
    mp.setattr(diolab.regions, "_radicals", type(diolab.regions._radicals)())
    sieve = diolab.regions.radical_segment
    spans = []
    mp.setattr(diolab.regions, "radical_segment", lambda *span: spans.append(span) or sieve(*span))
    return spans


def block_route(fn, q: int):
    """fn(q) read from q's sieved block: from a fresh state, a call in the same block comes first."""
    with pytest.MonkeyPatch.context() as mp:
        spans = fresh_radicals(mp)
        _gap_log_sum(q + 1 if q % RAD_BLOCK == 1 else q - 1)
        got = fn(q)
    lo = (q - 1) // RAD_BLOCK * RAD_BLOCK + 1
    assert spans == [(lo, lo + RAD_BLOCK)]
    return got


@st.composite
def two_primes(draw) -> int:
    """a P with P above isqrt of the top of its block, so the sieve's cofactor holds P."""
    a = draw(st.sampled_from(SMALL_PRIMES))
    P = prev_prime(draw(st.integers(a + 1, RAD_CAP // a)))
    q = a * P
    assume(P > math.isqrt((q - 1) // RAD_BLOCK * RAD_BLOCK + RAD_BLOCK))
    return q


def prime_powers(p: int, k: int) -> int:
    while p**k > RAD_CAP:
        k -= 1
    return p**k


radical_draws = (
    st.builds(lambda k, d: k * RAD_BLOCK + d, st.integers(1, RAD_CAP // RAD_BLOCK), st.sampled_from([-1, 0, 1]))
    | st.sampled_from([1, 2])
    | st.sampled_from(SMALL_PRIMES)
    | st.integers(2**15, RAD_CAP).map(prev_prime)
    | st.builds(prime_powers, st.sampled_from(SMALL_PRIMES), st.integers(2, 30))
    | two_primes()
)


class TestRadicalBlocks:
    """The n = 2 law reads rad(q) and its largest prime from a sieved block on sequential calls."""

    @pytest.fixture
    def sieved(self, monkeypatch):
        return fresh_radicals(monkeypatch)

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(radical_draws)
    @example(1)
    @example(2)
    @example(RAD_BLOCK)
    @example(RAD_BLOCK + 1)
    @example(30030)
    @example(RAD_CAP)  # the top of the last block that is sieved
    @example(RAD_CAP - 35)  # the largest prime below the cap
    @example(3323 * 323123)  # the first q of the last block, a P with P > 2**15
    @example(32749**2)
    def test_the_block_route_equals_trial_division(self, q):
        for fn in (_gap_log_sum, _lifted_terms):
            assert float_bits(block_route(fn, q)) == float_bits(trial_route(fn, q)), (fn.__name__, q)

    def test_every_q_to_2e5_in_order(self, sieved):
        qs = range(1, 200_001)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diolab.regions, "_RAD_CAP", 0)
            want = [_gap_log_sum(q) for q in qs]
        assert sieved == []
        got = [_gap_log_sum(q) for q in qs]
        assert len(sieved) == len(qs) // RAD_BLOCK + 1
        assert [float_bits(t) for t in got] == [float_bits(t) for t in want]

    def test_threads_scanning_the_same_blocks_read_the_right_radicals(self, sieved):
        # eight threads take turns through the q of the same 16 blocks, each sieving its own blocks
        # while the others run: every call must read the radicals of its own q
        scans = [range(1 + t, 1 + 16 * RAD_BLOCK, 8) for t in range(8)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diolab.regions, "_RAD_CAP", 0)
            want = [[_gap_log_sum(q) for q in scan] for scan in scans]
        got = [None] * len(scans)

        def run(t: int) -> None:
            got[t] = [_gap_log_sum(q) for q in scans[t]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(4):  # a race shows in some rounds only
                threads = [threading.Thread(target=run, args=(t,)) for t in range(len(scans))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert sieved and got == want
                got = [None] * len(scans)
        finally:
            sys.setswitchinterval(interval)

    def test_threads_taking_turns_on_their_own_blocks_sieve_each_once(self, sieved):
        # four threads each scan two blocks of their own while the others run: the block rule
        # is kept per thread, so no thread loses its block to another's call
        scans = [range(1 + 2 * t * RAD_BLOCK, 1 + 2 * (t + 1) * RAD_BLOCK) for t in range(4)]
        got = [None] * len(scans)

        def run(t: int) -> None:
            got[t] = [_gap_log_sum(q) for q in scans[t]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in range(len(scans))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(sieved) == [(k * RAD_BLOCK + 1, (k + 1) * RAD_BLOCK + 1) for k in range(8)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diolab.regions, "_RAD_CAP", 0)
            assert got == [[_gap_log_sum(q) for q in scan] for scan in scans]

    def test_a_scan_over_three_blocks_sieves_three_times(self, sieved):
        for q in range(1, 3 * RAD_BLOCK + 1):
            _gap_log_sum(q)
        assert sieved == [(k * RAD_BLOCK + 1, (k + 1) * RAD_BLOCK + 1) for k in range(3)]

    def test_calls_a_block_apart_never_sieve(self, sieved):
        for j in range(50):
            _lifted_terms(5 + j * (RAD_BLOCK + 1))
        assert sieved == []

    def test_no_q_past_the_cap_sieves(self, sieved):
        for q in [RAD_CAP + 1] * 3 + list(range(RAD_CAP + 2, RAD_CAP + 8)):
            _gap_log_sum(q)
        assert sieved == []
        _gap_log_sum(RAD_CAP)
        _gap_log_sum(RAD_CAP)
        assert sieved == [(RAD_CAP - RAD_BLOCK + 1, RAD_CAP + 1)]


class TestHyperbolicEquivalence:
    def test_product_condition_matches_rational_point_form(self):
        # prod_i min_p |x_i - p/q| < delta/q**n  <=>  prod_i ||q x_i|| < delta
        rng = np.random.default_rng(15)
        for _ in range(200):
            q = int(rng.integers(1, 30))
            n = int(rng.integers(1, 4))
            x = rng.random(n)
            delta = float(rng.uniform(0, 0.2))
            lhs = 1.0
            for xi in x:
                lhs *= min(abs(xi - p / q) for p in range(-1, q + 2))
            rhs = 1.0
            for xi in x:
                rhs *= dist_nearest(q, float(xi))
            assert (lhs < delta / q**n) == (rhs < delta)

    def test_coprime_condition_matches_rational_point_form(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            q = int(rng.integers(1, 30))
            x = float(rng.random())
            delta = float(rng.uniform(0, 0.4))
            lhs = min(
                abs(x - p / q) for p in range(-3, q + 4) if math.gcd(p, q) == 1
            )
            assert (lhs < delta / q) == (dist_nearest_coprime(q, x) < delta)


class TestTruncatedUnion:
    def test_zero_family(self):
        assert truncated_union_1d(power_log(0, 0, 0), 1, 100).value == 0.0

    def test_single_q_hand_case(self):
        got = truncated_union_1d(table_psi([Fraction(1, 10)]), 1, 1)
        assert got.value == pytest.approx(0.2)
        assert got.provenance == "exact"

    def test_monotone_in_Q(self):
        f = power_log(0.25, 1, 0)
        vals = [truncated_union_1d(f, 1, Q, coprime=True).value for Q in (1, 2, 4, 8, 16, 32)]
        assert vals == sorted(vals)

    def test_bracketed_by_slices(self):
        f = power_log(0.25, 1, 0)
        for Q in (4, 16, 64):
            union = truncated_union_1d(f, 1, Q, coprime=True).value
            qs = np.arange(1, Q + 1)
            singles = [
                region_measure_1d(RegionSpec(q, 1, d, coprime=True)).value
                for q, d in zip(qs.tolist(), f.values(qs).tolist())
            ]
            assert union >= max(singles) - 1e-12
            assert union <= sum(singles) + 1e-12

    def test_exact_rational_path_matches_float(self):
        entries = [Fraction(1, 7), Fraction(1, 9), 0, Fraction(2, 11)]
        exact = truncated_union_1d(table_psi(entries), 1, 4, coprime=True)
        assert exact.provenance == "exact" and exact.value == float(brute_union(entries, True))
        # float entries are swept exactly too, at the rational values of the floats
        floats = truncated_union_1d(table_psi([float(d) for d in entries]), 1, 4, coprime=True)
        assert floats.provenance == "exact"
        assert floats.value == float(brute_union([Fraction(float(d)) for d in entries], True))

    @pytest.mark.parametrize("coprime", [False, True])
    def test_a_delta_past_q_covers_the_unit_interval(self, coprime):
        # the union caps delta at q, where slice q covers [0, 1]: entries past any float are swept too
        for entries in ([10**400], [0, Fraction(10**400, 3)], [0.0, 1e300], [0, 0, 3]):
            assert truncated_union_1d(table_psi(entries), 1, len(entries), coprime=coprime).value == 1.0

    @pytest.mark.parametrize("coprime", [False, True])
    def test_sub_ulp_slices_that_share_centres(self, coprime):
        # every key ties with the keys of the same centre p/r in other slices, and the exact
        # union, about 2e-20 sum phi(r)/r, is far from what float keys of zero length give
        f = power_log(1e-20, 0, 0)
        want = brute_union([Fraction(1e-20)] * 40, coprime)
        assert truncated_union_1d(f, 1, 40, coprime=coprime).value == float(want)

    def test_ties_under_one_long_maximum_stay_cheap(self):
        # slice 1 spans [-1/2, 1/2] and [1/2, 3/2], and every other slice puts sub-ulp intervals at
        # its centres p/r, whose keys tie.  Inside [0, 1/2) the runs of ties merge whole, in any
        # order; at 1/2 the 150 even q each make an uncertain merge under the running maximum that
        # slice 1 set at the first key.  Sorting every run exactly took 10 MiB here, and reading
        # every key back to that maximum for each merge 110 MiB.
        tracemalloc.start()
        try:
            got = truncated_union_1d(table_psi([0.5] + [1e-20] * 299), 1, 300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.value == 1.0 and peak < 6 * 2**20

    def test_one_long_component_reads_back_only_the_keys_near_its_end(self):
        # slice 1 spans [-1, 1] and [0, 2], so the plain union to 500 is one component, whose end
        # was set by its second key: its n keys take about seven float arrays of n at the peak,
        # and reading every key back to that end took three more
        n = sum(q + 1 for q in range(1, 501))
        tracemalloc.start()
        try:
            got = truncated_union_1d(power_log(1, 3, 0), 1, 500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.value == 1.0 and peak < 8 * 8 * n

    def test_an_uncertain_merge_reads_the_largest_end_before_it(self):
        # A = 1/3 -+ a (slice 3) and B = 1/3 -+ b (slice 6), b < a within a few ulps, then C from
        # slice 2 starting between their ends: C merges with A, whose end lies before B in start order
        a, b = Fraction(4, 10**16), Fraction(2, 10**16)
        entries = [0, 1 - 2 * (Fraction(1, 3) + (a + b) / 2), 3 * a, 0, 0, 6 * b]
        got = truncated_union_1d(table_psi(entries), 1, 6)
        assert got.value == float(brute_union(entries, False))

    @pytest.mark.parametrize("Q0", [1, 100])
    def test_table_shorter_than_Q_past_one_block(self, Q0, monkeypatch):
        entries = [Fraction(1, 4 * q) for q in range(1, 151)]
        f = table_psi(entries)
        # q past the table reads delta = 0 without asking psi
        monkeypatch.setattr(type(f), "values", None)
        got = truncated_union_1d(f, Q0, SCAN_BLOCK + 5, coprime=True)
        want = brute_union([d if q >= Q0 else 0 for q, d in enumerate(entries, 1)], True)
        assert got.provenance == "exact" and got.value == float(want)
        assert truncated_union_1d(f, 151, 2 * SCAN_BLOCK + 1).value == 0.0

    @pytest.mark.parametrize("modulus", [1, 7], ids=["float_table", "multiples_of_7"])
    def test_only_the_support_is_read_at_any_q(self, monkeypatch, modulus):
        # psi is 0 off the support (modulus, 200), so a union to Q = 1e10 reads psi and phi there alone
        entries = [1 / (4 * q) for q in range(1, 201)]
        f = table_psi(entries)
        if modulus > 1:
            f = indicator_support(f, "multiples_of", modulus)
        assert f.nonzero_support == (modulus, 200)

        def reading(qs):
            off = [q for q in qs.tolist() if q > 200 or q % modulus]
            assert not off, f"read q = {off[0]} off the support"

        values = TablePsi.values
        monkeypatch.setattr(TablePsi, "values", lambda g, qs: reading(qs) or values(g, qs))
        monkeypatch.setattr(diolab.regions, "phi_values", lambda qs: reading(qs) or phi_values(qs))
        start = time.perf_counter()
        got = truncated_union_1d(f, 1, 10**10, coprime=True)
        assert time.perf_counter() - start < 1.0
        want = brute_union([Fraction(d) if q % modulus == 0 else 0 for q, d in enumerate(entries, 1)], True)
        assert got.provenance == "exact" and got.value == float(want)

    @pytest.mark.parametrize(
        "c, a, Q, want",
        [(0.25, 1, 2000, 0.9978022458044786), (0.1, 0.9, 1500, 0.9059889201548638), (0.25, 1, 4000, 0.9987045476974454)],
    )
    def test_pins_the_integer_sweep_of_the_float_values(self, c, a, Q, want):
        # each pin is the integer sweep of the table of Fraction(float(psi(q))); a plain float
        # sweep read 0.9978022458044611 at Q = 2000, 80 ulps off
        assert truncated_union_1d(power_log(c, a, 0), 1, Q, coprime=True).value == want

    def test_entry_below_the_smallest_float_is_swept_and_counted(self, monkeypatch):
        f = table_psi([0, Fraction(1, 2**1100)])
        assert f(2) == 0.0
        swept = []
        make = diolab.regions._slice_raw_intervals
        monkeypatch.setattr(diolab.regions, "_slice_raw_intervals", lambda q, d, c: swept.append(q) or make(q, d, c))
        # slice 2 has the three intervals around 0, 1/2 and 1: the budget counts exactly those.  They are
        # swept as the reduced fractions 0/1 and 1/1 of slice 1 and 1/2 of slice 2
        assert truncated_union_1d(f, 1, 2, budget=3).value == 0.0
        assert swept == [1, 2]
        with pytest.raises(ResourceBudgetError):
            truncated_union_1d(f, 1, 2, budget=2)

    def test_budget(self):
        with pytest.raises(ResourceBudgetError):
            truncated_union_1d(power_log(1, 1, 0), 1, 5000, budget=100)

    def test_budget_raises_before_building_the_range(self):
        # 2e7 q would take 160 MB per whole-range array; the count stops in the first block
        tracemalloc.start()
        try:
            with pytest.raises(ResourceBudgetError, match="budget=5000000 intervals"):
                truncated_union_1d(power_log(0.25, 1, 0), 1, 20_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_only_coprime_sweeps_read_phi(self, monkeypatch):
        f = power_log(0.25, 1, 0)
        reads = []
        monkeypatch.setattr(diolab.regions, "phi_values", lambda qs: reads.append(len(qs)) or phi_values(qs))
        truncated_union_1d(f, 1, 500)
        with pytest.raises(ResourceBudgetError):
            truncated_union_1d(f, 1, 500, budget=100)
        assert reads == []
        # a coprime sweep builds phi(q) intervals per slice: the budget counts exactly those
        total = sum(euler_phi(q) for q in range(1, 501))
        truncated_union_1d(f, 1, 500, coprime=True, budget=total)
        with pytest.raises(ResourceBudgetError):
            truncated_union_1d(f, 1, 500, coprime=True, budget=total - 1)
        assert reads == [500, 500]  # one read per block of q


def brute_centers(q: int, delta) -> list[int]:
    """Numerators c coprime to q with -delta < c < q + delta, compared one by one as rationals."""
    delta = Fraction(delta)
    return [c for c in range(-q, 2 * q) if math.gcd(c, q) == 1 and -delta < c < q + delta]


def fraction_union_measure(intervals) -> Fraction:
    total, cursor = Fraction(0), Fraction(0)
    for lo, hi in sorted(intervals):
        total += max(hi, cursor) - max(lo, cursor)
        cursor = max(hi, cursor)
    return total


class TestSliceCenters:
    """Coprime slices with delta at an integer, where -delta < c < q + delta meets equality."""

    @pytest.mark.parametrize("q", [5, 12, 30])
    def test_float_delta_at_and_one_ulp_beside_an_integer(self, q):
        for k in (1.0, 2.0):
            for d in (math.nextafter(k, 0.0), k, math.nextafter(k, 3.0)):
                c = np.array(brute_centers(q, d), dtype=np.float64)
                starts, ends = (c - d) / q, (c + d) / q
                raw = _slice_raw_intervals(q, d, True)
                assert np.array_equal(raw[0], starts) and np.array_equal(raw[1], ends)
                want = IntervalUnion.from_intervals(starts, ends)
                got = slice_union(q, d, coprime=True)
                assert np.array_equal(got.starts, want.starts) and np.array_equal(got.ends, want.ends)
                swept = truncated_union_1d(table_psi([0] * (q - 1) + [d]), q, q, coprime=True)
                assert swept.value == float(brute_union([0] * (q - 1) + [Fraction(d)], True))

    @pytest.mark.parametrize("q", [5, 12, 30])
    def test_fraction_delta_at_and_1e_20_beside_an_integer(self, q):
        eps = Fraction(1, 10**20)
        for k in (1, 2):
            for d in (k - eps, Fraction(k), k + eps):
                want = [
                    (max(Fraction(0), Fraction(c - d, q)), min(Fraction(1), Fraction(c + d, q)))
                    for c in brute_centers(q, d)
                ]
                assert _slice_raw_intervals(q, d, True)[2].tolist() == brute_centers(q, d)
                swept = truncated_union_1d(table_psi([0] * (q - 1) + [d]), q, q, coprime=True)
                assert swept.value == float(fraction_union_measure(want))


def admissible(c: int, q: int, coprime: bool) -> bool:
    return not coprime or math.gcd(c, q) == 1


def brute_union(entries: list, coprime: bool) -> Fraction:
    """Measure of the union of every slice of a rational table, from Fraction intervals."""
    intervals = []
    for q, d in enumerate(entries, 1):
        for c in range(math.floor(-d), math.ceil(q + d) + 1):
            if d > 0 and -d < c < q + d and admissible(c, q, coprime):
                intervals.append((max(Fraction(0), (c - d) / q), min(Fraction(1), (c + d) / q)))
    return fraction_union_measure(intervals)


# (kind, numerator seed, bit length): see table_entry
entry_draws = st.tuples(st.integers(0, 2), st.integers(1, 2**100), st.integers(54, 100))


def table_entry(kind: int, num: int, bits: int, scale: int) -> Fraction:
    """0, or a delta up to 1/(4 scale) over 60 scale or over a denominator just above 2**bits."""
    if kind == 0:
        return Fraction(0)
    den = 60 if kind == 1 else (1 << bits) + 2 * (num % 2**30) + 1
    return Fraction(num % (den // 4) + 1, den * scale)


@st.composite
def rational_tables(draw):
    """(entries, coprime): a sparse rational table whose slices meet in forced coincidences.

    Entries are zero or up to 1/(4q**2), with small denominators or with
    denominators past 2**53 and 2**63, so that most of [0, 1] stays
    uncovered; in half the tables one entry has delta >= 1/2.  q = 1
    always has intervals clipped at 0 and at 1.  Four pairs of slices
    (q1, q2) are then tied: an endpoint of slice q2 is placed on one of
    slice q1, as the same end ("equal"), the other end ("touch"), or the
    same end moved by 1/den, den the new denominator of slice q2, between
    2**54 and 2**62 or past 2**64 ("tie", once for starts and once for
    ends).  The move is below an ulp, so two distinct endpoints share a
    float key or lie in adjacent ones.  The pair (c1, q2) is among the
    three that need the smallest delta of q2, c1 an interior centre, so
    the tied endpoints mostly lie outside other intervals.
    """
    coprime = draw(st.booleans())
    Q = draw(st.integers(9, 16))
    entries = [table_entry(*draw(entry_draws), q * q) for q in range(1, Q + 1)]
    entries[0] = table_entry(1 + draw(st.integers(0, 1)), *draw(entry_draws)[1:], 16)
    if draw(st.booleans()):
        entries[draw(st.integers(1, Q - 1))] = draw(st.fractions(Fraction(1, 2), Fraction(3), max_denominator=60))
    pool = draw(st.permutations(range(2, Q + 1)))
    kinds = [("tie", -1), ("tie", 1), ("equal", draw(st.sampled_from([-1, 1]))), ("touch", draw(st.sampled_from([-1, 1])))]
    for kind, s1 in kinds:
        q1, pool = pool[0], pool[1:]
        d1 = entries[q1 - 1] or table_entry(1 + draw(st.integers(0, 1)), *draw(entry_draws)[1:], q1 * q1)
        entries[q1 - 1] = d1
        s2 = -s1 if kind == "touch" else s1
        # q2 times the endpoint of slice q1 is n/m; the nearest admissible centre c2 with
        # s2 (n/m - c2) > 0 gives d2 = s2 (n - c2 m)/m, and m is one for every candidate
        m = q1 * d1.denominator
        candidates = []
        for q2 in pool:
            for c1 in range(1, q1):
                if admissible(c1, q1, coprime):
                    n = q2 * (c1 * d1.denominator + s1 * d1.numerator)
                    c2 = -(-n // m) - 1 if s2 > 0 else n // m + 1
                    while not admissible(c2, q2, coprime):
                        c2 -= s2
                    candidates.append((s2 * (n - c2 * m), q2))
        candidates.sort()
        num, q2 = candidates[draw(st.integers(0, min(2, len(candidates) - 1)))]
        d2 = Fraction(num, m)
        pool = [q for q in pool if q != q2]
        if kind == "tie":
            # a move of 1/(b K), so slice q2's denominator b K q2 is about the drawn scale
            scale = draw(st.one_of(st.integers(2**54, 2**62), st.integers(2**64, 2**90)))
            b = d2.denominator
            d2 += draw(st.sampled_from([-1, 1])) * Fraction(1, b * max(1, scale // (b * q2)))
        entries[q2 - 1] = max(d2, Fraction(0))
    return entries, coprime


@st.composite
def float_tables(draw):
    """(entries, coprime): a float table whose slices share centres, meeting there or a few ulps apart.

    Entries are 0, subnormal, below an ulp of 1 or up to 1/(3q), and one
    may reach 1/2.  Up to four pairs (q, m q) are then tied: the slices
    share every centre of q, and delta(m q) = m delta(q) moved by up to two
    ulps puts their endpoints there at the same rational or a few ulps
    apart, so the float keys tie or misorder.
    """
    coprime = draw(st.booleans())
    Q = draw(st.integers(2, 16))
    small = st.sampled_from([0.0, 5e-324, 1e-300, 5e-17])
    entries = [draw(st.one_of(small, st.floats(0.0, 1.0 / (3 * q)))) for q in range(1, Q + 1)]
    if draw(st.booleans()):
        entries[draw(st.integers(0, Q - 1))] = draw(st.floats(0.25, 0.5))
    for _ in range(draw(st.integers(1, 4))):
        q = draw(st.integers(1, Q // 2))
        m = draw(st.integers(2, Q // q))
        d = entries[q - 1] or 1 / (8 * q)
        entries[q - 1] = d
        d *= m
        move = draw(st.integers(-2, 2))
        for _ in range(abs(move)):
            d = math.nextafter(d, math.copysign(math.inf, move))
        entries[m * q - 1] = d
    return entries, coprime


@st.composite
def plain_tables(draw):
    """(entries, Q0): a table of int, float and Fraction entries whose multiples tie, for a plain union from Q0.

    An entry is 0, a float or a Fraction up to 1/(4q), a float below an
    ulp of 1 or subnormal, or, in one table in ten, an int of q or more.  In one
    table in four every entry is instead 0 or a Fraction of about 2**-1074
    to 2**-1064, so the union itself is subnormal.  Up to four pairs
    (b, k b) are then tied: psi(k b)/k is psi(b) exactly, or moved from it
    by a quarter or three quarters of an ulp of psi(b), so the two radii at
    the centres of b share a float or lie in adjacent ones.
    """
    Q = draw(st.integers(1, 20))
    if draw(st.integers(0, 3)) == 0:
        entries = [draw(st.sampled_from([0, Fraction(draw(st.integers(1, 2**10)), 2**1074)])) for _ in range(Q)]
    else:
        entries = [
            draw(
                st.one_of(
                    st.just(0),
                    st.sampled_from([5e-324, 1e-300, 5e-17]),
                    st.floats(0.0, 1.0 / (4 * q)),
                    st.fractions(0, Fraction(1, 4 * q), max_denominator=10**6),
                )
            )
            for q in range(1, Q + 1)
        ]
        if draw(st.integers(0, 9)) == 0:
            q = draw(st.integers(1, Q))
            entries[q - 1] = q + draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 4)) if Q > 1 else 0):
        b = draw(st.integers(1, Q // 2))
        k = draw(st.integers(2, Q // b))
        d = Fraction(entries[b - 1] or Fraction(1, 2**1070))
        entries[b - 1] = d
        move = Fraction(draw(st.sampled_from([0, -3, -1, 1, 3])), 4) * Fraction(math.ulp(float(d)))
        entries[k * b - 1] = max(k * (d + move), Fraction(0))
    return entries, draw(st.integers(1, Q))


class TestExactSweep:
    """The union sweep of rational tables, float tables and power_log against Fraction intervals built by brute force."""

    # slices 3 and 6 share the centres 1/3 and 2/3, where slice 6 starts 1/(60 K) below
    # slice 3: the float keys tie for K = 2**70, and for K near 2**55/60 (slice 6 over
    # about 2**54) a quotient of operands rounded to float64 orders them the wrong way
    @example(([Fraction(1, 64), 0, Fraction(1, 20), 0, 0, Fraction(1, 10) + Fraction(1, 10 * 2**70)], False))
    @example(([Fraction(1, 64), 0, Fraction(1, 20), 0, 0, Fraction(1, 10) + Fraction(1, 10 * 600479950316067)], False))
    # no shrink phase: a failing draw carries integers up to 2**100, and shrinking
    # one ran for minutes at half a GiB
    @settings(max_examples=300, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(rational_tables())
    def test_matches_the_fraction_oracle(self, table):
        entries, coprime = table
        want = brute_union(entries, coprime)
        got = truncated_union_1d(table_psi(entries), 1, len(entries), coprime=coprime)
        assert got.provenance == "exact" and got.value == float(want)

    # q = 1 with a delta below half an ulp of 1: the centre 1 lies below q + delta, but not below
    # the float sum 1 + delta, and nothing else covers its sliver [1 - delta, 1]
    @example(([5e-17], True))
    # slices 2, 4 and 8 share the centre 1/2: the starts of 2 and 4 meet, and delta(8) one ulp above
    # 4 delta(2) puts 8's start below theirs by less than an ulp of the key
    @example(([0.0, 0.125, 0.0, 0.25, 0.0, 0.0, 0.0, math.nextafter(0.5, 1.0)], False))
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(float_tables())
    def test_float_tables_match_the_fraction_oracle(self, table):
        entries, coprime = table
        want = brute_union([Fraction(d) for d in entries], coprime)
        got = truncated_union_1d(table_psi(entries), 1, len(entries), coprime=coprime)
        assert got.provenance == "exact" and got.value == float(want)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.floats(1e-3, 2.0),
        st.sampled_from([0, 1, 2]),
        st.sampled_from([0, 1]),
        st.integers(1, 16),
        st.integers(1, 16),
        st.booleans(),
    )
    def test_power_log_matches_the_fraction_oracle(self, c, a, b, Q0, Q, coprime):
        Q0, Q = min(Q0, Q), max(Q0, Q)
        f = power_log(c, a, b)
        psis = f.values(np.arange(1, Q + 1)).tolist()
        want = brute_union([Fraction(d) if q >= Q0 else 0 for q, d in enumerate(psis, 1)], coprime)
        got = truncated_union_1d(f, Q0, Q, coprime=coprime)
        assert got.provenance == "exact" and got.value == float(want)


class TestPlainReduction:
    """A plain union is the coprime union of its reduced fractions a/b, at the largest delta b/q of their q."""

    # the radii of 0/1 and 1/1 are 10 and 10.4 times 2**-1074, one float: the union 41.6 times
    # 2**-1074 rounds to 42 of them, and a sweep at the smaller radius gives 40.8, rounded to 41
    @example(([Fraction(10, 2**1074), Fraction(104, 5 * 2**1074)], 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(plain_tables())
    def test_matches_the_fraction_oracle(self, table):
        entries, Q0 = table
        want = brute_union([Fraction(d) if q >= Q0 else 0 for q, d in enumerate(entries, 1)], False)
        got = truncated_union_1d(table_psi(entries), Q0, len(entries))
        assert got.provenance == "exact" and got.value == float(want)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.floats(1e-3, 2.0), st.floats(-1.0, 3.0), st.floats(0.0, 3.0), st.integers(1, 60))
    def test_equals_the_coprime_union_when_psi_over_q_does_not_rise(self, c, a, b, Q):
        # with psi(q)/q non-increasing, every delta b/q of a multiple q of b is at most psi(b)
        f = power_log(c, a, b)
        ratios = [Fraction(d) / q for q, d in enumerate(f.values(np.arange(1, Q + 1)).tolist(), 1)]
        assume(all(x >= y for x, y in zip(ratios, ratios[1:])))
        assert truncated_union_1d(f, 1, Q).value == truncated_union_1d(f, 1, Q, coprime=True).value

    @pytest.mark.parametrize(
        "c, a, Q0, Q, want",
        [
            (1e-20, 0, 1, 1000, 1.2163106258169465e-17),
            (1e-20, 0, 1, 2000, 2.4324413852139254e-17),
            (0.25, 1, 1, 2800, 0.9983009230959473),
            (0.25, 1, 500, 2000, 0.5015451711123415),
            (0.5, 0.5, 1, 1500, 1.0),
        ],
    )
    def test_pins_plain_unions(self, c, a, Q0, Q, want):
        # each pin is the value of the sweep of every plain slice p/q, before the reduction
        assert truncated_union_1d(power_log(c, a, 0), Q0, Q).value == want


def test_max_mode_measures():
    # plain max-mode: per-coordinate bound delta**(1/n)
    spec = RegionSpec(5, 2, 0.04, mode="max")
    assert region_measure(spec).value == pytest.approx(min(1.0, 2 * 0.2) ** 2)
    # coprime max-mode factorizes through the per-coordinate law
    spec = RegionSpec(12, 2, 0.04, mode="max", coprime=True)
    want = coprime_dist_cdf(12)(0.2) ** 2
    assert region_measure(spec).value == pytest.approx(want)
    # brute check of the coprime factor at small delta: 2 t phi/q per coordinate
    assert coprime_dist_cdf(12)(0.2) == pytest.approx(2 * 0.2 * 4 / 12)
