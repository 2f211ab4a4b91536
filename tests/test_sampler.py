import itertools
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diolab.arith import dist_nearest, dist_nearest_coprime, nearest_coprime_distance
from diolab.errors import ResourceBudgetError
from diolab.measure import MeasureEstimate
from diolab.psi import ApproxFunction, power_log, table_psi
from diolab.regions import RegionSpec, region_measure_1d
from diolab.sampler import (
    GENERATOR_ID,
    _CHUNK,
    ExperimentConfig,
    _aggregate,
    _chunk_plan,
    _coprime_distances,
    _member_rows,
    _plain_distances,
    _scan_chunk,
    depth_counts,
    estimate_pairwise_intersection,
    estimate_union_measure,
    linear_forms_count,
    membership,
    mix64,
    sample_points,
    solution_count,
    solution_counts,
)


class TestGenerator:
    def test_scalar_vector_agreement(self):
        zs = np.array([0, 1, 12345, 2**63, 2**64 - 1], dtype=np.uint64)
        from diolab.sampler import _mix64_array

        vec = _mix64_array(zs.copy())
        for z, v in zip(zs.tolist(), vec.tolist()):
            assert mix64(int(z)) == int(v)

    def test_partition_invariance(self):
        whole = sample_points(99, 0, 1000, 3)
        parts = np.vstack(
            [sample_points(99, 0, 123, 3), sample_points(99, 123, 777, 3), sample_points(99, 777, 1000, 3)]
        )
        assert np.array_equal(whole, parts)

    def test_unit_interval_and_spread(self):
        pts = sample_points(5, 0, 50_000, 2)
        assert pts.min() >= 0.0 and pts.max() < 1.0
        assert abs(pts.mean() - 0.5) < 0.01

    def test_seed_sensitivity(self):
        assert not np.array_equal(sample_points(1, 0, 10, 2), sample_points(2, 0, 10, 2))

    def test_frozen_stream_head(self):
        # regression pin of the stream: draws 0..2 of seed 0, dim 1
        got = sample_points(0, 0, 3, 1).ravel()
        want = np.array(
            [mix64((k + 1) * 0x9E3779B97F4A7C15 & (2**64 - 1)) >> 11 for k in range(3)]
        ) * 2.0**-53
        assert np.array_equal(got, want)


class TestMembership:
    def test_zero_psi_never_member(self):
        f = power_log(0, 0, 0)
        assert not membership([0.3], 5, f)
        assert not membership([0.5, 0.5], 2, f)

    def test_examples(self):
        assert membership([1 / 3], 3, table_psi([0, 0, 0.1]))
        assert membership([0.5, 0.5], 2, table_psi([0, 1e-6]))

    def test_max_mode(self):
        f = table_psi([0.2])
        # (max dist)**2 < 0.2 needs max < 0.4472
        assert not membership([0.5, 0.1], 1, f, mode="max")
        assert membership([0.42, 0.1], 1, f, mode="max")

    def test_coprime_implies_plain(self):
        rng = np.random.default_rng(21)
        f = power_log(0.5, 0.7, 0)
        for _ in range(300):
            q = int(rng.integers(1, 200))
            x = [float(v) for v in rng.random(2)]
            if membership(x, q, f, coprime=True):
                assert membership(x, q, f, coprime=False)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        q=st.one_of(st.integers(1, 240), st.sampled_from([2310, 30030])),
        x=st.lists(
            st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 239).map(lambda a: a / 240)),
            min_size=1, max_size=3,
        ),
        mode=st.sampled_from(["product", "max"]),
        coprime=st.booleans(),
        strict=st.booleans(),
        place=st.sampled_from(["below", "on", "above", "level"]),
        level=st.floats(1e-6, 0.5),
    )
    @example(q=12, x=[0.5, 0.25], mode="max", coprime=True, strict=True, place="on", level=0.1)
    @example(q=2310, x=[1 / 240, 0.5, 0.75], mode="product", coprime=True, strict=False, place="on", level=0.1)
    def test_bulk_matches_scalar(self, q, x, mode, coprime, strict, place, level):
        # "on" puts x on the boundary of the q-slice: psi(q) is x's own aggregate,
        # so the two paths agree only if their aggregates agree to the last bit
        dist = dist_nearest_coprime if coprime else dist_nearest
        agg = float(_aggregate(np.array([[dist(q, xi)] for xi in x]), mode)[0])
        psi_q = {"below": np.nextafter(agg, 0.0), "on": agg, "above": np.nextafter(agg, 1.0), "level": level}[place]
        f = table_psi([0.0] * (q - 1) + [float(psi_q)])
        bulk = _member_rows(np.array([x]).T, np.array([q]), f.values(np.array([q])), mode, coprime, strict)[0]
        assert bulk.tolist() == [membership(x, q, f, mode=mode, coprime=coprime, strict=strict)]

    def test_strictness(self):
        f = table_psi([0.25])
        # dist(1, 0.25) = 0.25 exactly: strict fails, non-strict holds
        assert not membership([0.25], 1, f, strict=True)
        assert membership([0.25], 1, f, strict=False)


class TestEstimateUnion:
    def test_zero_family_exact_zero(self):
        cfg = ExperimentConfig(family=power_log(0, 0, 0), n=1, Q=16, samples=100, seed=1)
        for _, est in estimate_union_measure(cfg):
            assert est.value == 0.0
            assert est.provenance == "exact"
            assert est.ci_width == 0.0

    def test_covering_slice(self):
        cfg = ExperimentConfig(family=table_psi([0.6]), n=1, Q=1, samples=3000, seed=2)
        [(_, est)] = estimate_union_measure(cfg)
        assert est.value == 1.0

    def test_ci_covers_exact_single_slice(self):
        exact = region_measure_1d(RegionSpec(12, 1, 0.1, coprime=True)).value
        f = table_psi([0] * 11 + [0.1])
        cfg = ExperimentConfig(family=f, n=1, coprime=True, Q0=12, Q=12, samples=50_000, seed=3)
        [(_, est)] = estimate_union_measure(cfg)
        assert est.ci_low <= exact <= est.ci_high

    def test_checkpoint_monotone(self):
        cfg = ExperimentConfig(family=power_log(0.25, 1, 0), n=1, coprime=True, Q=128, samples=4000, seed=4)
        vals = [e.value for _, e in estimate_union_measure(cfg)]
        assert vals == sorted(vals)

    def test_worker_count_invariance(self):
        cfg = ExperimentConfig(
            family=power_log(0.25, 1, 0), n=2, coprime=True, Q0=2, Q=64, samples=5000, seed=5
        )
        runs = [estimate_union_measure(cfg, workers=w) for w in (1, 3, 4, 16)]
        for other in runs[1:]:
            assert other == runs[0]

    def test_coverage_of_exact_value(self):
        # 95% CI covers the exact slice measure in >= 90% of seeded trials
        exact = region_measure_1d(RegionSpec(12, 1, 0.1, coprime=True)).value
        f = table_psi([0] * 11 + [0.1])
        covered = 0
        trials = 40
        for seed in range(trials):
            cfg = ExperimentConfig(
                family=f, n=1, coprime=True, Q0=12, Q=12, samples=2500, seed=seed
            )
            [(_, est)] = estimate_union_measure(cfg)
            covered += est.ci_low <= exact <= est.ci_high
        assert covered >= int(0.9 * trials)

    def test_generator_metadata_recorded(self):
        cfg = ExperimentConfig(family=power_log(0.3, 1, 0), n=1, Q=8, samples=200, seed=9)
        _, est = estimate_union_measure(cfg)[-1]
        assert est.generator == GENERATOR_ID
        assert est.seed == 9


def scalar_member(x, q, psi_q, mode):
    """Coprime membership of point x in the q-slice from the scalar distances alone."""
    agg = float(_aggregate(np.array([[dist_nearest_coprime(q, v)] for v in x]), mode)[0])
    return agg < psi_q


def dense_scan(seed, start, stop, n, qs, psis, mode, coprime):
    """Oracle for _scan_chunk: a fresh membership pass over the survivors at every q.

    The vector plain test only filters; every coprime candidate is decided by
    the scalar ``dist_nearest_coprime``, so no fix-up is shared with the scan.
    """
    xs = sample_points(seed, start, stop, n)
    first_hit = np.zeros(stop - start, dtype=np.int64)
    orig = np.arange(stop - start)
    for q, psi_q in zip(qs.tolist(), psis.tolist()):
        if psi_q <= 0.0:
            continue
        member = _member_rows(xs.T, np.array([q]), np.array([psi_q]), mode, False, True)[0]
        if coprime:
            for k in np.flatnonzero(member):
                member[k] = scalar_member(xs[k].tolist(), q, psi_q, mode)
        if member.any():
            first_hit[orig[member]] = q
            keep = ~member
            xs = xs[keep]
            orig = orig[keep]
            if orig.size == 0:
                break
    return first_hit


# Non-monotone psi levels: zeros, small values, and a few large enough to
# retire most rows at one q.  Windows sit at small q and around the
# primorials 2310 and 30030, where the outward coprime search walks far.
PSI_LEVELS = (0.0, 0.0, 1e-4, 1e-3, 1e-3, 0.01, 0.05, 0.3, 1.0)


def table_window(q0, levels):
    f = table_psi([0.0] * (q0 - 1) + list(levels))
    return f, np.arange(q0, q0 + len(levels), dtype=np.int64)


class TestScanChunk:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 10_000),
        size=st.integers(0, 700),
        n=st.sampled_from([1, 2, 3]),
        mode=st.sampled_from(["product", "max"]),
        coprime=st.booleans(),
        q0=st.sampled_from([1, 2290, 30010]),
        levels=st.lists(st.sampled_from(PSI_LEVELS), min_size=1, max_size=40),
    )
    @example(seed=1, start=0, size=0, n=2, mode="product", coprime=True, q0=1, levels=[0.3])
    @example(seed=1, start=0, size=1, n=2, mode="product", coprime=True, q0=2290, levels=[1.0] * 40)
    @example(seed=7, start=123, size=500, n=3, mode="max", coprime=True, q0=30010, levels=[0.05, 0.0, 0.3] * 12)
    def test_matches_dense_scan(self, seed, start, size, n, mode, coprime, q0, levels):
        f, qs = table_window(q0, levels)
        psis = f.values(qs)
        args = (seed, start, start + size, n, qs, psis, mode, coprime)
        got = _scan_chunk(*args)
        assert got.dtype == np.int64
        assert np.array_equal(got, dense_scan(*args))

    @pytest.mark.parametrize("q0", [1, 2290, 30010])
    @pytest.mark.parametrize("coprime", [False, True])
    @pytest.mark.parametrize("mode", ["product", "max"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_block_passes_match_dense_scan(self, n, mode, coprime, q0):
        # psi(q0) is the 95th percentile of the samples' aggregates at q0, so
        # the passes after q0 test the survivors against m >= 10 values of q at once
        seed, size = 1000 * n + 10 * q0 + 2 * coprime + (mode == "max"), 3000
        dist = dist_nearest_coprime if coprime else dist_nearest
        xs = sample_points(seed, 0, size, n)
        big = float(np.quantile(_aggregate(np.array([[dist(q0, v) for v in col] for col in xs.T]), mode), 0.95))
        rng = np.random.default_rng(seed)
        f, qs = table_window(q0, [big] + rng.choice([0.0, 1e-4, 1e-3, 0.01], 400).tolist())
        args = (seed, 0, size, n, qs, f.values(qs), mode, coprime)
        got, want = _scan_chunk(*args), dense_scan(*args)
        assert np.count_nonzero(want == q0) >= 0.9 * size
        assert np.count_nonzero(want > q0) > 0
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("q0", [2290, 30010])
    @pytest.mark.parametrize("n, mode", [(1, "product"), (2, "product"), (2, "max")])
    def test_a_window_holds_a_plain_only_candidate_then_a_hit(self, n, mode, q0):
        # qa = q0 + 20 is the primorial 2310 or 30030, where most rounded
        # numerators share a factor with q.  Sample s is a plain candidate at qa
        # but no coprime member, and truly hits at qb.  The plain candidates
        # stay below live // 16 in all, so the one window is still pending
        # when q runs out, and only the window's resolve tells qa from qb.
        seed, size, qa, qb = 23 + n, 3000, q0 + 20, q0 + 27
        xs = sample_points(seed, 0, size, n)

        def aggs(q, dist):
            return _aggregate(np.array([[dist(q, v) for v in col.tolist()] for col in xs.T]), mode)

        plain_a, true_a = aggs(qa, dist_nearest), aggs(qa, dist_nearest_coprime)
        plain_b, true_b = aggs(qb, dist_nearest), aggs(qb, dist_nearest_coprime)
        # plain candidates at qa and qb when psi sits one ulp above s's aggregates
        load = np.searchsorted(np.sort(plain_a), plain_a, "right") + np.searchsorted(np.sort(plain_b), true_b, "right")
        plain_only = true_a > np.nextafter(plain_a, 1.0)
        s = int(np.flatnonzero(plain_only)[np.argmin(load[plain_only])])
        levels = [1e-5 if k % 3 else 0.0 for k in range(40)]
        levels[qa - q0], levels[qb - q0] = np.nextafter(plain_a[s], 1.0), np.nextafter(true_b[s], 1.0)
        f, qs = table_window(q0, levels)
        psis = f.values(qs)
        assert np.count_nonzero(_member_rows(xs.T, qs, psis, mode, False, True)) < size // 16
        args = (seed, 0, size, n, qs, psis, mode, True)
        got, want = _scan_chunk(*args), dense_scan(*args)
        assert want[s] == qb and scalar_member(xs[s].tolist(), qb, psis[qb - q0], mode)
        assert np.count_nonzero(want) > 1
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_divergent_entry_matches_dense_scan(self, workers):
        # mc-battery's divergent entry, shrunk to 3,000 samples
        cfg = ExperimentConfig(
            family=power_log(0.25, 1, 0), n=2, coprime=True, Q0=100, Q=4000, samples=3000, seed=17
        )
        qs = np.arange(cfg.Q0, cfg.Q + 1, dtype=np.int64)
        psis = cfg.family.values(qs)
        bounds = [cfg.samples * w // workers for w in range(workers + 1)]
        for a, b in zip(bounds[:-1], bounds[1:]):
            args = (cfg.seed, a, b, cfg.n, qs, psis, cfg.mode, cfg.coprime)
            assert np.array_equal(_scan_chunk(*args), dense_scan(*args))
        assert estimate_union_measure(cfg, workers=workers) == estimate_union_measure(cfg)

    @pytest.mark.parametrize("mode, n", [("product", 2), ("max", 3)])
    def test_union_estimates_equal_across_worker_counts(self, mode, n):
        levels = [1e-3, 0.0, 0.02, 0.3, 0.0, 1e-4] * 7
        f, qs = table_window(2290, levels)
        cfg = ExperimentConfig(
            family=f, n=n, mode=mode, coprime=True, Q0=int(qs[0]), Q=int(qs[-1]), samples=3001, seed=13
        )
        runs = [estimate_union_measure(cfg, workers=w) for w in (1, 2, 3)]
        assert runs[0][-1][1].value > 0.0
        assert runs[1] == runs[0] and runs[2] == runs[0]


class TestChunkPlan:
    """A thread only for a chunk of at least _CHUNK samples; chunks of at most _CHUNK on a lone thread."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(samples=st.integers(0, 10**8), workers=st.integers(1, 64))
    @example(samples=0, workers=2)
    @example(samples=_CHUNK - 1, workers=64)
    @example(samples=_CHUNK + 1, workers=1)
    @example(samples=2 * _CHUNK - 1, workers=2)
    @example(samples=2 * _CHUNK, workers=2)
    @example(samples=20_000, workers=16)
    @example(samples=10**8, workers=64)
    def test_chunks_tile_the_samples(self, samples, workers):
        threads, chunks = _chunk_plan(samples, workers)
        edges = [0] + [b for _, b in chunks]
        assert [a for a, _ in chunks] == edges[:-1] and edges[-1] == samples
        assert all(b > a for a, b in chunks)
        sizes = [b - a for a, b in chunks]
        if threads > 1:
            assert threads <= min(workers, samples // _CHUNK)
            assert len(chunks) == threads and min(sizes) >= _CHUNK
        else:
            assert threads == 1 and max(sizes, default=0) <= _CHUNK
            assert samples < _CHUNK or min(sizes) >= _CHUNK // 2

    def test_short_runs_start_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started for a chunk under _CHUNK samples")

        f, qs = table_window(2290, [1e-3, 0.0, 0.02, 1e-4] * 3)
        cfg = ExperimentConfig(
            family=f, n=2, coprime=True, Q0=int(qs[0]), Q=int(qs[-1]), samples=20_000, seed=31
        )
        want = estimate_union_measure(cfg)
        pairs = depth_counts(qs.tolist(), f, 2, "product", True, 20_000, 31, 1)
        monkeypatch.setattr("diolab.sampler.ThreadPoolExecutor", no_pool)
        assert estimate_union_measure(cfg, workers=16) == want
        assert depth_counts(qs.tolist(), f, 2, "product", True, 20_000, 31, 16) == pairs

    @pytest.mark.parametrize("workers", [2, 3])
    def test_thread_chunks_match_a_lone_thread(self, monkeypatch, workers):
        # 2 * _CHUNK + 1 samples: two threads at any worker count above 1, three chunks on a lone thread
        samples, pools = 2 * _CHUNK + 1, []

        def spy(max_workers):
            pools.append(max_workers)
            return ThreadPoolExecutor(max_workers=max_workers)

        f, qs = table_window(2290, [1e-3, 0.0, 0.02, 1e-4, 1e-3, 0.01])
        cfg = ExperimentConfig(
            family=f, n=2, coprime=True, Q0=int(qs[0]), Q=int(qs[-1]), samples=samples, seed=37
        )
        psis = f.values(qs)
        alone = estimate_union_measure(cfg)
        pairs = depth_counts(qs.tolist(), f, 2, "product", True, samples, 37, 1)
        monkeypatch.setattr("diolab.sampler.ThreadPoolExecutor", spy)
        assert estimate_union_measure(cfg, workers=workers) == alone
        assert depth_counts(qs.tolist(), f, 2, "product", True, samples, 37, workers) == pairs
        assert pools == [2, 2]
        for w in (1, workers):
            for a, b in _chunk_plan(samples, w)[1]:
                args = (cfg.seed, a, b, cfg.n, qs, psis, cfg.mode, cfg.coprime)
                assert np.array_equal(_scan_chunk(*args), dense_scan(*args))


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestPlainDistances:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(q=st.integers(1, 10**6), k=st.integers(0, 2**53 - 1))
    @example(q=1, k=0)
    @example(q=2, k=2**52)  # q * x = 1
    @example(q=10**6, k=2**53 - 1)
    def test_matches_scalar_bits(self, q, k):
        # samples are exactly k * 2**-53, and the scan takes z = q * x
        x = k * 2.0**-53
        z = np.array([q * x])
        assert bits(_plain_distances(z)) == bits([dist_nearest(q, x)])

    def test_integers_half_integers_and_their_neighbours(self):
        ks = [0.0, 1.0, 2.0, 3.0, 1000.0, 2.0**30, 2.0**52 - 1, 2.0**52, 2.0**53]
        halves = [k + 0.5 for k in ks[:-2]]  # k + 0.5 is a float only below 2**52
        z = np.array(
            ks + [5e-324, 0.5 - 2.0**-54]
            + halves + [np.nextafter(h, 0.0) for h in halves] + [np.nextafter(h, np.inf) for h in halves]
        )
        before = z.copy()
        out = np.empty_like(z)
        assert _plain_distances(z, out) is out
        assert bits(out).tolist() == bits([dist_nearest(1, v) for v in z.tolist()]).tolist()
        assert bits(z).tolist() == bits(before).tolist()


class TestCoprimeDistances:
    @staticmethod
    def assert_matches_scalar(y, moduli):
        """Bitwise agreement with the scalar search on entries whose rounding shares a factor."""
        moduli = np.broadcast_to(moduli, y.shape).astype(np.int64)
        bad = np.gcd(np.rint(y).astype(np.int64), moduli) > 1
        got = _coprime_distances(y[bad], moduli[bad])
        want = np.array([nearest_coprime_distance(v, int(m)) for v, m in zip(y[bad].tolist(), moduli[bad])])
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        return int(bad.sum())

    @pytest.mark.parametrize("q", [1, 7, 30030, 510510])
    def test_single_modulus(self, q):
        rng = np.random.default_rng(q)
        y = np.concatenate([
            rng.uniform(-q, q, 20_000),
            np.arange(-60, 60) + 0.5,  # ties: rint and round both go to even
            rng.integers(-q, q, 500) + 0.5,
            rng.integers(-q, q, 500) * 1.0,
        ])
        checked = self.assert_matches_scalar(y, np.int64(q))
        assert (checked == 0) == (q == 1)

    def test_per_row_moduli(self):
        # the solution_counts path: one modulus per row of z = q * x
        rng = np.random.default_rng(5)
        qs = np.concatenate([[1, 2, 6, 12, 30, 210, 2310, 30030, 510510], rng.integers(1, 10**6, 3000)])
        z = qs[:, None] * np.concatenate([rng.random((qs.size, 2)), [[0.5, 0.25]] * qs.size], axis=1)
        assert self.assert_matches_scalar(z, qs[:, None]) > 1000

    def test_empty(self):
        assert _coprime_distances(np.empty(0), np.empty(0, dtype=np.int64)).shape == (0,)


def pairwise_hits(qs, f, n, mode, coprime, samples, seed):
    """Oracle for depth_counts: the pair hit table, one membership pass per slice, one count per pair."""
    xs = sample_points(seed, 0, samples, n)
    psis = f.values(np.asarray(qs)).tolist()
    member = [_member_rows(xs.T, np.array([q]), np.array([d]), mode, coprime, True)[0] for q, d in zip(qs, psis)]
    hits = np.empty((len(qs), len(qs)), dtype=np.int64)
    for i in range(len(qs)):
        for j in range(len(qs)):
            hits[i, j] = np.count_nonzero(member[i] & member[j])
    return hits


class TestPairHitTable:
    """depth_counts gives the pair hit table's leading-block sums without the table."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**64 - 1),
        samples=st.integers(0, 600),
        workers=st.integers(1, 3),
        n=st.sampled_from([1, 2, 3]),
        mode=st.sampled_from(["product", "max"]),
        coprime=st.booleans(),
        q0=st.sampled_from([1, 2290, 30010]),
        levels=st.lists(st.sampled_from(PSI_LEVELS), min_size=1, max_size=25),
    )
    @example(seed=3, samples=0, workers=2, n=1, mode="product", coprime=False, q0=1, levels=[0.3])
    @example(seed=5, samples=500, workers=3, n=2, mode="max", coprime=True, q0=2290, levels=[1.0] * 25)
    def test_matches_pairwise_loop(self, seed, samples, workers, n, mode, coprime, q0, levels):
        f, qs = table_window(q0, levels)
        hits, new = depth_counts(qs.tolist(), f, n, mode, coprime, samples, seed, workers)
        want = pairwise_hits(qs.tolist(), f, n, mode, coprime, samples, seed)
        assert all(type(c) is int for c in hits + new)
        for k in range(1, qs.size + 1):
            block = want[:k, :k]
            assert sum(hits[:k]) == np.trace(block)
            assert sum(new[:k]) == block.sum() - np.trace(block)

    @pytest.mark.parametrize("mode, n, coprime", [("product", 1, True), ("product", 2, False), ("max", 2, True)])
    def test_off_diagonal_sum_counts_ordered_pairs_per_sample(self, mode, n, coprime):
        # sum_{s != t} hits = sum_x N(x)(N(x) - 1), N(x) = #slices holding x;
        # N comes from solution_counts, a separate membership path
        f = power_log(0.5, 1, 0)
        Q0, Q, samples, seed = 5, 40, 400, 21
        hits, new = depth_counts(list(range(Q0, Q + 1)), f, n, mode, coprime, samples, seed, 1)
        counts = [
            dict(solution_counts(x, f, [Q0 - 1, Q], mode, coprime))
            for x in sample_points(seed, 0, samples, n)
        ]
        depth = np.array([c[Q] - c[Q0 - 1] for c in counts], dtype=np.int64)
        assert sum(hits) == depth.sum()
        assert sum(new) == int(np.sum(depth * (depth - 1)))
        assert np.sum(depth >= 2) > 10

    def test_rejects_non_finite_psi(self):
        f = table_psi([0.1, math.inf, 0.2])
        with pytest.raises(ValueError, match="psi must be finite"):
            depth_counts([1, 2, 3], f, 1, "product", False, 100, 0, 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_qs(self, workers):
        assert depth_counts([], power_log(0.25, 1, 0), 2, "product", True, 100, 0, workers) == ([], [])

    def test_memory_stays_bounded(self):
        # 1,000 slices x 4,000 samples: a float32 hit table of these is 16 MB, and its int64 product 8 MB;
        # tracemalloc measured 0.4 MiB here, and 34.4 MiB for the table and its product
        f = power_log(0.25, 1, 0)
        tracemalloc.start()
        try:
            depth_counts(list(range(1, 1001)), f, 1, "product", True, 4000, 0, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 * 2**20


class TestPairwise:
    @pytest.mark.parametrize("q, r", [(-1, 2), (0, 5), (3, -5)])
    def test_rejects_q_below_one(self, q, r):
        with pytest.raises(ValueError, match=r"^[qr] must be >= 1$"):
            estimate_pairwise_intersection(q, r, table_psi([0.3, 0.2, 0.1]), 1, samples=1000)
        with pytest.raises(ValueError, match=r"^[qr] must be >= 1$"):
            estimate_pairwise_intersection(q, r, power_log(0.25, 1, 0), 2, samples=1000)

    @pytest.mark.parametrize("q, r, n, mode, coprime", [
        (4, 9, 1, "product", False), (9, 4, 2, "max", True), (6, 10, 2, "product", True), (7, 7, 1, "product", True),
    ])
    def test_counts_the_samples_in_both_slices(self, q, r, n, mode, coprime):
        f = power_log(0.5, 0.5, 0)
        est = estimate_pairwise_intersection(q, r, f, n, mode, coprime, samples=3000, seed=4, workers=2)
        want = pairwise_hits([q, r], f, n, mode, coprime, 3000, 4)[0, 1]
        assert want > 0
        assert est == MeasureEstimate.monte_carlo(int(want), 3000, 4, GENERATOR_ID)

    def test_zero_family(self):
        est = estimate_pairwise_intersection(3, 5, power_log(0, 0, 0), 1, samples=500, seed=0)
        assert est.value == 0.0

    def test_q_equals_r_idempotent(self):
        f = power_log(0.5, 0.5, 0)
        single = estimate_pairwise_intersection(7, 7, f, 1, samples=20_000, seed=1)
        cfg = ExperimentConfig(family=f, n=1, Q0=7, Q=7, samples=20_000, seed=1)
        [(_, union)] = estimate_union_measure(cfg)
        assert single.value == union.value

    def test_bounded_by_singles(self):
        f = power_log(0.25, 1, 0)
        est = estimate_pairwise_intersection(4, 9, f, 1, samples=50_000, seed=2)
        m4 = region_measure_1d(RegionSpec(4, 1, f(4))).value
        m9 = region_measure_1d(RegionSpec(9, 1, f(9))).value
        assert est.value <= min(m4, m9) + 3 * est.ci_width

    def test_quasi_independent_neighbours(self):
        # intersection of the q=100 and q=101 slices stays within a bounded
        # multiple of the product of the exact single-slice measures
        from diolab.regions import product_region_measure_coprime

        f = power_log(0.25, 1, 0)
        est = estimate_pairwise_intersection(
            100, 101, f, 2, coprime=True, samples=200_000, seed=7
        )
        m_q = product_region_measure_coprime(100, 2, f(100)).value
        m_r = product_region_measure_coprime(101, 2, f(101)).value
        assert est.value <= 10.0 * m_q * m_r


@pytest.mark.parametrize("workers", [0, -1])
@pytest.mark.parametrize(
    "estimate",
    [
        lambda w: estimate_union_measure(
            ExperimentConfig(family=power_log(0.25, 1, 0), n=1, Q=8, samples=100, seed=1), workers=w
        ),
        lambda w: estimate_pairwise_intersection(3, 5, power_log(0.25, 1, 0), 1, samples=100, workers=w),
    ],
    ids=["union", "pairwise"],
)
def test_estimators_reject_worker_counts_below_one(estimate, workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        estimate(workers)


class TestSolutionCount:
    def test_even_q_example(self):
        assert solution_count([0.5], table_psi([0.3] * 10), 10) == 5

    def test_zero_family(self):
        assert solution_count([0.5], power_log(0, 0, 0), 10) == 0

    def test_rational_point_floor_bound(self):
        # x = p/b hits distance zero at every multiple of b
        f = table_psi([1e-9] * 100)
        for b, num in [(3, 1), (7, 2), (10, 9)]:
            x = num / b
            assert solution_count([x], f, 100) >= 100 // b

    def test_curve_matches_pointwise(self):
        f = power_log(0.4, 0.8, 0)
        x = [0.137, 0.731]
        for Q, c in solution_counts(x, f, [1, 5, 25, 80], coprime=True):
            assert c == solution_count(x, f, Q, coprime=True)

    def test_strict_vs_nonstrict(self):
        f = table_psi([0.5])
        assert solution_count([0.5], f, 1, strict=False) == 1
        assert solution_count([0.5], f, 1, strict=True) == 0
        # at q = 2 the nearest unit to 2 * 0 is at distance exactly 1 = psi(2)
        g = table_psi([0.0, 1.0])
        assert solution_counts([0.0], g, [1, 2], coprime=True, strict=False) == [(1, 1), (2, 2)]
        assert solution_counts([0.0], g, [1, 2], coprime=True, strict=True) == [(1, 0), (2, 0)]

    @pytest.mark.parametrize("mode", ["product", "max"])
    def test_coprime_counts_match_scalar_membership(self, mode):
        f = power_log(2.0, 0.5, 0)
        grid = [1, 30, 210, 600]
        rng = np.random.default_rng(17)
        points = [list(rng.random(k)) for k in (1, 2, 2, 3)] + [[0.5, 1 / 3], [-0.25, 1.75]]
        for x in points:
            hits = np.cumsum([membership(x, q, f, mode=mode, coprime=True) for q in range(1, grid[-1] + 1)])
            want = [(g, int(hits[g - 1])) for g in grid]
            assert solution_counts(x, f, grid, mode=mode, coprime=True) == want


def scalar_linear_forms_count(X, Psi, Qbound, coprime=False):
    """The per-vector scalar loop that ``linear_forms_count`` replaced, kept as its oracle."""
    X = np.asarray(X, dtype=np.float64)
    m = X.shape[0]
    if isinstance(Psi, ApproxFunction):
        table = Psi.values(np.arange(1, Qbound + 1, dtype=np.int64)).tolist()
        psi_of = lambda qv: table[int(np.max(np.abs(qv))) - 1]
    else:
        psi_of = lambda qv: float(Psi(tuple(int(c) for c in qv)))
    count = 0
    for q_tuple in itertools.product(range(-Qbound, Qbound + 1), repeat=m):
        if not any(q_tuple):
            continue
        qv = np.array(q_tuple, dtype=np.float64)
        y = qv @ X
        prod = 1.0
        if coprime:
            g = 0
            for c in q_tuple:
                g = math.gcd(g, abs(c))
            for yi in y:
                prod *= nearest_coprime_distance(float(yi), g)
        else:
            for yi in y:
                prod *= abs(yi - round(yi))
        if prod < psi_of(qv):
            count += 1
    return count


@st.composite
def linear_forms_cases(draw):
    """(X, Psi, Qbound): m, n <= 3, entries from [0, 1] or simple rationals, psi a family or a callable."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1 / 3, 0.25, 0.75, 1.0])
    X = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)))
    Q = draw(st.integers(0, {1: 60, 2: 12, 3: 5}[m]))
    c = draw(st.floats(0.0, 2.0))
    Psi = draw(st.sampled_from([
        power_log(c, 0.8, 0),
        table_psi([c / k for k in range(1, Q + 1)]),
        lambda q: c / (1 + sum(abs(v) for v in q)),
    ]))
    return X, Psi, Q


class TestLinearForms:
    def test_zero_psi(self):
        assert linear_forms_count(np.array([[0.5]]), lambda q: 0.0, 10) == 0

    def test_half_point_example(self):
        f = table_psi([0.3] * 10)
        assert linear_forms_count(np.array([[0.5]]), f, 10) == 10

    def test_m1_halving_symmetry(self):
        f = power_log(0.4, 0.7, 0)
        X = np.array([[0.358]])
        for coprime in (False, True):
            lf = linear_forms_count(X, f, 25, coprime=coprime)
            sc = solution_count([0.358], f, 25, coprime=coprime)
            assert lf == 2 * sc

    def test_m2_brute_force(self):
        # independent brute force over both q components and numerators
        X = np.array([[0.3, 0.7], [0.51, 0.12]])
        psi = lambda q: 0.05
        got = linear_forms_count(X, psi, 3)
        count = 0
        for q1 in range(-3, 4):
            for q2 in range(-3, 4):
                if q1 == 0 and q2 == 0:
                    continue
                y = np.array([q1, q2]) @ X
                prod = 1.0
                for yi in y:
                    prod *= min(abs(yi + p) for p in range(-5, 6))
                if prod < 0.05:
                    count += 1
        assert got == count

    def test_budget(self):
        with pytest.raises(ResourceBudgetError):
            linear_forms_count(np.array([[0.5, 0.5]]), lambda q: 1.0, 10**6)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=linear_forms_cases(), coprime=st.booleans())
    def test_equals_the_scalar_loop(self, case, coprime):
        X, Psi, Q = case
        assert linear_forms_count(X, Psi, Q, coprime=coprime) == scalar_linear_forms_count(X, Psi, Q, coprime)

    @pytest.mark.parametrize("coprime", [False, True])
    def test_blocks_cross_a_boundary(self, coprime):
        # 20,000 nonzero vectors span two blocks of 2**14
        X, f = np.array([[0.381966, 0.7071]]), power_log(0.5, 0.9, 0)
        got = linear_forms_count(X, f, 10**4, coprime=coprime)
        assert got == scalar_linear_forms_count(X, f, 10**4, coprime) > 0

    def test_pinned_counts(self):
        X = [[0.3, 0.7, 0.1], [0.51, 0.12, 0.9]]
        f = power_log(0.6, 0.8, 0)
        assert [linear_forms_count(X, f, 200, coprime=c) for c in (False, True)] == [96372, 74714]


def test_config_round_trip_and_hash():
    cfg = ExperimentConfig(
        family=power_log(0.25, 1, 0), n=2, coprime=True, Q0=3, Q=50, samples=100, seed=17
    )
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_config_validation():
    f = power_log(1, 1, 0)
    with pytest.raises(ValueError):
        ExperimentConfig(family=f, n=0, Q=10, samples=10, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(family=f, n=1, Q0=5, Q=4, samples=10, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(family=f, n=1, Q=10, samples=0, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(family=f, n=1, Q=10, samples=5, seed=0, q_grid=(4, 2))
    with pytest.raises(ValueError):
        ExperimentConfig(family=f, n=1, Q=10, samples=5, seed=0, q_grid=(2, 20))
