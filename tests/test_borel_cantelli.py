import math
from itertools import combinations

import numpy as np
import pytest

from diolab.borel_cantelli import (
    EventStats,
    bc_lower_bound,
    bc_scan,
    quasi_independence_ratio,
)
from diolab.errors import UndefinedBoundError, UndefinedRatioError
from diolab.measure import MeasureEstimate
from diolab.psi import power_log
from diolab.regions import slice_union


class TestBcLowerBound:
    def test_two_independent_events(self):
        stats = EventStats(np.array([0.5, 0.5]), np.array([[0.5, 0.25], [0.25, 0.5]]))
        assert bc_lower_bound(stats, 2) == pytest.approx(2 / 3)

    def test_single_event(self):
        stats = EventStats(np.array([0.37]), np.array([[0.37]]))
        assert bc_lower_bound(stats, 1) == pytest.approx(0.37)

    def test_nested_events_closed_form(self):
        # E_1 = E_2 = ... with mu = p: bound collapses to p at every Q
        p, Q = 0.2, 40
        stats = EventStats(np.full(Q, p), np.full((Q, Q), p))
        for q in (1, 7, 40):
            assert bc_lower_bound(stats, q) == pytest.approx(p)

    def test_independence_model_matches_double_loop(self):
        mu = 1.0 / np.arange(1, 301)
        model = EventStats(mu, "independence")
        for Q in (1, 10, 100, 300):
            pair_sum = 0.0
            for s in range(Q):
                for t in range(Q):
                    pair_sum += mu[s] if s == t else mu[s] * mu[t]
            loop = float(np.sum(mu[:Q])) ** 2 / pair_sum
            assert bc_lower_bound(model, Q) == pytest.approx(loop, abs=1e-12)

    def test_bounded_by_one_on_realizable_systems(self):
        # random subsets of a finite weighted space: singles/pairs are exact
        rng = np.random.default_rng(30)
        for _ in range(50):
            atoms = int(rng.integers(2, 9))
            w = rng.dirichlet(np.ones(atoms))
            k = int(rng.integers(2, 7))
            sets = rng.random((k, atoms)) < 0.5
            if not sets.any():
                continue
            singles = sets @ w
            pairs = (sets[:, None, :] & sets[None, :, :]) @ w
            union = float(w[sets.any(axis=0)].sum())
            stats = EventStats(singles, pairs)
            if pairs.sum() == 0:
                continue
            bound = bc_lower_bound(stats, k)
            assert bound <= 1.0 + 1e-12
            assert bound <= union + 1e-12

    def test_pair_sums_match_the_matrix(self):
        # P[k - 1] adds slice k's diagonal entry and twice its row left of it, as the per-sample
        # depths do: both denominators sum the same k**2 non-negative terms, each order within
        # (k**2 - 1) u of the exact sum, so the bounds agree within 2 k**2 u
        rng = np.random.default_rng(31)
        for _ in range(50):
            atoms, k = int(rng.integers(2, 9)), int(rng.integers(1, 7))
            w = rng.dirichlet(np.ones(atoms))
            sets = rng.random((k, atoms)) < 0.5
            sets[0, 0] = True
            singles = sets @ w
            pairs = (sets[:, None, :] & sets[None, :, :]) @ w
            prefix = np.cumsum([pairs[j, j] + 2 * np.sum(pairs[j, :j]) for j in range(k)])
            matrix, sums = EventStats(singles, pairs), EventStats(singles, prefix)
            for q in range(1, k + 1):
                want = bc_lower_bound(matrix, q)
                assert bc_lower_bound(sums, q) == pytest.approx(want, rel=2 * k * k * 2.0**-53, abs=0)

    @pytest.mark.parametrize("shape", [(3,), (1,), (2, 3), (2, 2, 2)])
    def test_rejects_pairs_of_the_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="shape must match singles"):
            EventStats(np.array([0.5, 0.5]), np.full(shape, 0.25))

    def test_rejects_other_pair_sources(self):
        with pytest.raises(ValueError, match="'independence' or a matrix"):
            EventStats(np.array([0.5, 0.5]), lambda s, t: 0.25)

    def test_zero_denominator(self):
        stats = EventStats(np.zeros(3), "independence")
        with pytest.raises(UndefinedBoundError):
            bc_lower_bound(stats, 3)

    def test_scan_running_max(self):
        # harmonic independent events: the bound dips until S1 > 2*S2 (around
        # Q = 14) and is provably non-decreasing from Q = 16 onward
        mu = 1.0 / np.arange(1, 1025)
        stats = EventStats(mu, "independence")
        points, running = bc_scan(stats, [16, 64, 256, 1024])
        vals = [b for _, b in points]
        assert vals == sorted(vals)
        assert running == vals[-1]

    def test_harmonic_independent_events_approach_one(self):
        mu = 1.0 / np.arange(1, 10_001)
        stats = EventStats(mu, "independence")
        s1 = mu.sum()
        s2 = (mu * mu).sum()
        expected = s1 * s1 / (s1 + s1 * s1 - s2)
        assert bc_lower_bound(stats, 10_000) == pytest.approx(expected, abs=1e-12)
        assert bc_lower_bound(stats, 10_000) > 0.88


class TestQuasiIndependence:
    def test_zero_intersection(self):
        f = power_log(0.25, 1, 0)
        assert quasi_independence_ratio(4, 9, f, 2, 0.0) == 0.0

    def test_accepts_estimate(self):
        f = power_log(0.25, 1, 0)
        est = MeasureEstimate.exact(1e-4)
        r = quasi_independence_ratio(10, 11, f, 2, est)
        assert r == pytest.approx(1e-4 / (f(10) * math.log(10) * f(11) * math.log(11)))

    def test_preconditions(self):
        f = power_log(0.25, 1, 0)
        with pytest.raises(ValueError):
            quasi_independence_ratio(5, 5, f, 2, 0.1)
        with pytest.raises(ValueError):
            quasi_independence_ratio(1, 5, f, 2, 0.1)
        with pytest.raises(UndefinedRatioError):
            quasi_independence_ratio(3, 5, power_log(0, 0, 0), 1, 0.1)

    def test_neighbour_pair_ratio_finite(self):
        from diolab.regions import product_region_measure_coprime
        from diolab.sampler import estimate_pairwise_intersection

        f = power_log(0.25, 1, 0)
        est = estimate_pairwise_intersection(
            100, 101, f, 2, coprime=True, samples=100_000, seed=8
        )
        ratio = quasi_independence_ratio(100, 101, f, 2, est)
        assert math.isfinite(ratio) and ratio >= 0.0
        # the independence level of the same ratio, for scale
        m_q = product_region_measure_coprime(100, 2, f(100)).value
        m_r = product_region_measure_coprime(101, 2, f(101)).value
        indep = quasi_independence_ratio(100, 101, f, 2, m_q * m_r)
        assert ratio <= 10.0 * max(indep, 1e-12)

    def test_scaling_band_exact_1d(self):
        # doubling psi at both q and r quadruples the denominator; exact
        # interval intersections keep the ratio inside a factor-4 band
        q, r = 15, 22
        for base in (0.01, 0.05):
            inter1 = slice_union(q, base, True).intersection_measure(slice_union(r, base, True))
            inter2 = slice_union(q, 2 * base, True).intersection_measure(
                slice_union(r, 2 * base, True)
            )
            f1 = power_log(base * q, 1, 0)  # psi(q) = base at q... constant approx
            ratio1 = inter1 / (base * base)
            ratio2 = inter2 / (4 * base * base)
            if ratio1 > 0:
                assert ratio2 <= 4 * ratio1 + 1e-12
                assert ratio2 >= ratio1 / 4 - 1e-12
