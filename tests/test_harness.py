import numpy as np
import pytest

from diolab.arith import euler_phi

from diolab import harness
from diolab.borel_cantelli import EventStats, bc_lower_bound, bc_scan
from diolab.harness import (
    Battery,
    BatteryEntry,
    DISCLAIMER,
    exact_event_stats_1d,
    run_bc_evidence,
    run_dichotomy_scan,
    run_padic,
    theorem2_demo_battery,
)
from diolab.psi import SumCriterion, WeightFn, indicator_support, power_log, table_psi
from diolab.regions import RegionSpec, region_measure, slice_union, truncated_union_1d
from diolab.sampler import ExperimentConfig, estimate_union_measure, sample_points, solution_counts


def cfg_of(family, **kw):
    defaults = dict(n=1, Q=32, samples=400, seed=11)
    defaults.update(kw)
    return ExperimentConfig(family=family, **defaults)


class TestBatteryValidation:
    def test_expect_full_needs_divergent_metadata(self):
        entry = BatteryEntry(
            "ok", cfg_of(power_log(1, 1, 0)), "expect-full", SumCriterion("plain", 1)
        )
        assert entry.expect == "expect-full"
        with pytest.raises(ValueError):
            BatteryEntry(
                "bad", cfg_of(power_log(1, 2, 0)), "expect-full", SumCriterion("plain", 1)
            )
        with pytest.raises(ValueError):
            BatteryEntry("bad", cfg_of(power_log(1, 1, 0)), "expect-full", None)
        with pytest.raises(ValueError):
            # table families carry no metadata, cannot justify expectations
            BatteryEntry(
                "bad", cfg_of(table_psi([0.5])), "expect-null", SumCriterion("plain", 1)
            )

    @pytest.mark.parametrize(
        "expect, family, message",
        [
            ("expect-full", power_log(1, 2, 0), "entry 'bad': expect-full must cite a known-divergent criterion"),
            ("expect-null", power_log(1, 1, 0), "entry 'bad': expect-null must cite a known-convergent criterion"),
        ],
    )
    def test_expectation_messages(self, expect, family, message):
        for justification in (SumCriterion("plain", 1), None):
            with pytest.raises(ValueError) as exc:
                BatteryEntry("bad", cfg_of(family), expect, justification)
            assert str(exc.value) == message

    def test_unknown_expectation(self):
        with pytest.raises(ValueError, match="unknown expectation 'expect-half'"):
            BatteryEntry("bad", cfg_of(power_log(1, 1, 0)), "expect-half")

    @pytest.mark.parametrize("payload", [[1], "battery", {"schema_version": 1, "experiments": [5]}])
    def test_a_config_that_is_not_an_object_is_a_value_error(self, payload):
        with pytest.raises(ValueError, match="must be an object"):
            Battery.from_dict(payload)

    def test_round_trip(self):
        b = theorem2_demo_battery()
        again = Battery.from_dict(b.to_dict())
        assert again == b

    def test_schema_version_required(self):
        with pytest.raises(ValueError):
            Battery.from_dict({"name": "x", "experiments": []})


class TestDichotomyScan:
    def test_zero_family_null_trending(self):
        battery = Battery(
            "zeros",
            (BatteryEntry("z", cfg_of(power_log(0, 0, 0))),),
        )
        rep = run_dichotomy_scan(battery)
        assert rep.results[0].classification == "null-trending"
        assert all(e.value == 0.0 for _, e in rep.results[0].checkpoints)
        assert rep.anomalies == []
        assert rep.disclaimer == DISCLAIMER

    def test_demo_battery_classifications(self):
        rep = run_dichotomy_scan(theorem2_demo_battery(samples=2000))
        by_name = {r.name: r.classification for r in rep.results}
        assert by_name["divergent-n2"] == "full-trending"
        assert by_name["convergent-tail-n2"] == "null-trending"
        assert rep.anomalies == []

    def test_anomaly_flagged_on_mismatch(self):
        # divergent family truncated so early it cannot reach the threshold
        entry = BatteryEntry(
            "starved",
            ExperimentConfig(
                family=power_log(1e-6, 1, 0), n=1, Q=2, samples=300, seed=0
            ),
            "expect-full",
            SumCriterion("plain", 1),
        )
        rep = run_dichotomy_scan(Battery("starved", (entry,)))
        assert rep.results[0].classification != "full-trending"
        assert len(rep.anomalies) == 1

    def test_expect_null_anomaly_and_inconclusive_class(self):
        # q = 1 fills the whole circle when psi(1) = 1; four early slices of 0.25/q hit 236 of 300 samples
        loud = BatteryEntry("loud", cfg_of(power_log(1, 2, 0), Q=4, samples=300, seed=0), "expect-null",
                            SumCriterion("plain", 1))
        mid = BatteryEntry("mid", cfg_of(power_log(0.25, 1, 0), Q=4, samples=300, seed=0), "expect-full",
                           SumCriterion("plain", 1))
        rep = run_dichotomy_scan(Battery("b", (loud, mid)))
        assert [r.classification for r in rep.results] == ["full-trending", "inconclusive"]
        assert rep.anomalies == [
            "loud: expected null-trending, got full-trending (1)",
            "mid: expected full-trending, got inconclusive (0.786667)",
        ]

    def test_reproducible(self):
        battery = theorem2_demo_battery(samples=500)
        a = run_dichotomy_scan(battery)
        b = run_dichotomy_scan(battery)
        for ra, rb in zip(a.results, b.results):
            assert ra.checkpoints == rb.checkpoints
            assert ra.config_hash == rb.config_hash

    def test_plain_product_divergent_goes_full(self):
        # the plain (non-coprime) product slices are large; the union of a
        # known-divergent family saturates well before Q = 1000
        entry = BatteryEntry(
            "plain-div",
            ExperimentConfig(
                family=power_log(0.25, 1, 0), n=2, mode="product", coprime=False,
                Q0=2, Q=1000, samples=3000, seed=13,
            ),
            "expect-full",
            SumCriterion("log_weighted", 2),
        )
        rep = run_dichotomy_scan(Battery("plain", (entry,)))
        assert rep.results[0].classification == "full-trending"
        assert rep.anomalies == []

    def test_convergent_tail_bounded_by_exact_tail_sum(self):
        # reduced-scale version of the convergence-side acceptance check
        from diolab.regions import product_region_measure_coprime

        fam = power_log(1, 1, 3)
        qs = np.arange(1000, 5001)
        tail_sum = sum(
            product_region_measure_coprime(q, 2, d).value for q, d in zip(qs.tolist(), fam.values(qs).tolist())
        )
        cfg = ExperimentConfig(
            family=fam, n=2, coprime=True, Q0=1000, Q=5000, samples=8000,
            seed=14, q_grid=(5000,),
        )
        [(_, est)] = estimate_union_measure(cfg)
        assert est.value <= tail_sum


class TestBcEvidence:
    def test_exact_1d_pipeline(self):
        cfg = ExperimentConfig(
            family=power_log(0.25, 1, 0), n=1, coprime=True, Q0=1, Q=64,
            samples=100, seed=1,
        )
        rep = run_bc_evidence(cfg, pair_source="exact-1d")
        assert rep.anomalies == []
        for (qc, bound), (_, union) in zip(rep.bound_curve, rep.union_curve):
            assert bound > 0.0
            assert bound <= union.value + 1e-12
            assert union.provenance == "exact"

    def test_exact_stats_invariants(self):
        f = power_log(0.25, 1, 0)
        stats = exact_event_stats_1d(f, 1, 40, coprime=True)
        k = stats.q_max
        for i in range(k):
            assert stats.pairs[i, i] == pytest.approx(stats.singles[i])
            for j in range(k):
                assert stats.pairs[i, j] <= min(stats.singles[i], stats.singles[j]) + 1e-12

    @staticmethod
    def pairwise_reference(f, Q0, Q):
        # reference: one intersection_measure call per pair
        psis = f.values(np.arange(Q0, Q + 1)).tolist()
        unions = [slice_union(q, d, coprime=True) for q, d in zip(range(Q0, Q + 1), psis)]
        k = len(unions)
        pairs = np.empty((k, k))
        for i in range(k):
            pairs[i, i] = unions[i].measure
            for j in range(i + 1, k):
                pairs[i, j] = pairs[j, i] = unions[i].intersection_measure(unions[j])
        return pairs

    def test_exact_pairs_equal_pairwise_loop(self):
        f = power_log(0.25, 1, 0)
        stats = exact_event_stats_1d(f, 1, 192, coprime=True)
        assert stats.pairs.tobytes() == self.pairwise_reference(f, 1, 192).tobytes()
        assert stats.singles.tobytes() == np.diag(stats.pairs).tobytes()

    def test_psi_comes_from_values(self):
        # the bound must see the slices of the union it is checked against; the
        # scalar f(q) is a one-element values() call, so it reads the same psi
        f = power_log(1, 1, 3)
        qs = np.arange(1, 21)
        psis = f.values(qs).tolist()
        assert [f(q) for q in qs.tolist()] == psis
        stats = exact_event_stats_1d(f, 1, 20)
        assert stats.singles.tolist() == [
            slice_union(q, d, coprime=True).measure for q, d in zip(qs.tolist(), psis)
        ]
        cfg = ExperimentConfig(family=f, n=1, coprime=True, Q0=1, Q=20, samples=100, seed=1)
        rep = run_bc_evidence(cfg, pair_source="independence")
        assert [row[2] for row in rep.sumcon_table] == [
            euler_phi(qc) / qc * psis[qc - 1] for qc in cfg.checkpoints
        ]

    def test_exact_pairs_with_empty_slices(self):
        # the events are the table's support q = 1..6: psi is 0 at q = 2 and 4, and q = 7..9 lie past the table
        f = table_psi([0.2, 0.0, 0.05, 0.0, 0.01, 0.03])
        stats = exact_event_stats_1d(f, 1, 9, coprime=True)
        assert stats.pairs.tobytes() == self.pairwise_reference(f, 1, 6).tobytes()
        empty = [q - 1 for q in range(1, 7) if f(q) == 0.0]
        assert empty == [1, 3]
        assert not stats.pairs[empty].any() and not stats.pairs[:, empty].any()
        assert stats.pairs[0, 4] > 0.0  # [0, 0.2] meets q = 5 around 1/5

    def test_independence_source_matches_analytic(self):
        cfg = ExperimentConfig(
            family=power_log(0.25, 1, 0), n=1, coprime=True, Q0=1, Q=32,
            samples=3000, seed=2,
        )
        rep = run_bc_evidence(cfg, pair_source="independence")
        from diolab.regions import RegionSpec, region_measure_1d

        mu = np.array(
            [region_measure_1d(RegionSpec(q, 1, cfg.family(q), coprime=True)).value
             for q in range(1, 33)]
        )
        for qc, bound in rep.bound_curve:
            s1 = mu[:qc].sum()
            s2 = (mu[:qc] ** 2).sum()
            assert bound == pytest.approx(s1 * s1 / (s1 + s1 * s1 - s2), abs=1e-12)

    def test_monte_carlo_pairs_small(self):
        cfg = ExperimentConfig(
            family=power_log(0.25, 1, 0), n=1, coprime=True, Q0=1, Q=8,
            samples=4000, seed=3, q_grid=(8,),
        )
        rep = run_bc_evidence(cfg, pair_source="monte-carlo")
        (qc, bound), = rep.bound_curve
        exact = truncated_union_1d(cfg.family, 1, 8, coprime=True).value
        assert 0.0 < bound <= exact + 0.05  # MC pair noise allowance

    def test_exact_1d_flags_a_halved_pair_matrix(self, monkeypatch):
        # halving every pair measure doubles the bound, far past any rounding of its float sums
        exact = harness.exact_event_stats_1d
        monkeypatch.setattr(harness, "exact_event_stats_1d", lambda *a: EventStats(exact(*a).singles, exact(*a).pairs / 2))
        cfg = ExperimentConfig(family=power_log(0.25, 1, 0), n=1, coprime=True, Q=64, samples=100, seed=1)
        rep = run_bc_evidence(cfg, pair_source="exact-1d")
        assert len(rep.anomalies) == len(cfg.checkpoints)
        assert all(bound > union.value for (_, bound), (_, union) in zip(rep.bound_curve, rep.union_curve))

    def test_zero_family_vacuous_pass(self):
        cfg = ExperimentConfig(family=power_log(0, 0, 0), n=1, Q=16, samples=50, seed=5)
        rep = run_bc_evidence(cfg, pair_source="exact-1d")
        assert rep.bound_curve == [(qc, 0.0) for qc in cfg.checkpoints]
        assert [qc for qc, _ in rep.union_curve] == list(cfg.checkpoints)
        assert all(u.provenance == "exact" and u.value == 0.0 for _, u in rep.union_curve)
        assert rep.anomalies == []

    def test_zero_family_still_rejects_unknown_pair_source(self):
        cfg = ExperimentConfig(family=power_log(0, 0, 0), n=1, Q=16, samples=50, seed=5)
        with pytest.raises(ValueError, match="unknown pair source 'bogus'"):
            run_bc_evidence(cfg, pair_source="bogus")

    def test_zero_family_still_rejects_exact_1d_above_n_1(self):
        cfg = ExperimentConfig(family=power_log(0, 0, 0), n=2, Q=16, samples=50, seed=5)
        with pytest.raises(ValueError, match="requires n = 1"):
            run_bc_evidence(cfg, pair_source="exact-1d")

    def test_sparse_family_measures_no_zero_slice(self, monkeypatch):
        # region_measure gives 0.0 at delta = 0, so only slices with psi > 0 are measured: at n = 2
        # coprime each call would first build q's coprime law
        f = indicator_support(power_log(0.25, 1, 0), "multiples_of", 10)
        cfg = ExperimentConfig(family=f, n=2, coprime=True, Q=200, samples=200, seed=6, q_grid=(50, 128, 200))
        deltas = []

        def spy(spec, *args):
            deltas.append(spec.delta)
            return region_measure(spec, *args)

        monkeypatch.setattr(harness, "region_measure", spy)
        rep = run_bc_evidence(cfg, pair_source="independence")
        assert len(deltas) == 22 and min(deltas) > 0.0  # 20 singles, and sumcon rows at Q = 50 and 200
        singles = [region_measure(RegionSpec(q, 2, f(q), coprime=True)).value for q in range(1, 201)]
        # the events are the support q = 10, 20, ..., 200, 5, 12 and 20 of them at the checkpoints
        want, _ = bc_scan(EventStats(np.array(singles[9::10]), "independence"), [5, 12, 20])
        assert rep.bound_curve == [(qc, b) for qc, (_, b) in zip(cfg.checkpoints, want)]
        # numpy's pairwise sums place the dense singles' zeros elsewhere in the order: each of the bound's
        # sums lies within 200 u of the exact one, so the bound within 8 * 200 u
        dense, _ = bc_scan(EventStats(np.array(singles), "independence"), cfg.checkpoints)
        assert rep.bound_curve == [(qc, pytest.approx(b, rel=8 * 200 * 2.0**-53)) for qc, b in dense]
        assert [row[1] for row in rep.sumcon_table] == [singles[qc - 1] for qc in cfg.checkpoints]

    def test_sumcon_table_shape(self):
        cfg = ExperimentConfig(
            family=power_log(0.25, 1, 0), n=2, coprime=True, Q0=16, Q=64,
            samples=500, seed=4,
        )
        rep = run_bc_evidence(cfg, pair_source="independence")
        for qc, measure, predicted, ratio in rep.sumcon_table:
            assert measure > 0 and predicted > 0
            assert ratio == pytest.approx(measure / predicted)


class TestPadic:
    def test_identity_weights_reduce_to_plain(self):
        cfg = ExperimentConfig(family=power_log(1, 1, 0), n=1, Q=200, samples=1, seed=6)
        rep = run_padic(cfg, [3], [WeightFn("const", 1.0)], n_alphas=3)
        for i, curve in enumerate(rep.count_curves):
            x = sample_points(cfg.seed, 0, 3, 1)[i]
            assert curve == solution_counts(x, cfg.family, cfg.checkpoints, strict=False)

    def test_zero_family_zero_counts(self):
        cfg = ExperimentConfig(family=power_log(0, 0, 0), n=1, Q=50, samples=1, seed=7)
        rep = run_padic(cfg, [2], [WeightFn("power", 1.0)], n_alphas=2)
        assert all(c == 0 for curve in rep.count_curves for _, c in curve)

    def test_counts_monotone_and_sums_grow(self):
        cfg = ExperimentConfig(family=power_log(1, 1, 0), n=1, Q=400, samples=1, seed=8)
        rep = run_padic(cfg, [2], [WeightFn("power", 1.0)], n_alphas=4)
        for curve in rep.count_curves:
            counts = [c for _, c in curve]
            assert counts == sorted(counts)
        sums = [s for _, s in rep.sum_curve]
        assert sums == sorted(sums)
        assert sums[-1] > sums[0]
