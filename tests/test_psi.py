import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import diolab.arith
import diolab.psi
from diolab.arith import PhiTable, default_phi_table
from diolab.errors import UndefinedRatioError
from diolab.psi import (
    SCAN_BLOCK,
    CONVERGENT,
    DIVERGENT,
    UNKNOWN,
    SumCriterion,
    WeightFn,
    adversarial_primorial,
    classify,
    cond1_ratio,
    cond1_scan,
    conditional_psi,
    family_from_spec,
    indicator_support,
    padic_weighted_psi,
    partial_sum,
    partial_sum_scan,
    power_log,
    psi_eval,
    table_psi,
)


class TestEval:
    def test_power_log_examples(self):
        assert psi_eval(power_log(1, 1, 0), 4) == 0.25
        assert psi_eval(power_log(2, 0.5, 0), 4) == 1.0

    def test_table_lookup(self):
        f = table_psi([0.5, 0, 0.1])
        assert psi_eval(f, 2) == 0.0
        assert psi_eval(f, 1) == 0.5
        assert psi_eval(f, 99) == 0.0  # beyond the table

    def test_table_values_build_their_floats_once(self):
        f = table_psi([0.5, Fraction(1, 3), 2])
        qs = np.array([3, 1, 2, 4, 9])
        out = f.values(qs)
        assert out.tolist() == [2.0, 0.5, 1 / 3, 0.0, 0.0]
        out[:] = 7.0  # the caller owns the result, not the table
        assert f.values(qs).tolist() == [2.0, 0.5, 1 / 3, 0.0, 0.0]
        assert f._floats is f._floats

    def test_conditional_infinity(self):
        base = table_psi([0.1] * 8)
        f = conditional_psi(base, [0.5])  # ||q/2|| = 0 at even q
        assert psi_eval(f, 2) == math.inf
        assert psi_eval(f, 1) == pytest.approx(0.1 / 0.5)

    def test_conditional_zero_conventions(self):
        zero_base = table_psi([0.0, 0.0])
        f = conditional_psi(zero_base, [0.5])
        assert psi_eval(f, 2) == 0.0  # 0/0 = 0
        pos = table_psi([0.3, 0.3])
        assert psi_eval(conditional_psi(pos, [0.5]), 2) == math.inf  # 0.3/0 = +inf

    def test_conditional_direct_division(self):
        base = table_psi([0.1] * 10)
        f = conditional_psi(base, [0.2])  # ||1*0.2|| = 0.2
        assert psi_eval(f, 1) == pytest.approx(0.5)

    def test_conditional_values_match_scalar(self):
        f = conditional_psi(power_log(1, 1, 0), [0.25, 1 / 3])
        qs = np.arange(1, 50)
        vec = f.values(qs)
        for q in qs:
            assert vec[q - 1] == pytest.approx(f(int(q))) or (
                math.isinf(vec[q - 1]) and math.isinf(f(int(q)))
            )

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        fams = [power_log(0.7, 1.2, -1.0), table_psi([0.4, 0.0, 2.0]),
                adversarial_primorial(3)]
        for f in fams:
            for _ in range(50):
                q = int(rng.integers(1, 2000))
                assert psi_eval(f, q) >= 0.0

    def test_invalid_params_rejected_at_construction(self):
        with pytest.raises(ValueError):
            power_log(-1, 1, 0)
        with pytest.raises(ValueError):
            table_psi([-0.5])
        with pytest.raises(ValueError):
            conditional_psi(power_log(1, 1, 0), [])
        with pytest.raises(ValueError):
            padic_weighted_psi(power_log(1, 1, 0), [2, 2], [("power", 1), ("power", 1)])
        with pytest.raises(ValueError):
            padic_weighted_psi(power_log(1, 1, 0), [4], [("power", 1)])
        with pytest.raises(ValueError):
            WeightFn("const", 0.0)


class TestPadicWeighted:
    def test_examples(self):
        f = padic_weighted_psi(power_log(1, 1, 0), [2], [("power", 1.0)])
        assert psi_eval(f, 8) == pytest.approx(1.0)  # (1/8) / (1/8)
        assert psi_eval(f, 9) == pytest.approx(1 / 9)  # |9|_2 = 1

    def test_identity_weight_reproduces_base(self):
        base = power_log(1, 1, 0)
        f = padic_weighted_psi(base, [2, 3], [("const", 1.0), ("const", 1.0)])
        qs = np.arange(1, 1001)
        assert np.allclose(f.values(qs), base.values(qs), rtol=0, atol=0)

    def test_vector_matches_scalar(self):
        f = padic_weighted_psi(power_log(1, 1, 0), [2, 5], [("power", 0.5), ("power", 2.0)])
        qs = np.arange(1, 300)
        vec = f.values(qs)
        for q in [1, 2, 10, 40, 200, 250]:
            assert vec[q - 1] == pytest.approx(f(q), rel=1e-12)


class TestPartialSums:
    def test_log_weighted_example(self):
        s = partial_sum(power_log(1, 0, 0), SumCriterion("log_weighted", 2), 3)
        assert s == pytest.approx(math.log(2) + math.log(3), rel=1e-12)

    def test_zero_family(self):
        for kind in ("plain", "log_weighted", "phi_log_weighted", "phi_plain"):
            assert partial_sum(power_log(0, 0, 0), SumCriterion(kind, 2), 50) == 0.0

    def test_phi_plain_example(self):
        s = partial_sum(power_log(1, 1, 0), SumCriterion("phi_plain", 1), 4)
        # 1*1 + (1/2)(1/2) + (2/3)(1/3) + (1/2)(1/4), brute-force phi
        assert s == pytest.approx(1 + 0.25 + 2 / 9 + 0.125, rel=1e-12)

    def test_q1_log_weight_conventions(self):
        # n >= 2: the q=1 summand carries weight log(1)**(n-1) = 0
        assert partial_sum(power_log(1, 0, 0), SumCriterion("log_weighted", 2), 1) == 0.0
        # n = 1: empty product, weight 1
        assert partial_sum(power_log(1, 0, 0), SumCriterion("log_weighted", 1), 1) == 1.0

    def test_monotone_in_Q(self):
        f = power_log(1, 1, 1)
        for kind in ("plain", "log_weighted", "phi_log_weighted", "phi_plain"):
            c = SumCriterion(kind, 2)
            sums = [partial_sum(f, c, Q) for Q in (1, 2, 5, 10, 50, 200)]
            assert sums == sorted(sums)

    def test_phi_weighted_dominated(self):
        f = power_log(1, 1, 0)
        for Q in (10, 100, 1000):
            assert partial_sum(f, SumCriterion("phi_log_weighted", 2), Q) <= partial_sum(
                f, SumCriterion("log_weighted", 2), Q
            )

    def test_scan_matches_pointwise(self):
        f = power_log(1, 1, 0)
        c = SumCriterion("phi_plain", 2)
        for Q, s in partial_sum_scan(f, c, [1, 3, 10, 64]):
            assert s == pytest.approx(partial_sum(f, c, Q), rel=1e-12)

    def test_one_checkpoint_is_the_scan(self):
        f = power_log(1, 1, 1)
        for kind in ("plain", "log_weighted", "phi_log_weighted", "phi_plain"):
            c = SumCriterion(kind, 2)
            scan = partial_sum_scan(f, c, [1, 7, 1000])
            assert [partial_sum(f, c, Q) for Q, _ in scan] == [s for _, s in scan]
        points, _ = cond1_scan(f, 2, [2, 7, 1000])
        assert [cond1_ratio(f, 2, Q) for Q, _ in points] == [r for _, r in points]

    def test_infinite_summand_is_overflow(self):
        f = conditional_psi(table_psi([0.1] * 10), [0.5])
        with pytest.raises(OverflowError):
            partial_sum(f, SumCriterion("plain", 1), 4)


class TestCond1:
    def test_ratio_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = power_log(float(rng.uniform(0.1, 2)), float(rng.uniform(0, 1.5)), 0.0)
            r = cond1_ratio(f, int(rng.integers(1, 4)), 500)
            assert 0.0 < r <= 1.0

    def test_support_filtering_controls_ratio(self):
        # support restricted to phi(q)/q < 0.25 forces the n=1 ratio below 0.25
        f = indicator_support(power_log(1, 0, 0), "phi_ratio_below", 0.25)
        r = cond1_ratio(f, 1, 1000)
        assert 0.0 < r < 0.25

    def test_undefined_ratio(self):
        f = table_psi([0.0] * 10)
        with pytest.raises(UndefinedRatioError):
            cond1_ratio(f, 1, 10)

    def test_scan_running_max(self):
        points, running = cond1_scan(power_log(1, 0, 0), 1, [1, 2, 4, 8, 100])
        assert running == max(r for _, r in points)
        assert points[0] == (1, 1.0)  # phi(1)/1 = 1


def whole_range_summand(f, criterion, Q):
    """The summand over all of 1..Q in one array: the unstreamed formula."""
    qs = np.arange(1, Q + 1, dtype=np.int64)
    out = f.values(qs)
    e = criterion.log_exponent
    if e > 0:
        out = out * np.log(qs.astype(np.float64)) ** e
    if criterion.uses_phi:
        out = out * (PhiTable(Q).values[1 : Q + 1] / qs) ** criterion.n
    return out


STREAM_FAMILIES = [
    power_log(1, 1, 1),
    table_psi([1.0 / (q * q + 0.5) for q in range(1, SCAN_BLOCK + 40)]),
    indicator_support(power_log(0.5, 0.8, 0), "phi_ratio_below", 0.4),
]


class TestStreamedScans:
    Q = 2 * SCAN_BLOCK + 777
    CHECKPOINTS = [1, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 2 * SCAN_BLOCK, Q]

    @pytest.mark.parametrize("f", STREAM_FAMILIES, ids=["power_log", "table", "phi_ratio_below"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_bit_identical_to_one_whole_range_cumsum(self, f, n):
        for kind in ("plain", "log_weighted", "phi_log_weighted", "phi_plain"):
            c = SumCriterion(kind, n)
            whole = np.cumsum(whole_range_summand(f, c, self.Q))
            assert partial_sum_scan(f, c, self.CHECKPOINTS) == [(g, float(whole[g - 1])) for g in self.CHECKPOINTS]
        num = np.cumsum(whole_range_summand(f, SumCriterion("phi_log_weighted", n), self.Q))
        den = np.cumsum(whole_range_summand(f, SumCriterion("log_weighted", n), self.Q))
        expected = [(g, float(num[g - 1] / den[g - 1])) for g in self.CHECKPOINTS if den[g - 1] > 0.0]
        points, running = cond1_scan(f, n, self.CHECKPOINTS)
        assert points == expected
        assert running == max(r for _, r in expected)

    @pytest.mark.parametrize(
        "scan",
        [
            lambda f, Q: cond1_scan(f, 2, [Q]),
            lambda f, Q: partial_sum_scan(f, SumCriterion("plain", 1), [Q]),
        ],
        ids=["cond1", "plain"],
    )
    def test_one_scan_builds_one_table(self, monkeypatch, scan):
        builds, calls = [], []

        class CountingTable(PhiTable):
            def __init__(self, limit):
                builds.append(limit)
                super().__init__(limit)

        monkeypatch.setattr(diolab.arith, "PhiTable", CountingTable)
        monkeypatch.setattr(diolab.arith, "_default_table", None)
        real = diolab.psi.default_phi_table

        def counted(limit=10_000):
            calls.append(limit)
            return real(limit)

        # the name benchmark tracing rebinds must be the one the scans call
        monkeypatch.setattr(diolab.psi, "default_phi_table", counted)
        Q = 3 * SCAN_BLOCK + 5
        scan(indicator_support(power_log(1, 1, 0), "phi_ratio_below", 0.5), Q)
        assert builds == [Q]
        assert calls[0] == Q
        builds.clear()
        scan(power_log(1, 1, 0), Q)  # table already large enough
        assert builds == []

    def test_plain_sum_of_a_plain_family_builds_no_table(self, monkeypatch):
        monkeypatch.setattr(diolab.arith, "_default_table", None)
        partial_sum_scan(power_log(1, 1, 0), SumCriterion("log_weighted", 2), [SCAN_BLOCK + 1])
        assert diolab.arith._default_table is None

    def test_memory_is_a_block_not_the_range(self):
        Q = 1_000_000
        default_phi_table(Q)
        tracemalloc.start()
        try:
            cond1_scan(power_log(1, 1, 0), 2, [1, Q])
            partial_sum_scan(adversarial_primorial(4), SumCriterion("phi_log_weighted", 2), [Q])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one whole-range float64 array alone would be 7.6 MiB
        assert peak < 6 * 2**20


class TestClassify:
    def test_examples(self):
        assert classify(power_log(1, 1, 0), SumCriterion("log_weighted", 2)) == DIVERGENT
        assert classify(power_log(1, 1, 3), SumCriterion("log_weighted", 2)) == CONVERGENT
        assert classify(table_psi([1.0, 0.5]), SumCriterion("plain", 1)) == UNKNOWN

    def test_power_log_rules(self):
        assert classify(power_log(1, 0.5, 0), SumCriterion("plain", 1)) == DIVERGENT
        assert classify(power_log(1, 2, 0), SumCriterion("plain", 1)) == CONVERGENT
        assert classify(power_log(1, 1, 1), SumCriterion("plain", 1)) == DIVERGENT
        assert classify(power_log(1, 1, 1.5), SumCriterion("plain", 1)) == CONVERGENT
        assert classify(power_log(0, 1, 0), SumCriterion("plain", 1)) == CONVERGENT
        # log-weighted shifts the boundary by n-1
        assert classify(power_log(1, 1, 2), SumCriterion("log_weighted", 2)) == DIVERGENT
        assert classify(power_log(1, 1, 3.5), SumCriterion("log_weighted", 2)) == CONVERGENT

    def test_derived_families_unknown(self):
        f = adversarial_primorial(4)
        assert classify(f, SumCriterion("plain", 1)) == UNKNOWN


class TestSerialization:
    def test_round_trip(self):
        fams = [
            power_log(0.25, 1.0, 2.0),
            table_psi([Fraction(1, 4), 0, Fraction(1, 10)]),
            indicator_support(power_log(1, 1, 0), "primorial_multiples", 4),
            conditional_psi(power_log(1, 1, 0), [0.5, 0.25]),
            padic_weighted_psi(power_log(1, 1, 0), [2, 3], [("power", 1.0), ("const", 2.0)]),
        ]
        for f in fams:
            g = family_from_spec(f.spec_dict())
            qs = np.arange(1, 200)
            a, b = f.values(qs), g.values(qs)
            assert np.array_equal(a, b)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            family_from_spec({"family": "nope"})


def test_adversarial_support_structure():
    f = adversarial_primorial(4)  # primorial 210
    qs = np.arange(1, 2000)
    vals = f.values(qs)
    nz = qs[vals > 0]
    assert list(nz) == [210 * k for k in range(1, len(nz) + 1)]
