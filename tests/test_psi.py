import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diolab.arith
import diolab.psi
from diolab.arith import PhiTable, default_phi_table, dist_nearest, padic_abs, prime_factors
from diolab.errors import UndefinedRatioError
from diolab.psi import (
    SCAN_BLOCK,
    CONVERGENT,
    DIVERGENT,
    UNKNOWN,
    ConditionalPsi,
    IndicatorSupport,
    PadicWeightedPsi,
    PowerLog,
    SumCriterion,
    TablePsi,
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
from diolab.psi import _padic_abs_array

FAMILY_CLASSES = (PowerLog, TablePsi, IndicatorSupport, ConditionalPsi, PadicWeightedPsi)

unit_floats = st.floats(0.0, 1.0, allow_nan=False)
leaf_families = st.one_of(
    st.builds(power_log, st.floats(0.0, 4.0), st.floats(-1.0, 3.0), st.floats(-3.0, 5.0)),
    st.builds(
        table_psi,
        st.lists(
            st.one_of(unit_floats, st.fractions(0, 2, max_denominator=1000), st.integers(0, 3)), max_size=40
        ),
    ),
)
supports = st.one_of(
    st.tuples(st.just("multiples_of"), st.integers(1, 40)),
    st.tuples(st.just("primorial_multiples"), st.integers(1, 4)),
    st.tuples(st.just("phi_ratio_below"), unit_floats),
)
weights = st.one_of(
    st.builds(WeightFn, st.just("const"), st.floats(0.01, 10.0)),
    st.builds(WeightFn, st.just("power"), st.floats(-2.0, 2.0)),
)


def wrapped(base):
    padic = st.lists(st.sampled_from([2, 3, 5, 7, 11]), min_size=1, max_size=3, unique=True).flatmap(
        lambda ps: st.builds(
            padic_weighted_psi, base, st.just(ps), st.lists(weights, min_size=len(ps), max_size=len(ps))
        )
    )
    return st.one_of(
        st.builds(lambda f, s: indicator_support(f, *s), base, supports),
        st.builds(conditional_psi, base, st.lists(unit_floats, min_size=1, max_size=3)),
        padic,
    )


families = st.recursive(leaf_families, wrapped, max_leaves=4)


def textbook_psi(f, q: int) -> float:
    """psi(q) by each family's defining formula, one q at a time and apart from ``values``.

    phi comes from trial division, never from the shared sieve table.
    """
    if isinstance(f, PowerLog):
        return f.c * q ** (-f.a) * math.log(q + 1.0) ** (-f.b)
    if isinstance(f, TablePsi):
        return float(f.entries[q - 1]) if q <= len(f.entries) else 0.0
    if isinstance(f, IndicatorSupport):
        s = f.support
        if s.kind == "phi_ratio_below":
            phi = q
            for p in prime_factors(q):
                phi = phi // p * (p - 1)
            on = phi / q < s.param
        else:
            on = q % s.modulus == 0
        return textbook_psi(f.base, q) if on else 0.0
    if isinstance(f, ConditionalPsi):
        d = math.prod(dist_nearest(q, x) for x in f.anchors)
        b = textbook_psi(f.base, q)
        if d > 0.0:
            return b / d
        return math.inf if b > 0.0 else 0.0  # a/0 = inf, 0/0 = 0
    if isinstance(f, PadicWeightedPsi):
        w = 1.0
        for p, fn in zip(f.primes, f.weights):
            w *= fn.param if fn.kind == "const" else float(padic_abs(q, p)) ** fn.param
        return textbook_psi(f.base, q) / w
    raise TypeError(type(f))


def assert_textbook(f, qs):
    vec = f.values(np.asarray(qs, dtype=np.int64))
    assert vec.tolist() == [pytest.approx(textbook_psi(f, int(q)), rel=1e-12) for q in qs]


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
        # the scalar here is the textbook formula, not f(q), which reads values itself
        assert_textbook(conditional_psi(power_log(1, 1, 0), [0.25, 1 / 3]), range(1, 50))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(families, st.lists(st.integers(1, 10**6), min_size=1, max_size=8))
    @example(power_log(1, 1, 3), range(1, 2000))
    @example(adversarial_primorial(3), [30, 31, 60, 510510])
    @example(indicator_support(power_log(1, 1, 0), "phi_ratio_below", 0.3), range(1, 2000))
    def test_values_match_the_textbook_formula(self, f, qs):
        assert_textbook(f, qs)

    def test_only_the_base_class_evaluates_scalars(self):
        # every family keeps its own values; f(q) is the base class's one-element call
        for cls in FAMILY_CLASSES:
            assert "values" in vars(cls)
            assert "__call__" not in vars(cls)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(families, st.lists(st.integers(1, 10**6), min_size=1, max_size=8), st.integers(0, 7))
    @example(power_log(1, 1, 3), [1, 3, 15], 2)
    @example(power_log(0.25, 1, 0), [1923, 3846, 4221, 4935], 0)
    @example(conditional_psi(power_log(0.1, 1, 0), [0.5, math.sqrt(2) - 1]), [1923, 4221, 4935], 2)
    @example(padic_weighted_psi(power_log(1, 1, 2), [2, 3, 5], [("power", 0.5)] * 3), [42, 243, 15625], 0)
    @example(indicator_support(power_log(1, 1, 0), "phi_ratio_below", 0.3), [30030, 510510], 1)
    def test_scalar_is_values_bit_for_bit(self, f, qs, i):
        q = qs[i % len(qs)]
        want = float(f.values(np.array(qs, dtype=np.int64))[i % len(qs)]).hex()
        assert f(q).hex() == want
        assert psi_eval(f, q).hex() == want

    def test_one_large_q_builds_no_phi_table(self, monkeypatch):
        built = []
        monkeypatch.setattr(diolab.arith, "_default_table", None)
        monkeypatch.setattr(diolab.arith, "PhiTable", lambda limit: built.append(limit))
        f = indicator_support(power_log(1, 0, 0), "phi_ratio_below", 0.3)
        q = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 1_000_003  # phi(q)/q < 0.19
        assert f(q) == 1.0
        assert f(q + 2) == 0.0
        assert f.values(np.array([q, q + 2, 10**9 + 7])).tolist() == [1.0, 0.0, 0.0]
        assert built == []

    def test_scalar_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            power_log(1, 1, 0)(0)

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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.sampled_from([2, 3, 5, 7, 11]),
        st.lists(st.tuples(st.integers(0, 12), st.integers(1, 1000)), min_size=1, max_size=20),
    )
    @example(3, [(5, 1), (5, 2), (5, 4), (0, 15625), (0, 16807), (0, 14641)])
    @example(5, [(6, 1), (6, 2)])
    @example(7, [(5, 1)])
    @example(11, [(4, 1)])
    def test_padic_abs_array_is_correctly_rounded(self, p, factors):
        # q = p**v * m reaches valuations that uniform q would rarely draw
        qs = [p**v * m for v, m in factors]
        got = _padic_abs_array(np.array(qs, dtype=np.int64), p)
        assert [float(v).hex() for v in got] == [float(padic_abs(q, p)).hex() for q in qs]

    def test_weight_fn_is_one_array_evaluation(self):
        t = np.array([1.0, 0.5, 0.125])
        assert WeightFn("const", 3.0)(t).tolist() == [3.0, 3.0, 3.0]
        assert WeightFn("power", 2.0)(t).tolist() == [1.0, 0.25, 0.015625]

    def test_vector_matches_scalar(self):
        # the scalar here is the textbook formula, not f(q), which reads values itself
        f = padic_weighted_psi(power_log(1, 1, 0), [2, 5], [("power", 0.5), ("power", 2.0)])
        assert_textbook(f, range(1, 300))
        assert_textbook(padic_weighted_psi(power_log(1, 1, 2), [3, 7], [("const", 2.5), ("power", -1.0)]), range(1, 300))


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
