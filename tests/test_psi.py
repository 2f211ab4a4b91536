import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diolab.arith
import diolab.psi
from diolab.arith import SIEVE_CHUNK, dist_nearest, padic_abs, phi_segment, prime_factors
from diolab.errors import UndefinedRatioError
from phi_reference import PhiTable as ReferenceTable
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
    cond1_ratio,
    cond1_scan,
    conditional_psi,
    family_from_spec,
    indicator_support,
    padic_weighted_psi,
    partial_sum,
    partial_sum_scan,
    power_log,
    table_psi,
)
from diolab.psi import _log_weighted, _padic_abs_array

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
        assert power_log(1, 1, 0)(4) == 0.25
        assert power_log(2, 0.5, 0)(4) == 1.0

    @pytest.mark.parametrize("b", [0.0, -0.0, 3.0])
    def test_power_log_values_equal_the_full_formula(self, b):
        # b = +-0 skips log(q + 1) ** -b, which is 1.0 for every q, and the product with it
        qs = np.concatenate((np.arange(1, 5000), [2**31, 2**53 + 2, 10**17]))
        f = power_log(0.7, 1.3, b)
        x = qs.astype(np.float64)
        assert f.values(qs).tobytes() == (0.7 * x ** -1.3 * np.log(x + 1.0) ** -b).tobytes()

    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_log_weights_equal_the_power(self, e):
        # e = 1 skips log(q) ** 1, which is log(q) itself
        qs = np.arange(1, 5000)
        f = power_log(1.0, 1.0, 2.0)
        want = f.values(qs) * np.log(qs.astype(np.float64)) ** e
        assert _log_weighted(f, e, qs).tobytes() == want.tobytes()

    def test_table_lookup(self):
        f = table_psi([0.5, 0, 0.1])
        assert f(2) == 0.0
        assert f(1) == 0.5
        assert f(99) == 0.0  # beyond the table

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
        assert f(2) == math.inf
        assert f(1) == pytest.approx(0.1 / 0.5)

    def test_conditional_zero_conventions(self):
        zero_base = table_psi([0.0, 0.0])
        f = conditional_psi(zero_base, [0.5])
        assert f(2) == 0.0  # 0/0 = 0
        pos = table_psi([0.3, 0.3])
        assert conditional_psi(pos, [0.5])(2) == math.inf  # 0.3/0 = +inf

    def test_conditional_direct_division(self):
        base = table_psi([0.1] * 10)
        f = conditional_psi(base, [0.2])  # ||1*0.2|| = 0.2
        assert f(1) == pytest.approx(0.5)

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
        assert f(q).hex() == want

    def test_one_large_q_builds_no_phi_table(self, monkeypatch):
        sieved = []
        monkeypatch.setattr(diolab.arith, "phi_segment", lambda *span: sieved.append(span))
        f = indicator_support(power_log(1, 0, 0), "phi_ratio_below", 0.3)
        q = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 1_000_003  # phi(q)/q < 0.19
        assert f(q) == 1.0
        assert f(q + 2) == 0.0
        assert f.values(np.array([q, q + 2, 10**9 + 7])).tolist() == [1.0, 0.0, 0.0]
        assert sieved == []

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
                assert f(q) >= 0.0

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
        assert f(8) == pytest.approx(1.0)  # (1/8) / (1/8)
        assert f(9) == pytest.approx(1 / 9)  # |9|_2 = 1

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
        with pytest.raises(ValueError, match=r"\+inf"):
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
        out = out * (ReferenceTable(Q).values[1 : Q + 1] / qs) ** criterion.n
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
        "scan, reads_phi",
        [
            (lambda f, Q: cond1_scan(f, 2, [Q]), True),
            (lambda f, Q: partial_sum_scan(f, SumCriterion("plain", 1), [Q]), False),
        ],
        ids=["cond1", "plain"],
    )
    def test_one_scan_sieves_each_q_once(self, monkeypatch, scan, reads_phi):
        scans, blocks = [], []

        def recorder(calls):
            return lambda *span: calls.append(span) or phi_segment(*span)

        monkeypatch.setattr(diolab.psi, "phi_segment", recorder(scans))
        monkeypatch.setattr(diolab.arith, "phi_segment", recorder(blocks))
        Q = 5 * SCAN_BLOCK + 777  # the last block is long enough that sieving beats factoring
        scan(indicator_support(power_log(1, 1, 0), "phi_ratio_below", 0.5), Q)
        # the scan's own phi comes in chunks that tile 1..Q; the family sieves each block it reads
        tiles = [(lo, min(lo + SIEVE_CHUNK, Q + 1), 1) for lo in range(1, Q + 1, SIEVE_CHUNK)]
        assert scans == (tiles if reads_phi else [])
        assert blocks == [(lo, min(lo + SCAN_BLOCK, Q + 1), 1) for lo in range(1, Q + 1, SCAN_BLOCK)]
        scans.clear()
        blocks.clear()
        scan(power_log(1, 1, 0), Q)
        assert scans == (tiles if reads_phi else []) and blocks == []

    def test_plain_sum_of_a_plain_family_builds_no_table(self, monkeypatch):
        sieved = []
        monkeypatch.setattr(diolab.psi, "phi_segment", lambda *span: sieved.append(span))
        monkeypatch.setattr(diolab.arith, "phi_segment", lambda *span: sieved.append(span))
        partial_sum_scan(power_log(1, 1, 0), SumCriterion("log_weighted", 2), [SCAN_BLOCK + 1])
        assert sieved == []

    def test_memory_is_a_block_not_the_range(self):
        Q = 1_000_000
        tracemalloc.start()
        try:
            cond1_scan(power_log(1, 1, 0), 2, [1, Q])
            partial_sum_scan(adversarial_primorial(4), SumCriterion("phi_log_weighted", 2), [Q])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # phi is sieved inside the measured peak; one whole-range int64 or float64 array alone would be 7.6 MiB
        assert peak < 6 * 2**20


def _finite_entry():
    return st.one_of(unit_floats, st.fractions(0, 2, max_denominator=1000), st.integers(0, 3))


@st.composite
def tail_tables(draw):
    """A table that ends in zeros, and now and then holds one inf entry."""
    entries = draw(st.lists(_finite_entry(), max_size=30)) + [0] * draw(st.integers(0, 6))
    if entries and draw(st.integers(0, 5)) == 0:
        entries[draw(st.integers(0, len(entries) - 1))] = math.inf
    return table_psi(entries)


moduli = st.one_of(
    st.tuples(st.just("multiples_of"), st.integers(1, 40)),
    st.tuples(st.just("primorial_multiples"), st.integers(1, 4)),
)
support_leaves = st.one_of(
    tail_tables(),
    st.builds(power_log, st.floats(0.0, 4.0), st.floats(-1.0, 3.0), st.floats(-3.0, 5.0)),
    # c = 0: 0 * q**400 is NaN from q = 6 on, so this family may not promise zeros
    st.builds(power_log, st.just(0.0), st.sampled_from([-400.0, 1.0]), st.just(0.0)),
)

irrational_anchors = st.sampled_from([math.sqrt(2) - 1, (math.sqrt(5) - 1) / 2])  # ||q x|| > 0 at every q here


def support_wrapped(base):
    return st.one_of(
        st.builds(lambda f, s: indicator_support(f, *s), base, moduli),
        st.builds(indicator_support, base, st.just("phi_ratio_below"), unit_floats),
        st.builds(conditional_psi, base, st.lists(irrational_anchors | unit_floats, min_size=1, max_size=2)),
        # a weight 2**(-v * 200) underflows to 0 at v >= 6, where a zero base gives 0/0
        st.builds(
            lambda f, e: padic_weighted_psi(f, [2], [("power", e)]), base, st.sampled_from([0.5, -1.0, 200.0])
        ),
    )


support_families = st.recursive(support_leaves, support_wrapped, max_leaves=3)


@st.composite
def support_grids(draw, f):
    """Checkpoints anywhere up to 3000, and at the support's edges: before its first q, on one, past a table's end."""
    step, last = f.nonzero_support
    edges = [step - 1, step, 2 * step, 3 * step + 1] + ([] if last is None else [last, last + 1, last + 50])
    picked = draw(st.lists(st.sampled_from(edges), max_size=3))
    return [g for g in picked if 1 <= g <= 4000] + draw(st.lists(st.integers(1, 3000), min_size=1, max_size=4))


def dense_partial_sums(f, criterion, grid):
    """The unstreamed formula: every q of 1..Q, read at once, and one cumsum."""
    Q = max(grid)
    if not np.all(np.isfinite(f.values(np.arange(1, Q + 1)))):
        raise ValueError("psi is not finite")
    whole = np.cumsum(whole_range_summand(f, criterion, Q))
    return [(g, float(whole[g - 1])) for g in sorted(set(grid))]


def dense_cond1(f, n, grid):
    num = dense_partial_sums(f, SumCriterion("phi_log_weighted", n), grid)
    den = dense_partial_sums(f, SumCriterion("log_weighted", n), grid)
    points = [(g, a / b) for (g, a), (_, b) in zip(num, den) if b > 0.0]
    if not points:
        raise UndefinedRatioError("zero denominator")
    return points, max(r for _, r in points)


def outcome(fn, *args):
    """The value as exact float bits, or the type of the exception raised."""
    try:
        out = fn(*args)
    except (ValueError, UndefinedRatioError) as exc:
        return type(exc)
    points, best = out if isinstance(out, tuple) else (out, None)
    return [(g, float(s).hex()) for g, s in points], None if best is None else best.hex()


class TestSupport:
    """Scans that visit only a family's ``nonzero_support`` against the dense scan of every q.

    Float warnings are silenced on both sides, so a non-finite psi reports
    through the scans' own ValueError on both.  The contract is about values:
    a warning that only an evaluation off the support would raise is one the
    sparse scan rightly never meets.
    """

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(families, st.integers(1, 3000))
    @example(table_psi([1, 0, 2]), 5)
    @example(indicator_support(indicator_support(power_log(1, 1, 0), "multiples_of", 4), "multiples_of", 6), 40)
    @example(power_log(0, -400, 0), 10)
    @example(padic_weighted_psi(indicator_support(power_log(1, 1, 0), "multiples_of", 3), [2], [("power", 200.0)]), 100)
    def test_values_are_plus_zero_off_the_support(self, f, Q):
        step, last = f.nonzero_support
        qs = np.arange(1, Q + 1)
        off = (qs % step != 0) | (qs > (Q if last is None else last))
        with np.errstate(all="ignore"):
            vals = f.values(qs[off])
        assert np.all(vals == 0.0) and not np.any(np.signbit(vals))

    @pytest.mark.parametrize("blocks", [None, (4, 12)], ids=["real_blocks", "blocks_of_4"])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        support_families.flatmap(lambda f: st.tuples(st.just(f), support_grids(f))),
        st.sampled_from(["plain", "log_weighted", "phi_log_weighted", "phi_plain"]),
        st.integers(1, 3),
    )
    @example((table_psi([0, 0, Fraction(1, 3), 1, 0, 0]), [1, 2, 3, 4, 6, 7, 500]), "phi_plain", 2)
    @example((indicator_support(table_psi([1.0] * 40), "primorial_multiples", 2), [5, 6, 36, 40, 41, 90]), "plain", 1)
    @example((indicator_support(power_log(0, -400, 0), "multiples_of", 40), [20, 39]), "plain", 1)
    @example((conditional_psi(indicator_support(power_log(1, 1, 0), "multiples_of", 7), [0.5]), [6, 13, 14]), "plain", 1)
    @example(
        (padic_weighted_psi(indicator_support(power_log(1, 1, 0), "multiples_of", 3), [2], [("power", 200.0)]), [100]),
        "plain",
        1,
    )
    def test_scans_match_the_dense_scan(self, blocks, family_grid, kind, n):
        f, grid = family_grid
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            if blocks:
                mp.setattr(diolab.psi, "SCAN_BLOCK", blocks[0])
                mp.setattr(diolab.psi, "SIEVE_CHUNK", blocks[1])
            criterion = SumCriterion(kind, n)
            assert outcome(partial_sum_scan, f, criterion, grid) == outcome(dense_partial_sums, f, criterion, grid)
            assert outcome(cond1_scan, f, n, grid) == outcome(dense_cond1, f, n, grid)

    def test_a_modulus_past_int64_has_no_multiple(self):
        f = adversarial_primorial(16)  # the 16th primorial is about 3.3e19
        assert f.nonzero_support == (f.support.modulus, None) and f.support.modulus > 2**63
        assert not np.any(f.values(np.array([1, 2**62, 2**63 - 1])))
        assert partial_sum_scan(f, SumCriterion("phi_plain", 2), [1, 10**12]) == [(1, 0.0), (10**12, 0.0)]

    def test_a_sparse_scan_reads_only_the_support(self, monkeypatch):
        read, sieved = [], []
        values = IndicatorSupport.values
        monkeypatch.setattr(IndicatorSupport, "values", lambda f, qs: read.append(qs.copy()) or values(f, qs))
        monkeypatch.setattr(diolab.psi, "phi_segment", lambda *span: sieved.append(span) or phi_segment(*span))
        Q = 3 * SCAN_BLOCK * 210 + 5000  # four blocks, the last one short
        cond1_scan(adversarial_primorial(4), 2, [1, 209, 210, Q])
        qs = np.concatenate(read)
        assert np.array_equal(qs, np.arange(210, Q + 1, 210))
        assert sieved == [(1, Q // 210 + 1, 210)]

    def test_a_last_q_past_int64_raises(self):
        # a scan that would read a support q past 2**63 - 1 fails, instead of wrapping it to a
        # negative q that the mask zeroes; one whose support stops short of it runs at any Q
        f = indicator_support(power_log(1, 1, 0), "multiples_of", 10**18)
        for kind in ("plain", "phi_plain"):
            with pytest.raises(ValueError, match="past int64"):
                partial_sum_scan(f, SumCriterion(kind, 1), [10, 2 * 10**19])
        with pytest.raises(ValueError, match="past int64"):
            cond1_scan(f, 2, [2 * 10**19])
        harmonic = math.fsum(1 / (k * 10**18) for k in range(1, 10))
        assert partial_sum_scan(f, SumCriterion("plain", 1), [2**63 - 1])[0][1] == pytest.approx(harmonic, rel=1e-15)
        assert partial_sum_scan(table_psi([1, 0.5]), SumCriterion("phi_plain", 1), [2 * 10**19]) == [(2 * 10**19, 1.25)]


class TestClassify:
    def test_examples(self):
        assert power_log(1, 1, 0).divergence(SumCriterion("log_weighted", 2)) == DIVERGENT
        assert power_log(1, 1, 3).divergence(SumCriterion("log_weighted", 2)) == CONVERGENT
        assert table_psi([1.0, 0.5]).divergence(SumCriterion("plain", 1)) == UNKNOWN

    def test_power_log_rules(self):
        assert power_log(1, 0.5, 0).divergence(SumCriterion("plain", 1)) == DIVERGENT
        assert power_log(1, 2, 0).divergence(SumCriterion("plain", 1)) == CONVERGENT
        assert power_log(1, 1, 1).divergence(SumCriterion("plain", 1)) == DIVERGENT
        assert power_log(1, 1, 1.5).divergence(SumCriterion("plain", 1)) == CONVERGENT
        assert power_log(0, 1, 0).divergence(SumCriterion("plain", 1)) == CONVERGENT
        # log-weighted shifts the boundary by n-1
        assert power_log(1, 1, 2).divergence(SumCriterion("log_weighted", 2)) == DIVERGENT
        assert power_log(1, 1, 3.5).divergence(SumCriterion("log_weighted", 2)) == CONVERGENT

    def test_derived_families_unknown(self):
        f = adversarial_primorial(4)
        assert f.divergence(SumCriterion("plain", 1)) == UNKNOWN


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
