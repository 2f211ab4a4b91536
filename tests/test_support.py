"""Sparse families against dense oracles: every reader of ``support_range`` agrees with the same
family read at every q of [Q0, Q]."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from diolab.borel_cantelli import bc_lower_bound
from diolab.harness import exact_event_stats_1d, run_bc_evidence
from diolab.psi import ApproxFunction, conditional_psi, indicator_support, power_log, table_psi
from diolab.sampler import ExperimentConfig, estimate_union_measure, solution_counts

U = 2.0**-53


class Dense(ApproxFunction):
    """The oracle: f with no support declared, so each reader reads every q of [Q0, Q]."""

    def __init__(self, f: ApproxFunction):
        self.f = f

    def values(self, qs):
        return self.f.values(qs)

    def spec_dict(self) -> dict:
        return self.f.spec_dict()


def assert_bounds_close(got, want, terms):
    # numpy's pairwise sums meet the dense oracle's zeros at other places in their order: each of a bound's
    # two sums of at most ``terms`` non-negative terms lies within terms * u of the exact sum
    assert [qc for qc, _ in got] == [qc for qc, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a == b or abs(a - b) <= 8 * terms * U * max(a, b)


BASE = st.builds(power_log, st.sampled_from([0.02, 0.1, 0.3]), st.just(1.0), st.just(0.0))
FAMILIES = st.one_of(
    st.builds(lambda b, m: indicator_support(b, "multiples_of", m), BASE, st.integers(2, 12)),
    st.builds(lambda b, k: indicator_support(b, "primorial_multiples", k), BASE, st.integers(1, 2)),
    # zero entries inside the table, and trailing zeros that its support still covers
    st.lists(st.sampled_from([0.0, 0.0, 0.01, 0.05, 0.2]), min_size=1, max_size=40).map(
        lambda v: table_psi(v + [0.0, 0.0])
    ),
    st.builds(
        lambda b, m: conditional_psi(indicator_support(b, "multiples_of", m), [math.e - 2]), BASE, st.integers(2, 8)
    ),
)
SEVENS = indicator_support(power_log(0.1, 1, 0), "multiples_of", 7)
RANGES = dict(family=FAMILIES, Q0=st.integers(1, 40), span=st.integers(0, 80))
SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def test_support_range_reads_the_contract():
    assert SEVENS.support_range(10, 60) == range(14, 57, 7)
    assert SEVENS.support_range(1, 6) == range(7, 7, 7)
    assert table_psi([0.1, 0.0, 0.2]).support_range(2, 10**30) == range(2, 4)
    with pytest.raises(ValueError, match="past int64"):
        indicator_support(power_log(1, 1, 0), "multiples_of", 10**18).support_range(1, 10**19)


@SETTINGS
@given(**RANGES, n=st.integers(1, 2), mode=st.sampled_from(["product", "max"]), coprime=st.booleans())
@example(family=SEVENS, Q0=10, span=50, n=1, mode="product", coprime=True)  # Q0 > 1, not a multiple of 7
def test_union_estimates(family, Q0, span, n, mode, coprime):
    cfg = dict(n=n, mode=mode, coprime=coprime, Q0=Q0, Q=Q0 + span, samples=300, seed=Q0)
    got = estimate_union_measure(ExperimentConfig(family=family, **cfg))
    assert got == estimate_union_measure(ExperimentConfig(family=Dense(family), **cfg))


@SETTINGS
@given(
    family=FAMILIES, Q=st.integers(1, 120), x=st.lists(st.sampled_from([0.5, 0.25, 1 / 3, 0.1234, 0.7]), min_size=1, max_size=2),
    mode=st.sampled_from(["product", "max"]), coprime=st.booleans(), strict=st.booleans(),
)
def test_solution_counts(family, Q, x, mode, coprime, strict):
    grid = sorted({1, max(1, Q // 3), Q})
    got = solution_counts(x, family, grid, mode, coprime, strict)
    assert got == solution_counts(x, Dense(family), grid, mode, coprime, strict)


@SETTINGS
@given(**RANGES, coprime=st.booleans())
@example(family=SEVENS, Q0=10, span=50, coprime=True)
def test_exact_event_stats(family, Q0, span, coprime):
    Q = Q0 + span
    stats = exact_event_stats_1d(family, Q0, Q, coprime)
    dense = exact_event_stats_1d(Dense(family), Q0, Q, coprime)
    on = np.isin(np.arange(Q0, Q + 1), list(family.support_range(Q0, Q)))  # the dense rows of the support q
    assert stats.pairs.tobytes() == dense.pairs[np.ix_(on, on)].tobytes()
    assert not dense.pairs[~on].any()
    for qc in ExperimentConfig(family=family, n=1, Q0=Q0, Q=Q, samples=1, seed=0).checkpoints:
        k = len(family.support_range(Q0, qc))
        if stats.singles[:k].any():  # a checkpoint that holds an event
            assert_bounds_close(
                [(qc, bc_lower_bound(stats, k))], [(qc, bc_lower_bound(dense, qc - Q0 + 1))], (Q - Q0 + 1) ** 2
            )


@SETTINGS
@given(**RANGES, source=st.sampled_from(["exact-1d", "independence", "monte-carlo"]), n=st.integers(1, 2), coprime=st.booleans())
@example(family=SEVENS, Q0=10, span=50, source="exact-1d", n=1, coprime=True)
@example(family=SEVENS, Q0=10, span=50, source="monte-carlo", n=2, coprime=True)
def test_bc_evidence(family, Q0, span, source, n, coprime):
    n = 1 if source == "exact-1d" else n
    cfg = dict(n=n, coprime=coprime, Q0=Q0, Q=Q0 + span, samples=200, seed=Q0)
    got = run_bc_evidence(ExperimentConfig(family=family, **cfg), pair_source=source)
    want = run_bc_evidence(ExperimentConfig(family=Dense(family), **cfg), pair_source=source)
    assert got.union_curve == want.union_curve
    assert np.array_equal(got.sumcon_table, want.sumcon_table, equal_nan=True)
    assert_bounds_close(got.bound_curve, want.bound_curve, (span + 1) ** 2)
    if source == "exact-1d":
        assert got.anomalies == [] == want.anomalies
