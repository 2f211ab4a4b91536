import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import beta, binom, norm

import diolab
from diolab.measure import EXACT_CI_HITS, EXACT_CI_SAMPLES, MeasureEstimate, binomial_ci

CONFIDENCES = (0.9, 0.95, 0.99)


def exact_branch(hits: int, samples: int) -> bool:
    return min(hits, samples - hits) < EXACT_CI_HITS or samples < EXACT_CI_SAMPLES


def clopper_pearson(hits: int, samples: int, confidence: float) -> tuple[float, float]:
    """Clopper-Pearson bounds as scipy.stats beta quantiles."""
    alpha = 1.0 - confidence
    lo = 0.0 if hits == 0 else float(beta.ppf(alpha / 2, hits, samples - hits + 1))
    hi = 1.0 if hits == samples else float(beta.ppf(1 - alpha / 2, hits + 1, samples - hits))
    return lo, hi


def wilson_cc(hits: int, samples: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval with continuity correction (Newcombe 1998, method 4)."""
    n, p = samples, hits / samples
    z = float(norm.ppf(1 - (1.0 - confidence) / 2))
    lo = (2 * n * p + z * z - 1 - z * math.sqrt(z * z - 2 - 1 / n + 4 * p * (n * (1 - p) + 1))) / (2 * (n + z * z))
    hi = (2 * n * p + z * z + 1 + z * math.sqrt(z * z + 2 - 1 / n + 4 * p * (n * (1 - p) - 1))) / (2 * (n + z * z))
    return max(0.0, lo), min(1.0, hi)


def previous_ci(hits: int, samples: int, confidence: float) -> tuple[float, float]:
    """The interval diolab used before Wilson: Clopper-Pearson below 30 hits or misses, else Wald."""
    if min(hits, samples - hits) < EXACT_CI_HITS:
        return clopper_pearson(hits, samples, confidence)
    p = hits / samples
    half = float(norm.ppf(1 - (1.0 - confidence) / 2)) * math.sqrt(p * (1.0 - p) / samples)
    return max(0.0, p - half), min(1.0, p + half)


def grid_hits(samples: int) -> list[int]:
    # 0..40 from both ends: crosses the EXACT_CI_HITS = 30 switch on each side
    edge = range(0, min(40, samples) + 1)
    return sorted(set(edge) | {samples - h for h in edge} | {samples // 2})


class TestBinomialCiOracle:
    @pytest.mark.parametrize("samples", [1, 2, 29, 30, 59, 60, 1000, 20000, 10**7])
    def test_clopper_pearson_matches_beta_ppf(self, samples):
        # scipy's betaincinv is itself off by up to ~1e-10 relative at samples = 1e7
        # (a 60-digit binomial sum agrees with binomial_ci to ~6e-16 there)
        for hits in grid_hits(samples):
            if not exact_branch(hits, samples):
                continue
            for confidence in CONFIDENCES:
                got = binomial_ci(hits, samples, confidence)
                want = clopper_pearson(hits, samples, confidence)
                assert got == pytest.approx(want, rel=1e-9, abs=0.0), (hits, samples, confidence)

    @pytest.mark.parametrize("samples", [EXACT_CI_SAMPLES, 121, 1000, 20000, 10**7])
    def test_wilson_matches_norm_ppf_closed_form(self, samples):
        for hits in grid_hits(samples):
            if exact_branch(hits, samples):
                continue
            for confidence in CONFIDENCES:
                got = binomial_ci(hits, samples, confidence)
                want = wilson_cc(hits, samples, confidence)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (hits, samples, confidence)


def coverage(ci, samples: int, confidence: float, ps: np.ndarray) -> np.ndarray:
    """Exact coverage P(lo(X) <= p <= hi(X)) of an interval at each p, X ~ Binomial(samples, p)."""
    bounds = np.array([ci(k, samples, confidence) for k in range(samples + 1)])
    inside = (bounds[:, :1] <= ps) & (ps <= bounds[:, 1:])
    pmf = binom.pmf(np.arange(samples + 1)[:, None], samples, ps)
    return (pmf * inside).sum(axis=0)


COVERAGE_PS = np.linspace(0.0, 1.0, 2001)[1:-1]


class TestBinomialCiCoverage:
    @pytest.mark.parametrize("samples", [1, 2, 5, 13, 29, 30, 59, 60, 100, EXACT_CI_SAMPLES - 1])
    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_exact_branch_covers_at_least_nominal(self, samples, confidence):
        # every hit count is on the Clopper-Pearson branch below EXACT_CI_SAMPLES
        assert all(exact_branch(k, samples) for k in range(samples + 1))
        cover = coverage(binomial_ci, samples, confidence, COVERAGE_PS)
        assert cover.min() >= confidence - 1e-12

    @pytest.mark.parametrize("samples", [EXACT_CI_SAMPLES, 150, 200])
    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_bulk_covers_no_worse_than_the_previous_interval(self, samples, confidence):
        now = coverage(binomial_ci, samples, confidence, COVERAGE_PS).min()
        before = coverage(previous_ci, samples, confidence, COVERAGE_PS).min()
        assert now >= before


class TestBinomialCiValidation:
    @pytest.mark.parametrize("confidence", [0.0, -0.1, 1.0, 1.5, math.nan, math.inf])
    def test_confidence_outside_open_unit_interval(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            binomial_ci(5, 100, confidence)

    def test_monte_carlo_estimate_carries_the_95_percent_interval(self):
        est = MeasureEstimate.monte_carlo(5, 100, seed=1, generator="x")
        assert (est.ci_low, est.ci_high) == binomial_ci(5, 100, 0.95)

    def test_samples_and_hits(self):
        with pytest.raises(ValueError):
            binomial_ci(0, 0)
        with pytest.raises(ValueError):
            binomial_ci(5, 4)
        with pytest.raises(ValueError):
            binomial_ci(-1, 4)


def hits_in(samples: int):
    """Hit counts weighted towards both scarce tails, where the exact branch lives."""
    tail = 2 * EXACT_CI_HITS
    return st.one_of(
        st.integers(0, min(tail, samples)),
        st.integers(max(0, samples - tail), samples),
        st.integers(0, samples),
    )


@st.composite
def counts(draw, k: int = 1):
    samples = draw(st.integers(1, 10**7))
    return samples, *(draw(hits_in(samples)) for _ in range(k))


confidence_st = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def adjacent_hits(draw):
    """(samples, hits < samples), often one hit short of the exact/Wilson switch on either side.

    Non-decreasing from each hit count to the next is non-decreasing across the whole range.
    """
    samples = draw(st.one_of(st.integers(2, 10**7), st.integers(2 * EXACT_CI_HITS, 8 * EXACT_CI_HITS)))
    switch = [h for h in (EXACT_CI_HITS - 1, samples - EXACT_CI_HITS) if 0 <= h < samples]
    if switch and draw(st.booleans()):
        return samples, draw(st.sampled_from(switch))
    return samples, draw(hits_in(samples - 1))


class TestBinomialCiProperties:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(counts(), confidence_st)
    def test_interval_brackets_estimate(self, sh, confidence):
        samples, hits = sh
        lo, hi = binomial_ci(hits, samples, confidence)
        assert 0.0 <= lo <= hits / samples <= hi <= 1.0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(counts(k=2), confidence_st)
    def test_lower_bound_monotone_in_hits_within_each_branch(self, shh, confidence):
        samples, h1, h2 = shh
        h1, h2 = sorted((h1, h2))
        if exact_branch(h1, samples) != exact_branch(h2, samples):
            # crossing the exact/Wilson switch is covered by the property below
            h2 = h1
        assert binomial_ci(h1, samples, confidence)[0] <= binomial_ci(h2, samples, confidence)[0]

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(adjacent_hits(), st.one_of(confidence_st, st.integers(1, 53).map(lambda e: 1.0 - 2.0**-e)))
    # Wilson alone from 30 hits is narrower than Clopper-Pearson at 29 here
    @example((80, EXACT_CI_HITS - 1), 1 - 1e-9)
    @example((80, 80 - EXACT_CI_HITS), 1 - 1e-9)
    def test_bounds_monotone_in_hits_across_the_whole_range(self, sh, confidence):
        samples, hits = sh
        lo1, hi1 = binomial_ci(hits, samples, confidence)
        lo2, hi2 = binomial_ci(hits + 1, samples, confidence)
        assert lo1 <= lo2 and hi1 <= hi2

    @pytest.mark.parametrize("confidence", [0.95, 0.99])
    @pytest.mark.parametrize("hits", [EXACT_CI_HITS - 1, 1000 - EXACT_CI_HITS])
    def test_lower_bound_monotone_across_exact_switch(self, hits, confidence):
        # hits -> hits + 1 crosses the switch: exact -> Wilson, then Wilson -> exact
        n = 1000
        assert binomial_ci(hits, n, confidence)[0] <= binomial_ci(hits + 1, n, confidence)[0]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        confidence=st.one_of(
            st.floats(max_value=0.0),
            st.floats(min_value=1.0),
            st.just(math.nan),
        )
    )
    def test_rejects_confidence_outside_open_unit_interval(self, confidence):
        with pytest.raises(ValueError):
            binomial_ci(1, 2, confidence)


def generic_numeric(value, error_bound) -> MeasureEstimate:
    return MeasureEstimate(value=float(value), provenance="numeric-exact", error_bound=float(error_bound))


class TestNumericEstimate:
    """``MeasureEstimate.numeric`` skips the generic constructor and must not be told apart from it."""

    @pytest.mark.parametrize(
        "value, bound",
        [(0.0, 0.0), (0.3, 1e-17), (1.0, 5e-324), (-1e-12, 1e-12), (1.0 + 1e-12, 0.0), (1, 0),
         (np.float64(0.25), np.float64(2.0**-60)), (5e-324, 1e-300)],
    )
    def test_equals_the_generic_constructor(self, value, bound):
        light, generic = MeasureEstimate.numeric(value, bound), generic_numeric(value, bound)
        assert light == generic and hash(light) == hash(generic) and repr(light) == repr(generic)
        assert dataclasses.asdict(light) == dataclasses.asdict(generic)
        assert dataclasses.replace(light) == generic
        assert dataclasses.replace(light, value=0.5, samples=3) == dataclasses.replace(generic, value=0.5, samples=3)
        for name in ("value", "error_bound"):
            assert type(getattr(light, name)) is float
            assert getattr(light, name).hex() == getattr(generic, name).hex()

    @pytest.mark.parametrize("value", [1.0 + 2e-12, -2e-12, math.nan, np.float64(math.nan)])
    def test_rejects_what_the_generic_constructor_rejects(self, value):
        with pytest.raises(ValueError) as light:
            MeasureEstimate.numeric(value, 0.0)
        with pytest.raises(ValueError) as generic:
            generic_numeric(value, 0.0)
        assert str(light.value) == str(generic.value)

    def test_stays_frozen(self):
        e = MeasureEstimate.numeric(0.5, 1e-16)
        for name in ("value", "provenance", "error_bound", "samples", "generator"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(e, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(e, name)
        assert e == generic_numeric(0.5, 1e-16)

    def test_keeps_no_more_bytes_than_the_generic_constructor(self):
        # each kind in a fresh process, as a long run of one kind is made, since CPython sizes an
        # instance's attributes by the names its class's earlier instances stored
        def kept(kind: str) -> int:
            code = (
                "import tracemalloc\n"
                "from diolab.measure import MeasureEstimate as M\n"
                "values = [i / 4096 for i in range(4096)]\n"
                "make = {'numeric': M.numeric, 'generic': lambda v, b: M(value=v, provenance='numeric-exact', error_bound=b)}\n"
                "tracemalloc.start()\n"
                f"estimates = [make[{kind!r}](v, v) for v in values]\n"
                "print(tracemalloc.get_traced_memory()[0] // len(estimates))\n"
            )
            src = str(Path(diolab.__file__).resolve().parent.parent)
            proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            return int(proc.stdout)

        assert kept("numeric") <= kept("generic")


def test_import_does_not_load_scipy_stats():
    src = str(Path(diolab.__file__).resolve().parent.parent)
    code = (
        "import sys, diolab, diolab.cli\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
