"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with:  pytest tests/test_acceptance.py -v -s

Every tolerance and scale is pinned here; nothing is deferred to later
calibration.  Monte Carlo criteria use fixed seeds, so they are
deterministic pass/fail checks, not flaky statistical ones.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from diolab.arith import euler_phi
from diolab.borel_cantelli import EventStats, bc_lower_bound
from diolab.cli import main as cli_main
from diolab.fibering import (
    DiscreteSpace,
    ProductSet,
    all_member_matrices,
    cross_fibering_check,
)
from diolab.harness import exact_event_stats_1d
from diolab.psi import adversarial_primorial, cond1_ratio, power_log
from diolab.regions import (
    product_region_measure_coprime,
    product_region_measure_plain,
    slice_union,
    truncated_union_1d,
    uniform_product_cdf,
)
from diolab.sampler import ExperimentConfig, estimate_union_measure, sample_points
from phi_reference import PhiTable as ReferenceTable


def report(criterion: str, detail: str, elapsed: float):
    print(f"PASS {criterion}: {detail} ({elapsed:.1f}s)")


def test_criterion_1_cross_fibering_exhaustive():
    """All 512 subsets of a 3x3 product space, 25 exact-rational weight pairs
    with zero-weight atoms: the biconditional holds in 100% of cases and both
    Fubini iteration orders agree exactly.  Runtime < 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260808)

    def random_space(zero: bool) -> DiscreteSpace:
        numers = [int(rng.integers(0 if zero else 1, 8)) for _ in range(3)]
        if zero and all(numers):
            numers[int(rng.integers(0, 3))] = 0
        if not any(numers):
            numers[0] = 1
        total = sum(numers)
        return DiscreteSpace((0, 1, 2), tuple(Fraction(v, total) for v in numers))

    weight_pairs = [(DiscreteSpace.uniform(3), DiscreteSpace.uniform(3))]
    while len(weight_pairs) < 25:
        zero = len(weight_pairs) % 2 == 0
        weight_pairs.append((random_space(zero), random_space(not zero)))
    assert any(
        0 in X.weights or 0 in Y.weights for X, Y in weight_pairs
    ), "zero-weight atoms must be exercised"

    checked = 0
    for member in all_member_matrices(3, 3):
        for X, Y in weight_pairs:
            rep = cross_fibering_check(ProductSet(X, Y, member))  # exact Fubini inside
            assert rep.equivalence_holds
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 512 * 25
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    report("criterion 1", f"{checked} exhaustive fibering checks, all equivalences hold", elapsed)


def test_criterion_2_closed_form_vs_monte_carlo():
    """product_region_measure_plain at (n=2, 1/8) equals (1/2)(1+ln 2); at
    (n=2, 1/8) and (n=3, 1e-2) it matches 1e6-sample Monte Carlo within
    4 sigma for q in {1, 2, 7, 360}.  Runtime < 30 s."""
    t0 = time.perf_counter()
    got = product_region_measure_plain(2, 0.125).value
    assert got == pytest.approx(0.5 * (1 + math.log(2)), rel=1e-12)

    n_samples = 1_000_000
    for n, delta, seed0 in ((2, 0.125, 100), (3, 1e-2, 200)):
        expected = uniform_product_cdf(n, (2.0**n) * delta)
        sigma = math.sqrt(expected * (1 - expected) / n_samples)
        for q in (1, 2, 7, 360):
            xs = sample_points(seed0 + q, 0, n_samples, n)
            z = float(q) * xs
            d = z - np.floor(z)
            np.minimum(d, 1.0 - d, out=d)
            prod = d[:, 0]
            for j in range(1, n):
                prod = prod * d[:, j]
            p_hat = np.count_nonzero(prod < delta) / n_samples
            assert abs(p_hat - expected) < 4 * sigma, (n, q, p_hat, expected)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    report("criterion 2", "closed form matches Monte Carlo within 4 sigma for q in {1,2,7,360}", elapsed)


def test_criterion_3_exact_coprime_slice_measures():
    """Interval-union measure equals 2 delta phi(q)/q within 1e-12 for all
    q <= 1e4 and delta in {1e-3, 1e-1}.  Runtime < 20 s."""
    t0 = time.perf_counter()
    table = ReferenceTable(10_000)  # the verbatim whole-range sieve, independent of phi_segment
    worst = 0.0
    for delta in (1e-3, 1e-1):
        for q in range(1, 10_001):
            swept = slice_union(q, delta, coprime=True).measure
            closed = 2.0 * delta * table.values[q] / q
            worst = max(worst, abs(swept - closed))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, f"worst deviation {worst:.3e}"
    assert elapsed < 20.0, f"runtime {elapsed:.1f}s exceeds 20s"
    report("criterion 3", f"2e4 swept slice measures, worst deviation {worst:.2e}", elapsed)


def test_criterion_4_sumcon_band():
    """For n=2, psi(q)=1/(4q), the ratio |H(psi,q)| / ((phi/q)^2 psi(q) ln q)
    stays inside a band of width <= factor 10 across a geometric grid in
    [16, 1e5]; the band endpoints are recorded in the report line."""
    t0 = time.perf_counter()
    grid = []
    q = 16.0
    while q < 1e5:
        grid.append(int(round(q)))
        q *= 1.9  # non-integer ratio mixes radicals along the grid
    grid.append(100_000)
    ratios = []
    for q in grid:
        delta = 1.0 / (4.0 * q)
        measure = product_region_measure_coprime(q, 2, delta, tol=1e-10).value
        predicted = (euler_phi(q) / q) ** 2 * delta * math.log(q)
        ratios.append(measure / predicted)
    lo, hi = min(ratios), max(ratios)
    elapsed = time.perf_counter() - t0
    assert hi / lo <= 10.0, f"band factor {hi/lo:.2f} exceeds 10"
    report(
        "criterion 4",
        f"band [{lo:.4f}, {hi:.4f}] (factor {hi/lo:.3f}) over {len(grid)} grid points",
        elapsed,
    )


def test_criterion_5_full_measure_evidence():
    """n=2, psi(q)=1/(4q) (known-divergent, cond1 holds): Monte Carlo measure
    of the union of slices q <= 1e4 with 1e5 samples is >= 0.95.
    Runtime < 5 min.  (psi(1)=1/4 already makes the first slice full, so the
    scan tops out immediately; the tail behavior is exercised separately.)"""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        family=power_log(0.25, 1.0, 0.0),
        n=2,
        mode="product",
        coprime=True,
        Q0=1,
        Q=10_000,
        samples=100_000,
        seed=55501,
        q_grid=(10_000,),
    )
    [(_, est)] = estimate_union_measure(cfg)
    elapsed = time.perf_counter() - t0
    assert est.value >= 0.95, f"union estimate {est.value}"
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5 min"
    report("criterion 5", f"union estimate {est.value:.4f} >= 0.95 at Q=1e4, 1e5 samples", elapsed)


def test_criterion_6_convergence_side():
    """n=2, psi(q) = 1/(q log(q+1)^3): the Monte Carlo tail-union estimate
    over q in [1e3, 1e5] is below the exact tail sum of slice measures, and
    that sum is < 0.25."""
    t0 = time.perf_counter()
    fam = power_log(1.0, 1.0, 3.0)
    tail_sum = 0.0
    qs = np.arange(1_000, 100_001)
    for q, delta in zip(qs.tolist(), fam.values(qs).tolist()):
        tail_sum += product_region_measure_coprime(q, 2, delta, tol=1e-10).value
    assert tail_sum < 0.25, f"exact tail sum {tail_sum:.4f}"
    cfg = ExperimentConfig(
        family=fam,
        n=2,
        mode="product",
        coprime=True,
        Q0=1_000,
        Q=100_000,
        samples=30_000,
        seed=60601,
        q_grid=(100_000,),
    )
    [(_, est)] = estimate_union_measure(cfg)
    elapsed = time.perf_counter() - t0
    assert est.value <= tail_sum, f"estimate {est.value:.4f} vs tail sum {tail_sum:.4f}"
    report(
        "criterion 6",
        f"tail union {est.value:.4f} <= exact tail sum {tail_sum:.4f} < 0.25",
        elapsed,
    )


def test_criterion_7_second_moment_machinery():
    """Synthetic independent events mu(E_k)=1/k up to Q=1e5: the bound matches
    the analytic double-sum oracle to 1e-12 and is non-decreasing toward
    >= 0.9 along the geometric grid (from Q=16, past the early dip).  On the
    all-exact 1-D pipeline (psi=1/(4q), coprime) the bound is positive and
    bounded by the exact truncated-union measure at every checkpoint."""
    t0 = time.perf_counter()
    Q = 100_000
    mu = 1.0 / np.arange(1, Q + 1)
    stats = EventStats(mu, "independence")
    grid = [16 * 2**k for k in range(13)] + [Q]
    prev = 0.0
    for qc in grid:
        got = bc_lower_bound(stats, qc)
        s1 = mu[:qc].sum()
        s2 = (mu[:qc] ** 2).sum()
        analytic = s1 * s1 / (s1 + s1 * s1 - s2)
        assert abs(got - analytic) <= 1e-12
        assert got >= prev - 1e-15, f"bound decreased at Q={qc}"
        prev = got
    assert prev >= 0.9, f"final bound {prev:.4f}"

    f = power_log(0.25, 1.0, 0.0)
    exact_stats = exact_event_stats_1d(f, 1, 512, coprime=True)
    for qc in (2, 4, 8, 16, 32, 64, 128, 256, 512):
        bound = bc_lower_bound(exact_stats, qc)
        union = truncated_union_1d(f, 1, qc, coprime=True).value
        assert bound > 0.0
        assert bound <= union + 1e-12, f"Q={qc}: bound {bound} vs union {union}"
    elapsed = time.perf_counter() - t0
    report(
        "criterion 7",
        f"synthetic bound -> {prev:.4f} (matches analytic to 1e-12); exact 1-D bound below union",
        elapsed,
    )


def test_criterion_8_cond1_calibration():
    """cond1_ratio(psi=1, n=1, Q=1e6) is within 1e-3 of 6/pi^2; the
    primorial-supported adversarial family stays below 0.1 at Q=1e6 (run at
    n=2: no q <= 1e6 has phi(q)/q < 0.1, so the n=1 reading is unattainable
    for any family)."""
    t0 = time.perf_counter()
    ratio = cond1_ratio(power_log(1.0, 0.0, 0.0), 1, 10**6)
    target = 6.0 / math.pi**2
    assert abs(ratio - target) < 1e-3, f"{ratio} vs {target}"
    adversarial = adversarial_primorial(4)  # support on multiples of 210
    adv_ratio = cond1_ratio(adversarial, 2, 10**6)
    assert adv_ratio < 0.1, f"adversarial ratio {adv_ratio}"
    elapsed = time.perf_counter() - t0
    report(
        "criterion 8",
        f"cond1 ratio {ratio:.6f} ~ 6/pi^2, adversarial ratio {adv_ratio:.4f} < 0.1",
        elapsed,
    )


def test_criterion_9_worker_determinism(tmp_path):
    """Re-running an experiment with the same seed and 1, 4, and 16 workers
    produces byte-identical CSV output."""
    t0 = time.perf_counter()
    battery = {
        "schema_version": 1,
        "name": "determinism",
        "experiments": [
            {
                "name": "probe",
                "family": {"family": "power_log", "c": 0.25, "a": 1.0, "b": 0.0},
                "n": 2,
                "mode": "product",
                "coprime": True,
                "Q0": 2,
                "Q": 512,
                "samples": 20_000,
                "seed": 777,
                "q_grid": None,
                "expect": "exploratory",
            }
        ],
    }
    cfg_path = tmp_path / "battery.json"
    cfg_path.write_text(json.dumps(battery))
    blobs = {}
    for workers in (1, 4, 16):
        out_dir = tmp_path / f"w{workers}"
        code = cli_main(
            ["--workers", str(workers), "experiment", str(cfg_path), "--out", str(out_dir)]
        )
        assert code == 0
        blobs[workers] = (out_dir / "determinism-probe.csv").read_bytes()
    assert blobs[1] == blobs[4] == blobs[16]
    elapsed = time.perf_counter() - t0
    report("criterion 9", "CSV byte-identical across 1, 4, and 16 workers", elapsed)
