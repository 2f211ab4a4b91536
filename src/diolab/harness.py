"""Pre-assembled experiment batteries: dichotomy scans, second-moment evidence,
and weighted solution-count experiments.

Classification thresholds (full-trending above 0.95, null-trending below
0.05 at the battery's sample size) are harness conventions.  Tail unions
(Q0 well above 1) are the preferred dichotomy display: the first few slices
have large measure and mask convergence behavior entirely.

Every report embeds the config hash, seed, and generator id, and carries an
epistemic disclaimer: full-trending at a finite truncation is evidence, not
a full-measure statement.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import ClassVar, Sequence

import numpy as np

from .arith import euler_phi, range_array
from .borel_cantelli import EventStats, bc_lower_bound
from .psi import (
    CONVERGENT,
    DIVERGENT,
    ApproxFunction,
    SumCriterion,
    padic_weighted_psi,
    partial_sum_scan,
    power_log,
)
from .regions import RegionSpec, _key_bound, intersection_matrix, region_measure, slice_union, truncated_union_1d
from .sampler import (
    GENERATOR_ID,
    ExperimentConfig,
    depth_counts,
    estimate_union_measure,
    sample_points,
    solution_counts,
)

__all__ = [
    "Battery",
    "BatteryEntry",
    "BcEvidenceReport",
    "DISCLAIMER",
    "DichotomyReport",
    "PadicReport",
    "exact_event_stats_1d",
    "run_bc_evidence",
    "run_dichotomy_scan",
    "run_padic",
    "theorem2_demo_battery",
]

DISCLAIMER = (
    "finite-truncation estimates are evidence only; no full-measure claim is implied"
)

# a tagged expectation: the divergence its criterion must be known to have, and the classification it predicts
EXPECTED = {"expect-full": (DIVERGENT, "full-trending"), "expect-null": (CONVERGENT, "null-trending")}


@dataclass(frozen=True)
class BatteryEntry:
    """One experiment with its expected outcome and the metadata citing it."""

    name: str
    config: ExperimentConfig
    expect: str = "exploratory"
    justification: SumCriterion | None = None

    def __post_init__(self):
        if self.expect not in (*EXPECTED, "exploratory"):
            raise ValueError(f"unknown expectation {self.expect!r}")
        if self.expect in EXPECTED:
            divergence = EXPECTED[self.expect][0]
            if self.justification is None or self.config.family.divergence(self.justification) != divergence:
                raise ValueError(f"entry {self.name!r}: {self.expect} must cite a {divergence} criterion")

    def to_dict(self) -> dict:
        d = {"name": self.name, "expect": self.expect}
        d.update(self.config.to_dict())
        if self.justification is not None:
            d["justification"] = {"kind": self.justification.kind, "n": self.justification.n}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BatteryEntry":
        if not isinstance(d, dict):
            raise ValueError(f"an experiment must be an object, not {type(d).__name__}")
        just = d.get("justification")
        return cls(
            name=d["name"],
            config=ExperimentConfig.from_dict(d),
            expect=d.get("expect", "exploratory"),
            justification=SumCriterion(just["kind"], just["n"]) if just else None,
        )


@dataclass(frozen=True)
class Battery:
    name: str
    entries: tuple
    threshold_lo: float = 0.05
    threshold_hi: float = 0.95

    def __post_init__(self):
        if not 0.0 <= self.threshold_lo < self.threshold_hi <= 1.0:
            raise ValueError("need 0 <= threshold_lo < threshold_hi <= 1")

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "name": self.name,
            "threshold_lo": self.threshold_lo,
            "threshold_hi": self.threshold_hi,
            "experiments": [e.to_dict() for e in self.entries],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Battery":
        if not isinstance(d, dict):
            raise ValueError(f"a config must be an object, not {type(d).__name__}")
        if d.get("schema_version") != 1:
            raise ValueError("config field 'schema_version' missing or unsupported")
        return cls(
            name=d.get("name", "battery"),
            entries=tuple(BatteryEntry.from_dict(e) for e in d["experiments"]),
            threshold_lo=float(d.get("threshold_lo", 0.05)),
            threshold_hi=float(d.get("threshold_hi", 0.95)),
        )


@dataclass
class EntryResult:
    name: str
    checkpoints: list
    classification: str
    config_hash: str


@dataclass
class DichotomyReport:
    battery: str
    results: list
    anomalies: list
    generator: ClassVar[str] = GENERATOR_ID
    disclaimer: ClassVar[str] = DISCLAIMER


def _classify_estimate(value: float, lo: float, hi: float) -> str:
    if value >= hi:
        return "full-trending"
    if value <= lo:
        return "null-trending"
    return "inconclusive"


def run_dichotomy_scan(battery: Battery, workers: int = 1) -> DichotomyReport:
    """Tail-union estimates per entry with a final three-way classification.

    Inconclusive is a valid outcome; an anomaly is flagged only when a tagged
    expectation is contradicted or left unresolved at the battery's scale.
    """
    results = []
    anomalies = []
    for entry in battery.entries:
        points = estimate_union_measure(entry.config, workers=workers)
        final = points[-1][1].value
        cls = _classify_estimate(final, battery.threshold_lo, battery.threshold_hi)
        results.append(EntryResult(entry.name, points, cls, entry.config.config_hash()))
        if entry.expect in EXPECTED and cls != (want := EXPECTED[entry.expect][1]):
            anomalies.append(f"{entry.name}: expected {want}, got {cls} ({final:.6g})")
    return DichotomyReport(battery.name, results, anomalies)


# ---------------------------------------------------------------------------
# second-moment evidence


def exact_event_stats_1d(
    f: ApproxFunction, Q0: int, Q: int, coprime: bool = True
) -> EventStats:
    """1-D event system from interval geometry: float singles and pairs, no sampling.

    Events are the slices of the family's ``support_range(Q0, Q)``, in q order.
    ``intersection_matrix`` builds the pairs in one sweep over the intervals
    of all slices, bit for bit those of ``intersection_measure``: float sums
    of their components from left to right, not exact values.  An empty
    slice gives a zero row and column.  psi comes from ``f.values``, the
    float psi.  ``truncated_union_1d`` sweeps the same psi exactly, as the
    rationals of those floats, for every family but a ``TablePsi`` with int
    or Fraction entries, whose entries it reads as written: there the
    bound's slices are those of the rounded entries.
    """
    qs = f.support_range(Q0, Q)
    psis = f.values(range_array(qs)).tolist()
    unions = [slice_union(q, d, coprime=coprime) for q, d in zip(qs, psis)]
    pairs = intersection_matrix(unions)
    return EventStats(pairs.diagonal().copy(), pairs)


def _exceeds_exact_union(stats: EventStats, k: int, qs: range, psis: list, union: float) -> bool:
    """Whether the bound of the exact measures of the first k events of ``exact_event_stats_1d`` exceeds union.

    union is rounded once, so its rational is at most union / (1 - u).  Each float key of slice q lies
    within kb = ``_key_bound`` of its rational, slice q has at most 3q + 1 intervals, and a measure of
    unions or of their intersections moves by at most the moves of its endpoints: the exact sums of the
    float components lie within E1 = 2 kb sum(3q + 1) of S1 (singles) and within 2k E1 of S2 (pairs).
    Each component passes through at most n = 6 q_k + k**2 + 3 roundings (its subtraction, its entry's
    left sum, the sum of the entries), so each float sum of these non-negative terms lies within a
    factor 1 -+ g of the exact one, g = n u / (1 - n u).  The exact bound is then at least
    (S1 / (1 + g) - E1)**2 / (S2 / (1 - g) + 2k E1).
    """
    u = Fraction(1, 2**53)
    n = 6 * qs[k - 1] + k * k + 3
    g = n * u / (1 - n * u)
    e1 = 2 * Fraction(_key_bound(max(d / q for q, d in zip(qs[:k], psis)))) * (3 * sum(qs[:k]) + k)
    s1 = max(Fraction(float(np.sum(stats.singles[:k]))) / (1 + g) - e1, 0)
    s2 = Fraction(stats.pair_sum(k)) / (1 - g) + 2 * k * e1
    return s1 * s1 / s2 > Fraction(union) / (1 - u)


@dataclass
class BcEvidenceReport:
    checkpoints: list
    bound_curve: list
    union_curve: list
    sumcon_table: list
    anomalies: list
    pair_source: str
    config_hash: str
    generator: ClassVar[str] = GENERATOR_ID
    disclaimer: ClassVar[str] = DISCLAIMER


def run_bc_evidence(
    cfg: ExperimentConfig,
    pair_source: str = "independence",
    workers: int = 1,
) -> BcEvidenceReport:
    """Second-moment bound vs union measure along the checkpoint grid.

    pair_source selects where intersection measures come from:
    "independence" (analytic model), "exact-1d" (interval geometry, n = 1
    only), or "monte-carlo" (exact singles plus the pairs of per-sample
    depths, ``depth_counts`` over the union curve's cfg.samples points).
    Events are the q of the family's ``support_range(Q0, Q)``.
    The bound must stay below the union measure at every checkpoint;
    violations beyond 3 CI widths, or for exact-1d beyond the rounding of
    the float bound, are flagged as anomalies, never silently dropped.
    """
    if pair_source not in ("independence", "exact-1d", "monte-carlo"):
        raise ValueError(f"unknown pair source {pair_source!r}")
    if pair_source == "exact-1d" and cfg.n != 1:
        raise ValueError("exact-1d pair source requires n = 1")
    qs = cfg.family.support_range(cfg.Q0, cfg.Q)
    psis = cfg.family.values(range_array(qs)).tolist()

    def single(q: int, d: float) -> float:  # every branch of region_measure gives 0.0 at delta = 0
        return region_measure(RegionSpec(q, cfg.n, d, cfg.mode, cfg.coprime)).value if d > 0.0 else 0.0

    if pair_source == "exact-1d":
        stats = exact_event_stats_1d(cfg.family, cfg.Q0, cfg.Q, cfg.coprime)
        union_curve = [
            (qc, truncated_union_1d(cfg.family, cfg.Q0, qc, cfg.coprime))
            for qc in cfg.checkpoints
        ]
    else:
        singles = np.array([single(q, d) for q, d in zip(qs, psis)])
        if pair_source == "independence":
            stats = EventStats(singles, "independence")
        else:
            _, new = depth_counts(qs, cfg.family, cfg.n, cfg.mode, cfg.coprime, cfg.samples, cfg.seed, workers)
            stats = EventStats(singles, np.cumsum(singles) + [p / cfg.samples for p in accumulate(new)])
        union_curve = estimate_union_measure(cfg, workers=workers)
    # the events at or below each checkpoint; with none of positive measure the union is empty, and 0 bounds it
    counts = [bisect_right(qs, qc) for qc in cfg.checkpoints]
    bounds = [bc_lower_bound(stats, k) if stats.singles[:k].any() else 0.0 for k in counts]
    bound_curve = list(zip(cfg.checkpoints, bounds))
    anomalies = []
    for (qc, bound), (_, union), k in zip(bound_curve, union_curve, counts):
        if pair_source == "exact-1d":  # the float bound against the exact union: flagged beyond its rounding
            flagged = bound > 0.0 and _exceeds_exact_union(stats, k, qs, psis, union.value)
        else:
            flagged = bound > union.value + 3.0 * union.ci_width
        if flagged:
            anomalies.append(f"Q={qc}: bound {bound:.6g} exceeds union estimate {union.value:.6g} + 3ci")
    sumcon_table = []
    for qc, d in zip(cfg.checkpoints, cfg.family.values(np.asarray(cfg.checkpoints, dtype=np.int64)).tolist()):
        m = single(qc, d)
        phi_ratio = euler_phi(qc) / qc
        pred = (phi_ratio**cfg.n) * d * (np.log(qc) ** (cfg.n - 1))
        sumcon_table.append((qc, m, float(pred), m / pred if pred > 0 else float("nan")))
    return BcEvidenceReport(
        checkpoints=list(cfg.checkpoints),
        bound_curve=bound_curve,
        union_curve=union_curve,
        sumcon_table=sumcon_table,
        anomalies=anomalies,
        pair_source=pair_source,
        config_hash=cfg.config_hash(),
    )


# ---------------------------------------------------------------------------
# weighted solution-count experiments


@dataclass
class PadicReport:
    alphas: list
    count_curves: list
    sum_curve: list
    config_hash: str
    generator: ClassVar[str] = GENERATOR_ID
    disclaimer: ClassVar[str] = DISCLAIMER


def run_padic(
    cfg: ExperimentConfig,
    primes: Sequence[int],
    weights: Sequence,
    n_alphas: int = 5,
) -> PadicReport:
    """Solution counts of the weighted inequality for sampled points.

    The weighted inequality divides psi by the prime-power weights and is
    evaluated NON-strictly (the source statement uses <=), unlike the strict
    set memberships elsewhere; identity weights reduce to the plain counter.
    """
    weighted = padic_weighted_psi(cfg.family, primes, weights)
    pts = sample_points(cfg.seed, 0, n_alphas, cfg.n)
    grid = list(cfg.checkpoints)
    curves = []
    for i in range(n_alphas):
        curves.append(solution_counts(pts[i], weighted, grid, mode="product", coprime=False, strict=False))
    sums = partial_sum_scan(weighted, SumCriterion("log_weighted", cfg.n), grid)
    return PadicReport(
        alphas=[tuple(p) for p in pts.tolist()],
        count_curves=curves,
        sum_curve=sums,
        config_hash=cfg.config_hash(),
    )


# ---------------------------------------------------------------------------
# shipped battery


def theorem2_demo_battery(samples: int = 4000, seed: int = 20260808) -> Battery:
    """Tail-union dichotomy demo: one divergent and one convergent entry.

    Scales were chosen by pilot runs so the divergent entry clears the
    full-trending threshold and the convergent tail stays null-trending in a
    few seconds of sampling.
    """
    divergent = BatteryEntry(
        name="divergent-n2",
        config=ExperimentConfig(
            family=power_log(0.25, 1.0, 0.0),
            n=2,
            mode="product",
            coprime=True,
            Q0=100,
            Q=2000,
            samples=samples,
            seed=seed,
        ),
        expect="expect-full",
        justification=SumCriterion("log_weighted", 2),
    )
    convergent = BatteryEntry(
        name="convergent-tail-n2",
        config=ExperimentConfig(
            family=power_log(1.0, 1.0, 4.0),
            n=2,
            mode="product",
            coprime=True,
            Q0=1000,
            Q=4000,
            samples=samples,
            seed=seed + 1,
        ),
        expect="expect-null",
        justification=SumCriterion("log_weighted", 2),
    )
    return Battery("theorem2-demo", (divergent, convergent))
