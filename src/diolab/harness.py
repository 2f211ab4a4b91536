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

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .arith import euler_phi
from .borel_cantelli import EventStats, bc_scan
from .psi import (
    CONVERGENT,
    DIVERGENT,
    ApproxFunction,
    SumCriterion,
    padic_weighted_psi,
    partial_sum_scan,
    power_log,
)
from .regions import RegionSpec, intersection_matrix, region_measure, slice_union, truncated_union_1d
from .sampler import (
    GENERATOR_ID,
    ExperimentConfig,
    estimate_union_measure,
    pair_hit_table,
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

EXPECTATIONS = ("expect-full", "expect-null", "exploratory")


@dataclass(frozen=True)
class BatteryEntry:
    """One experiment with its expected outcome and the metadata citing it."""

    name: str
    config: ExperimentConfig
    expect: str = "exploratory"
    justification: SumCriterion | None = None

    def __post_init__(self):
        if self.expect not in EXPECTATIONS:
            raise ValueError(f"unknown expectation {self.expect!r}")
        if self.expect == "expect-full":
            if self.justification is None or self.config.family.divergence(self.justification) != DIVERGENT:
                raise ValueError(
                    f"entry {self.name!r}: expect-full must cite a known-divergent criterion"
                )
        if self.expect == "expect-null":
            if self.justification is None or self.config.family.divergence(self.justification) != CONVERGENT:
                raise ValueError(
                    f"entry {self.name!r}: expect-null must cite a known-convergent criterion"
                )

    def to_dict(self) -> dict:
        d = {"name": self.name, "expect": self.expect}
        d.update(self.config.to_dict())
        if self.justification is not None:
            d["justification"] = {"kind": self.justification.kind, "n": self.justification.n}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BatteryEntry":
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
        if entry.expect == "expect-full" and cls != "full-trending":
            anomalies.append(f"{entry.name}: expected full-trending, got {cls} ({final:.6g})")
        if entry.expect == "expect-null" and cls != "null-trending":
            anomalies.append(f"{entry.name}: expected null-trending, got {cls} ({final:.6g})")
    return DichotomyReport(battery.name, results, anomalies)


# ---------------------------------------------------------------------------
# second-moment evidence


def exact_event_stats_1d(
    f: ApproxFunction, Q0: int, Q: int, coprime: bool = True
) -> EventStats:
    """All-exact 1-D event system: singles and pairs from interval geometry.

    ``intersection_matrix`` builds the pairs in one vectorised pass per row,
    bit for bit those of ``intersection_measure``; an empty slice gives a
    zero row and column.  psi comes from ``f.values``, the float psi.
    ``truncated_union_1d`` reads the same floats for every family but a
    rational ``TablePsi``, whose entries it sweeps exactly: there the
    bound's slices are those of the rounded entries, not the union's.
    """
    psis = f.values(np.arange(Q0, Q + 1, dtype=np.int64)).tolist()
    unions = [slice_union(q, d, coprime=coprime) for q, d in zip(range(Q0, Q + 1), psis)]
    pairs = intersection_matrix(unions)
    return EventStats(pairs.diagonal().copy(), pairs)


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
    only), or "monte-carlo" (one ``pair_hit_table`` over cfg.samples
    points, as many as the union curve takes, exact singles on the
    diagonal).  The bound must stay below the union measure at every
    checkpoint; violations beyond 3 CI widths are flagged as anomalies,
    never silently dropped.
    """
    if pair_source not in ("independence", "exact-1d", "monte-carlo"):
        raise ValueError(f"unknown pair source {pair_source!r}")
    if pair_source == "exact-1d" and cfg.n != 1:
        raise ValueError("exact-1d pair source requires n = 1")
    qs = list(range(cfg.Q0, cfg.Q + 1))
    psis = cfg.family.values(np.arange(cfg.Q0, cfg.Q + 1, dtype=np.int64)).tolist()
    if not any(p > 0.0 for p in psis):
        # no slice has positive threshold: nothing to bound, vacuous pass
        return BcEvidenceReport(
            checkpoints=list(cfg.checkpoints),
            bound_curve=[],
            union_curve=[],
            sumcon_table=[],
            anomalies=[],
            pair_source=pair_source,
            config_hash=cfg.config_hash(),
        )
    if pair_source == "exact-1d":
        stats = exact_event_stats_1d(cfg.family, cfg.Q0, cfg.Q, cfg.coprime)
        union_curve = [
            (qc, truncated_union_1d(cfg.family, cfg.Q0, qc, cfg.coprime))
            for qc in cfg.checkpoints
        ]
    else:
        singles = np.array(
            [
                region_measure(RegionSpec(q, cfg.n, d, cfg.mode, cfg.coprime)).value
                for q, d in zip(qs, psis)
            ]
        )
        if pair_source == "independence":
            stats = EventStats(singles, "independence")
        else:
            hits = pair_hit_table(
                qs, cfg.family, cfg.n, cfg.mode, cfg.coprime, cfg.samples, cfg.seed, workers
            )
            pairs = hits / cfg.samples
            np.fill_diagonal(pairs, singles)
            stats = EventStats(singles, pairs)
        union_curve = estimate_union_measure(cfg, workers=workers)
    positions = [qc - cfg.Q0 + 1 for qc in cfg.checkpoints]
    bound_points, _ = bc_scan(stats, positions)
    bound_curve = [(qc, b) for qc, (_, b) in zip(cfg.checkpoints, bound_points)]
    anomalies = []
    for (qc, bound), (_, union) in zip(bound_curve, union_curve):
        slack = 3.0 * union.ci_width
        if bound > union.value + slack:
            anomalies.append(
                f"Q={qc}: bound {bound:.6g} exceeds union estimate {union.value:.6g} + 3ci"
            )
    sumcon_table = []
    for qc in cfg.checkpoints:
        d = psis[qc - cfg.Q0]
        m = region_measure(RegionSpec(qc, cfg.n, d, cfg.mode, cfg.coprime)).value
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
