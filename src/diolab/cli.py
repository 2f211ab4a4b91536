"""Command-line front end: experiment dispatch and deterministic emission.

Data files never embed wall-clock information; timestamps go to a sidecar
``.log`` file so runs with equal configs and seeds are byte-identical.
Every table row is ``_row`` of its cells: an int as written, a float with 12
significant digits (``fmt``), None as an empty field, and a ``MeasureEstimate``
as its ``ESTIMATE_FIELDS``, which the summary JSON's rows carry too.  Headers:
``CSV_HEADER`` (measure, union, experiment), ``q,partial_sum`` (sums),
``q,ratio,running_max`` (sums --cond1), ``q,bound,union,union_ci_low,union_ci_high``
(bc-bound) and ``alpha_index,q,count,weighted_log_sum`` (padic).  fiber-check
reports print exact rationals as numerator/denominator.
"""

from __future__ import annotations

import argparse
import itertools
import json
import operator
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .arith import euler_phi
from .errors import DiolabError
from .fibering import DiscreteSpace, ProductSet, _fiber_report, cross_fibering_check
from .harness import (
    Battery,
    run_bc_evidence,
    run_dichotomy_scan,
    run_padic,
    theorem2_demo_battery,
)
from .measure import MeasureEstimate
from .psi import (
    SumCriterion,
    WeightFn,
    adversarial_primorial,
    cond1_scan,
    family_from_spec,
    partial_sum_scan,
    power_log,
)
from .regions import RegionSpec, region_measure, truncated_union_1d
from .sampler import ExperimentConfig

ESTIMATE_FIELDS = ("measure", "provenance", "ci_low", "ci_high")
CSV_HEADER = ",".join(("q", "phi_q", "psi_q", *ESTIMATE_FIELDS))

BUILTIN_BATTERIES = {"theorem2-demo": theorem2_demo_battery}


def fmt(x: float) -> str:
    return f"{x:.12g}"


_estimate_cells = operator.attrgetter("value", "provenance", "ci_low", "ci_high")  # in ESTIMATE_FIELDS order


def _row(*cells) -> str:
    """One CSV line: ints and strings as written, floats by ``fmt``, None empty, an estimate as its four fields."""
    flat = itertools.chain.from_iterable(_estimate_cells(c) if isinstance(c, MeasureEstimate) else (c,) for c in cells)
    return ",".join("" if c is None else fmt(c) if isinstance(c, float) else str(c) for c in flat)


def _family_from_args(args) -> object:
    if getattr(args, "family_json", None):
        try:
            return family_from_spec(json.loads(args.family_json))
        except (json.JSONDecodeError, KeyError, ValueError, TypeError, ArithmeticError) as exc:
            raise SystemExit(f"error: bad --family-json: {exc}")
    name = getattr(args, "family", "power_log")
    if name == "power_log":
        return power_log(args.c, args.a, args.b)
    if name == "adversarial":
        return adversarial_primorial(int(args.k), args.c, args.a, args.b)
    raise SystemExit(f"error: unknown family {name!r}")


def _add_family_flags(p: argparse.ArgumentParser):
    p.add_argument("--family", default="power_log", choices=["power_log", "adversarial"])
    p.add_argument("--c", type=float, default=1.0, help="power_log coefficient")
    p.add_argument("--a", type=float, default=1.0, help="power_log q exponent")
    p.add_argument("--b", type=float, default=0.0, help="power_log log exponent")
    p.add_argument("--k", type=int, default=4, help="adversarial primorial index")
    p.add_argument("--family-json", help="full family spec as JSON (overrides --family)")


def _add_coprime_flags(p: argparse.ArgumentParser):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--coprime", action="store_true")
    g.add_argument("--plain", action="store_true")


# ---------------------------------------------------------------------------
# subcommands


def cmd_measure(args) -> int:
    spec = RegionSpec(
        q=args.q, n=args.n, delta=args.delta,
        mode=args.mode, coprime=bool(args.coprime),
    )
    est = region_measure(spec, tol=args.tol)
    print(CSV_HEADER)
    print(_row(args.q, euler_phi(args.q), args.delta, est))
    return 0


def cmd_union(args) -> int:
    fam = _family_from_args(args)
    print(CSV_HEADER)
    if args.grid:
        cfg = ExperimentConfig(family=fam, n=1, Q0=args.Q0, Q=args.Q, samples=1, seed=0)
        checkpoints = cfg.checkpoints
    else:
        checkpoints = (args.Q,)
    psis = fam.values(np.asarray(checkpoints, dtype=np.int64)).tolist()  # the psi each union reads
    for qc, psi_q in zip(checkpoints, psis):
        est = truncated_union_1d(fam, args.Q0, qc, coprime=bool(args.coprime))
        print(_row(qc, euler_phi(qc), psi_q, est))
    return 0


def cmd_sums(args) -> int:
    fam = _family_from_args(args)
    cfg = ExperimentConfig(family=fam, n=args.n, Q0=1, Q=args.Q, samples=1, seed=0)
    grid = cfg.checkpoints
    if args.cond1:
        points, _ = cond1_scan(fam, args.n, grid)
        print("q,ratio,running_max")
        running = itertools.accumulate((ratio for _, ratio in points), max, initial=0.0)
        next(running)  # the maximum starts from 0.0, so a nan first ratio reads 0, not nan
        for (qc, ratio), best in zip(points, running):
            print(_row(qc, ratio, best))
        return 0
    sums = partial_sum_scan(fam, SumCriterion(args.criterion, args.n), grid)
    print("q,partial_sum")
    for qc, s in sums:
        print(_row(qc, s))
    return 0


def cmd_bc_bound(args) -> int:
    fam = _family_from_args(args)
    cfg = ExperimentConfig(
        family=fam, n=args.n, mode="product", coprime=bool(args.coprime),
        Q0=args.Q0, Q=args.Q, samples=args.samples, seed=args.seed,
    )
    rep = run_bc_evidence(cfg, pair_source=args.pairs, workers=args.workers)
    print("q,bound,union,union_ci_low,union_ci_high")
    for (qc, bound), (_, union) in zip(rep.bound_curve, rep.union_curve):
        print(_row(qc, bound, union.value, union.ci_low, union.ci_high))
    for a in rep.anomalies:
        print(f"anomaly: {a}", file=sys.stderr)
    return 1 if rep.anomalies else 0


def cmd_fiber_check(args) -> int:
    if args.exhaustive is not None:
        k = args.exhaustive
        if not 1 <= k <= 4:
            raise SystemExit("error: --exhaustive size must be in [1, 4]")
        if args.weight_samples < 1:
            raise SystemExit("error: --weight-samples must be >= 1")
        rng = np.random.default_rng(args.seed)
        weight_pairs = [(DiscreteSpace.uniform(k), DiscreteSpace.uniform(k))]
        for _ in range(args.weight_samples - 1):
            weight_pairs.append((_random_space(k, rng), _random_space(k, rng)))
        # every k x k matrix as a tuple of row tuples, in the lexicographic order of its k*k flags
        subsets = itertools.product(itertools.product((False, True), repeat=k), repeat=k)
        failures = sum(
            not _fiber_report(rows, X, Y).equivalence_holds for rows in subsets for X, Y in weight_pairs
        )
        verdict = "all equivalences hold" if failures == 0 else f"{failures} FAILURES"
        print(f"{2**(k*k)} subsets x {len(weight_pairs)} weight pairs: {verdict}")
        return 0 if failures == 0 else 1
    try:
        payload = json.loads(Path(args.matrix_file).read_text())
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: matrix file parse error at line {exc.lineno} col {exc.colno}")
    if not isinstance(payload, dict):
        raise SystemExit("error: validation failed: a matrix file holds one JSON object")
    try:
        wx, wy, member = payload["weights_x"], payload["weights_y"], payload["member"]
    except KeyError as exc:
        raise SystemExit(f"error: matrix file missing field {exc}")
    try:
        if not (isinstance(wx, list) and isinstance(wy, list)):
            raise ValueError("weights_x and weights_y must be lists")
        X = DiscreteSpace(tuple(range(len(wx))), tuple(wx))
        Y = DiscreteSpace(tuple(range(len(wy))), tuple(wy))
        S = ProductSet(X, Y, member)
    except ValueError as exc:
        raise SystemExit(f"error: validation failed: {exc}")
    rep = cross_fibering_check(S)
    print(f"left: {rep.left.kind} (measure {rep.left.measure})")
    print(f"right_x: {rep.right_x} (mu-mass of nu-trivial row fibers)")
    print(f"right_y: {rep.right_y} (nu-mass of mu-trivial column fibers)")
    print(f"equivalence: {'holds' if rep.equivalence_holds else 'VIOLATED'}")
    return 0 if rep.equivalence_holds else 1


def _random_space(k: int, rng) -> DiscreteSpace:
    # random exact-rational weights with at least one zero-weight atom
    numers = [int(rng.integers(0, 8)) for _ in range(k)]
    if all(numers):
        numers[int(rng.integers(0, k))] = 0
    if not any(numers):
        numers[int(rng.integers(0, k))] = 1
    total = sum(numers)
    return DiscreteSpace(tuple(range(k)), tuple(Fraction(v, total) for v in numers))


def cmd_experiment(args) -> int:
    if args.builtin:
        if args.builtin not in BUILTIN_BATTERIES:
            raise SystemExit(f"error: unknown builtin battery {args.builtin!r}")
        battery = BUILTIN_BATTERIES[args.builtin]()
    else:
        if not args.config_file:
            raise SystemExit("error: need a config file or --builtin NAME")
        try:
            payload = json.loads(Path(args.config_file).read_text())
        except json.JSONDecodeError as exc:
            raise SystemExit(f"error: config parse error at line {exc.lineno} col {exc.colno}")
        try:
            battery = Battery.from_dict(payload)
        except (KeyError, ValueError, TypeError, ArithmeticError) as exc:
            raise SystemExit(f"error: bad config: {exc}")
    if args.samples is not None or args.seed is not None:
        battery = _override_battery(battery, args.samples, args.seed)
    t0 = time.time()
    report = run_dichotomy_scan(battery, workers=args.workers)
    elapsed = time.time() - t0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "schema_version": 1,
        "battery": battery.to_dict(),
        "generator": report.generator,
        "disclaimer": report.disclaimer,
        "results": [],
        "anomalies": report.anomalies,
    }
    for entry, result in zip(battery.entries, report.results):
        qcs = [qc for qc, _ in result.checkpoints]
        psis = entry.config.family.values(np.asarray(qcs, dtype=np.int64)).tolist()  # the psi each estimate read
        rows = [_row(qc, euler_phi(qc), psi_q, est) for qc, psi_q, (_, est) in zip(qcs, psis, result.checkpoints)]
        csv_path = out / f"{battery.name}-{entry.name}.csv"
        csv_path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
        summary["results"].append(
            {
                "name": entry.name,
                "config_hash": result.config_hash,
                "classification": result.classification,
                "rows": [{"q": qc, **dict(zip(ESTIMATE_FIELDS, _estimate_cells(est)))} for qc, est in result.checkpoints],
            }
        )
        print(f"{entry.name}: {result.classification} -> {csv_path}")
    (out / f"{battery.name}-summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    (out / f"{battery.name}-run.log").write_text(
        f"finished_at={time.strftime('%Y-%m-%dT%H:%M:%S')} elapsed_s={elapsed:.3f}\n"
    )
    for a in report.anomalies:
        print(f"anomaly: {a}", file=sys.stderr)
    return 1 if report.anomalies else 0


def _override_battery(battery: Battery, samples: int | None, seed: int | None) -> Battery:
    overrides = {k: v for k, v in (("samples", samples), ("seed", seed)) if v is not None}
    entries = tuple(replace(e, config=replace(e.config, **overrides)) for e in battery.entries)
    return replace(battery, entries=entries)


def cmd_padic(args) -> int:
    fam = _family_from_args(args)
    primes = [int(t) for t in args.primes.split(",") if t]
    weights = []
    for tok in args.weights.split(","):
        kind, _, param = tok.partition(":")
        weights.append(WeightFn(kind, float(param or "1")))
    cfg = ExperimentConfig(
        family=fam, n=args.n, Q=args.Q, samples=1, seed=args.seed,
    )
    rep = run_padic(cfg, primes, weights, n_alphas=args.alphas)
    print("alpha_index,q,count,weighted_log_sum")
    for i, curve in enumerate(rep.count_curves):
        for (qc, count), (_, s) in zip(curve, rep.sum_curve):
            print(_row(i, qc, count, s))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="diolab",
        description="measures of multiplicative approximation domains and limsup-set experiments",
    )
    top.add_argument("--workers", type=int, default=1, help="worker threads; output is the same for any count")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="measure of one q-slice")
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--mode", choices=["product", "max"], default="product")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_coprime_flags(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("union", help="exact 1-D truncated union measure")
    _add_family_flags(p)
    p.add_argument("--Q0", type=int, default=1)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--grid", action="store_true", help="emit the whole checkpoint grid")
    _add_coprime_flags(p)
    p.set_defaults(func=cmd_union)

    p = sub.add_parser("sums", help="partial sums of a divergence criterion")
    _add_family_flags(p)
    p.add_argument("--criterion", choices=["plain", "log_weighted", "phi_log_weighted", "phi_plain"],
                   default="plain")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--cond1", action="store_true", help="emit the limsup-ratio scan instead")
    p.set_defaults(func=cmd_sums)

    p = sub.add_parser("bc-bound", help="second-moment lower bound vs union measure")
    _add_family_flags(p)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--Q0", type=int, default=1)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--pairs", choices=["independence", "exact-1d", "monte-carlo"],
                   default="independence")
    p.add_argument("--samples", type=int, default=20_000,
                   help="samples of the union curve and of the Monte Carlo per-sample depths")
    p.add_argument("--seed", type=int, default=0)
    _add_coprime_flags(p)
    p.set_defaults(func=cmd_bc_bound)

    p = sub.add_parser("fiber-check", help="exact fibering equivalence report")
    p.add_argument("matrix_file", nargs="?", help="JSON with weights_x, weights_y, member")
    p.add_argument("--exhaustive", type=int, help="check all subsets of a k x k space (k <= 4)")
    p.add_argument("--weight-samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fiber_check)

    p = sub.add_parser("experiment", help="run a battery config and emit CSV/JSON artifacts")
    p.add_argument("config_file", nargs="?")
    p.add_argument("--builtin", help="run a shipped battery (theorem2-demo)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--samples", type=int, help="override per-entry sample count")
    p.add_argument("--seed", type=int, help="override per-entry seed")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("padic", help="weighted solution counts for sampled points")
    _add_family_flags(p)
    p.add_argument("--primes", required=True, help="comma-separated distinct primes")
    p.add_argument("--weights", required=True, help="comma-separated kind:param, e.g. power:1")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--alphas", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_padic)
    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DiolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
