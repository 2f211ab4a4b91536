"""One cold repetition of a diolab benchmark workload: inputs, timed calls, checks.

run.py starts this file in a fresh process for every repetition, so each
one pays the import of diolab and the fill of its caches (the coprime-law
cache and the totient table), as every ``diolab`` invocation does:

    python3 bench/workloads.py --workload exact-tail --seed 7 --t0 <time.monotonic()>

It prints one JSON line: ``setup_s`` (process start to the first timed call),
``wall_s`` (first call into diolab to the last result), ``peak_rss_mb``,
the host ``slowdown`` against the reference speed, the output checks, a
digest of every output and, with ``--trace 1``, the per-layer metrics.  Inputs depend only on the workload, the seed and the
scale; diolab receives the generated configs and arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import shutil
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

# calibration() works in these arrays only.  They are made before diolab is
# imported, so nothing diolab allocates or frees can change what the job costs.
CALIBRATION_IN = np.arange(1_000_000, dtype=np.float64)
CALIBRATION_OUT = np.empty_like(CALIBRATION_IN)

from diolab.borel_cantelli import bc_lower_bound  # noqa: E402
from diolab.cli import main as diolab_main  # noqa: E402
from diolab.fibering import DiscreteSpace, ProductSet, cross_fibering_check  # noqa: E402
from diolab.harness import exact_event_stats_1d  # noqa: E402
from diolab.psi import (  # noqa: E402
    SumCriterion,
    adversarial_primorial,
    cond1_scan,
    partial_sum_scan,
    power_log,
    table_psi,
)
from diolab.regions import product_region_measure_coprime, truncated_union_1d  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent

# Sizes were cut from the shapes in the design notes (spec.json) so that a
# cold repetition takes a few seconds; each keeps its shape and the layer
# that dominates it.  mc-battery keeps 20,000 samples, so each --workers 2
# chunk still exceeds the 8,192-sample blocks where cache effects show, and
# is cut through Q instead.  "small" serves the self-test.
SIZES = {
    "full": {
        "mc-battery": {"samples": 20_000, "tail_Q": 1_500, "divergent_Q": 4_000, "max3_Q": 1_100},
        "exact-tail": {"n2_Q": 15_000, "n3_count": 10, "stride": 997},
        "sums-large-q": {"Q": 3_000_000},
        "exact-1d": {"k": 192, "fraction_Q": 150, "weight_pairs": 4},
    },
    "small": {
        "mc-battery": {"samples": 1_000, "tail_Q": 1_500, "divergent_Q": 400, "max3_Q": 1_200},
        "exact-tail": {"n2_Q": 1_500, "n3_count": 2, "stride": 97},
        "sums-large-q": {"Q": 20_000},
        "exact-1d": {"k": 32, "fraction_Q": 24, "weight_pairs": 2},
    },
}

# Public diolab names this file calls; a traced run rebinds them here.
OWN_CALLS = {
    "diolab_main": "cli.main",
    "product_region_measure_coprime": "regions.product_region_measure_coprime",
    "cond1_scan": "psi.cond1_scan",
    "partial_sum_scan": "psi.partial_sum_scan",
    "exact_event_stats_1d": "harness.exact_event_stats_1d",
    "truncated_union_1d": "regions.truncated_union_1d",
    "bc_lower_bound": "borel_cantelli.bc_lower_bound",
    "cross_fibering_check": "fibering.cross_fibering_check",
}

TAIL_Q0 = 1_000
BATTERY_ENTRIES = ("tail", "divergent", "max3")


def load_pins(scale: str) -> dict:
    return json.loads((HERE / "pinned.json").read_text())[scale]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Checks:
    """Named pass/fail results; fail_rate is failed / attempted."""

    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def add(self, name: str, ok) -> None:
        self.results.append((name, bool(ok)))


def geometric_grid(lo: int, hi: int) -> list[int]:
    grid, g = [], lo
    while g < hi:
        grid.append(g)
        g *= 2
    return grid + [hi]


# ---------------------------------------------------------------------------
# independent oracles


def radical_of(q: int) -> int:
    r, p, n = 1, 2, q
    while p * p <= n:
        if n % p == 0:
            r *= p
            while n % p == 0:
                n //= p
        p += 1
    return r * n if n > 1 else r


def closed_form_n2(q: int, delta: float) -> float:
    """|{||qx||'·||qy||' < delta}| for 0 < delta < 1/4 from the coprime gaps of rad(q).

    delta·k·[k·(1 + log(1/(4 delta))) + 4 L/r] with k = 2 phi(r)/r and L the
    sum of log(gap) over the cyclic gaps between residues coprime to r.
    """
    r = radical_of(q)
    units = [a for a in range(r) if math.gcd(a, r) == 1]
    gaps = [b - a for a, b in zip(units, units[1:])] + [units[0] + r - units[-1]]
    k = 2.0 * len(units) / r
    log_sum = sum(math.log(g) for g in gaps)
    return delta * k * (k * (1.0 + math.log(1.0 / (4.0 * delta))) + 4.0 * log_sum / r)


CALIBRATION_REF_S = 0.2  # calibration() seconds at the reference host speed


def calibration() -> float:
    """Seconds for a fixed mix of interpreter and numpy work: how fast this process runs now.

    The host is shared with other tenants and its speed swings by up to 2x
    over seconds to minutes; a process's import and workload move alike.
    Timed in the workload's own process right after the workload, this job
    shares its CPU and its moment.  It allocates no arrays.
    """
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i
    for _ in range(6):
        np.sin(CALIBRATION_IN, out=CALIBRATION_OUT)
        CALIBRATION_OUT.sort()
    return time.perf_counter() - start


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


# ---------------------------------------------------------------------------
# workloads: each builds its inputs and returns (run, check); run(tracer)
# makes the timed calls, check(outputs, checks, extra) judges them afterwards


def mc_battery(seed: int, size: dict, work: Path, pins: dict):
    rng = random.Random(seed)
    entry_seeds = [rng.randrange(2**32) for _ in BATTERY_ENTRIES]
    shape = {
        "tail": ({"family": "power_log", "c": 1.0, "a": 1.0, "b": 3.0}, 2, "product", True, TAIL_Q0, size["tail_Q"]),
        "divergent": ({"family": "power_log", "c": 0.25, "a": 1.0, "b": 0.0}, 2, "product", True, 100, size["divergent_Q"]),
        "max3": ({"family": "power_log", "c": 1.0, "a": 1.0, "b": 2.0}, 3, "max", False, 1_000, size["max3_Q"]),
    }
    experiments = []
    for name, entry_seed in zip(BATTERY_ENTRIES, entry_seeds):
        family, n, mode, coprime, q0, q1 = shape[name]
        experiments.append({
            "name": name, "expect": "exploratory", "family": family, "n": n, "mode": mode,
            "coprime": coprime, "Q0": q0, "Q": q1, "samples": size["samples"], "seed": entry_seed,
        })
    config = work / "battery.json"
    config.write_text(json.dumps({"schema_version": 1, "name": "bench", "experiments": experiments}))
    outs = {tag: work / f"out-{tag}" for tag in ("w1", "w2")}

    def run(tracer):
        codes = {}
        for tag, workers in (("w1", "1"), ("w2", "2")):
            with tracer.span(f"phase.{tag}"), contextlib.redirect_stdout(io.StringIO()):
                codes[tag] = diolab_main(["--workers", workers, "experiment", str(config), "--out", str(outs[tag])])
        return codes

    def check(codes, checks: Checks, extra: dict) -> dict:
        files = {tag: {p.name: p.read_bytes() for p in sorted(out.iterdir()) if not p.name.endswith(".log")}
                 for tag, out in outs.items()}
        extra["cli_bytes_written"] = sum(len(b) for b in files["w1"].values())
        extra["battery_entries"] = BATTERY_ENTRIES
        checks.add("cli exit codes are 0", codes == {"w1": 0, "w2": 0})
        checks.add("w1 and w2 outputs are byte-identical", files["w1"] == files["w2"] and files["w1"])
        summary = json.loads(files["w1"]["bench-summary.json"])
        rows = {r["name"]: r["rows"] for r in summary["results"]}
        checks.add("every row is monte-carlo inside its interval", all(
            row["provenance"] == "monte-carlo" and row["ci_low"] <= row["measure"] <= row["ci_high"]
            for entry in rows.values() for row in entry))
        checks.add("estimates do not decrease across checkpoints", all(
            a["measure"] <= b["measure"] for entry in rows.values() for a, b in zip(entry, entry[1:])))
        bound = pins["tail_slice_sum"]
        sigma = math.sqrt(bound * (1.0 - bound) / size["samples"])
        checks.add("tail estimate <= exact slice sum + 4 sigma", rows["tail"][-1]["measure"] <= bound + 4.0 * sigma)
        checks.add("divergent estimate >= 0.95", rows["divergent"][-1]["measure"] >= 0.95)
        return {tag: {k: hashlib.sha256(v).hexdigest() for k, v in f.items()} for tag, f in files.items()}

    return run, check


def exact_tail(seed: int, size: dict, work: Path, pins: dict):
    family = power_log(1.0, 1.0, 3.0)
    n2_qs = np.arange(TAIL_Q0, size["n2_Q"] + 1)
    n3_qs = np.arange(TAIL_Q0, TAIL_Q0 + size["n3_count"])
    stride = size["stride"]
    spot = list(range(TAIL_Q0 + seed % stride, size["n2_Q"] + 1, stride))

    def run(tracer):
        out = {}
        for n, qs, tol in ((2, n2_qs, 1e-10), (3, n3_qs, 1e-9)):
            with tracer.span(f"phase.n{n}"):
                deltas = family.values(qs).tolist()
                out[n] = [product_region_measure_coprime(q, n, d, tol=tol)
                          for q, d in zip(qs.tolist(), deltas)]
        return out

    def check(out, checks: Checks, extra: dict):
        n2, n3 = out[2], out[3]
        checks.add("every value is numeric-exact", all(e.provenance == "numeric-exact" for e in n2 + n3))
        total = math.fsum(e.value for e in n2)
        checks.add("n=2 sum equals the pinned sum within the error bounds",
                   abs(total - pins["n2_sum"]) <= math.fsum(e.error_bound for e in n2))
        checks.add("n=2 values match the closed form to 1e-12", all(
            rel_close(n2[q - TAIL_Q0].value, closed_form_n2(q, family(q)), 1e-12) for q in spot))
        checks.add("n=3 values match the pinned values within their error bounds",
                   len(n3) == len(pins["n3_values"]) and all(
                       abs(e.value - pin) <= e.error_bound for e, pin in zip(n3, pins["n3_values"])))
        return {str(n): [[e.value, e.error_bound, e.provenance] for e in v] for n, v in out.items()}

    return run, check


def sums_large_q(seed: int, size: dict, work: Path, pins: dict):
    grid = geometric_grid(1, size["Q"])
    plain = power_log(1.0, 1.0, 0.0)
    adversarial = adversarial_primorial(4)
    criterion = SumCriterion("phi_log_weighted", 2)

    def run(tracer):
        with tracer.span("phase.cond1"):
            ratios = cond1_scan(plain, 2, grid)
        with tracer.span("phase.adversarial"):
            sums = partial_sum_scan(adversarial, criterion, grid)
        return ratios, sums

    def check(out, checks: Checks, extra: dict):
        (points, running), sums = out
        checks.add("cond1 running maximum matches the pin to 1e-12", rel_close(running, pins["cond1_max"], 1e-12))
        checks.add("adversarial final sum matches the pin to 1e-12", rel_close(sums[-1][1], pins["adversarial_sum"], 1e-12))
        checks.add("every ratio lies in (0, 1]", all(0.0 < r <= 1.0 for _, r in points))
        return {"ratios": points, "running_max": running, "sums": sums}

    return run, check


def random_space(rng: random.Random, k: int) -> DiscreteSpace:
    # exact rational weights with a zero-weight atom, where "almost every"
    # and "every" part ways
    numers = [rng.randrange(8) for _ in range(k)]
    numers[rng.randrange(k)] = 0
    if not any(numers):
        numers[rng.randrange(k)] = 1
    return DiscreteSpace(tuple(range(k)), tuple(Fraction(v, sum(numers)) for v in numers))


def exact_1d(seed: int, size: dict, work: Path, pins: dict):
    k = size["k"]
    family = power_log(0.25, 1.0, 0.0)
    checkpoints = geometric_grid(2, k)
    fractions = table_psi([Fraction(1, 4 * q) for q in range(1, size["fraction_Q"] + 1)])
    rng = random.Random(seed)
    spaces = [(DiscreteSpace.uniform(3), DiscreteSpace.uniform(3))]
    spaces += [(random_space(rng, 3), random_space(rng, 3)) for _ in range(size["weight_pairs"] - 1)]
    matrices = [np.array(bits, dtype=bool).reshape(3, 3) for bits in np.ndindex(*(2,) * 9)]
    sets = [ProductSet(X, Y, member) for member in matrices for X, Y in spaces]

    def run(tracer):
        with tracer.span("phase.pairs"):
            stats = exact_event_stats_1d(family, 1, k, coprime=True)
        with tracer.span("phase.bc"):
            curve = [(Q, bc_lower_bound(stats, Q), truncated_union_1d(family, 1, Q, coprime=True))
                     for Q in checkpoints]
        with tracer.span("phase.fraction"):
            sweep = truncated_union_1d(fractions, 1, size["fraction_Q"], coprime=True)
        with tracer.span("phase.fibering"):
            reports = [cross_fibering_check(S) for S in sets]
        return stats, curve, sweep, reports

    def check(out, checks: Checks, extra: dict):
        stats, curve, sweep, reports = out
        checks.add("0 < bound <= union + 1e-12 at every checkpoint",
                   all(0.0 < b <= u.value + 1e-12 for _, b, u in curve))
        pairs = stats.pairs
        checks.add("pair matrix is symmetric with the singles on its diagonal",
                   np.array_equal(pairs, pairs.T) and np.array_equal(np.diag(pairs), stats.singles))
        checks.add("Fraction sweep is exact and equals the pin",
                   sweep.provenance == "exact" and sweep.value == pins["fraction_union"])
        checks.add("every fibering equivalence holds",
                   len(reports) == 512 * len(spaces) and all(r.equivalence_holds for r in reports))
        return {
            "pairs": hashlib.sha256(pairs.tobytes()).hexdigest(),
            "curve": [[Q, b, u.value] for Q, b, u in curve],
            "sweep": sweep.value,
            "fibering": [[str(r.left.measure), str(r.right_x), str(r.right_y)] for r in reports],
        }

    return run, check


FACTORIES = {"mc-battery": mc_battery, "exact-tail": exact_tail, "sums-large-q": sums_large_q, "exact-1d": exact_1d}


def run_once(workload: str, seed: int, trace: bool, scale: str = "full", t0: float | None = None,
             pins: dict | None = None, spans_path: Path | None = None) -> dict:
    """Build the inputs, time the workload, check its outputs."""
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=HERE / "_work"))
    try:
        pins = load_pins(scale) if pins is None else pins
        run, check = FACTORIES[workload](seed, SIZES[scale][workload], work, pins)
        tracer = tracing.Tracer() if trace else tracing.NullTracer()
        patches = tracer.patched(sys.modules[__name__], OWN_CALLS) if trace else contextlib.nullcontext()
        with patches:
            start = time.monotonic()
            out = run(tracer)
            wall = time.monotonic() - start
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        slowdown = calibration() / CALIBRATION_REF_S
        checks, extra = Checks(), {}
        outputs = check(out, checks, extra)
        result = {
            "workload": workload, "seed": seed, "scale": scale, "trace": trace,
            "setup_s": None if t0 is None else start - t0,
            "wall_s": wall,
            "peak_rss_mb": peak_kib / 1024.0,
            "slowdown": slowdown,
            "checks": checks.results,
            "digest": digest(outputs),
        }
        if trace:
            result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts, extra)
            if spans_path is not None:
                tracer.dump(spans_path)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(FACTORIES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, help="time.monotonic() just before this process was started")
    p.add_argument("--spans", type=Path, help="write the traced run's spans here")
    args = p.parse_args(argv)
    result = run_once(args.workload, args.seed, bool(args.trace), t0=args.t0, spans_path=args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
