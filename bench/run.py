"""Benchmark entry point: cold repetitions of diolab workloads for a fixed time.

    python3 bench/run.py --workload exact-tail --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                # every workload in turn, seed 1

Run from the root of a diolab checkout; diolab is imported from its src/.
Workload names, metric names and units, and the default measuring time
(run_seconds) come from BENCHMARK.json next to bench/.
``--trace 0`` repeats the workload, each repetition in a fresh process,
until the time is spent, and reports the end-to-end metrics as medians over
the repetitions.  Times are scaled to a reference host speed: each
repetition's times are divided by the slowdown its own process measured on
a fixed calibration job right after the workload (workloads.calibration),
so that a host shared with other tenants, whose speed swings by up to 2x
over minutes, still gives comparable runs.  The unscaled medians go to the
run record.  ``--trace 1`` alternates untraced and traced repetitions with
``python -X importtime -c "import diolab"``, and reports the per-layer
metrics as medians over the traced repetitions (times scaled like wall_s),
the unscaled import times, and the tracing overhead (traced wall_s minus
untraced wall_s).

Every repetition checks its outputs against oracles, and all repetitions
must produce identical outputs.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; attempted
and failed count output checks.  A run record (machine, versions, commit,
every repetition) goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}

MIN_REPS = 3  # fewest untraced repetitions, or traced rounds, in one run
RUN_LIMIT_S = 170.0  # a run, including a repetition that overruns, ends before this


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(cmd: list[str], started: float) -> subprocess.CompletedProcess:
    left = RUN_LIMIT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, left))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:3]} did not finish within the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:4])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def repetition(workload: str, seed: int, trace: bool, started: float) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans", str(results_dir() / f"{workload}-seed{seed}-spans.json")]
    t0 = time.monotonic()
    proc = run_child(cmd + ["--t0", repr(t0)], started)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(started: float) -> dict[str, float]:
    """Cumulative import seconds of diolab and diolab.measure in a fresh process."""
    proc = run_child([sys.executable, "-X", "importtime", "-c", "import diolab"], started)
    found = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(2) in ("diolab", "diolab.measure"):
            found[m.group(2)] = int(m.group(1)) * 1e-6
    if len(found) != 2:
        raise BenchError("python -X importtime did not report diolab and diolab.measure")
    return {"setup.import_diolab_s": found["diolab"], "setup.import_measure_s": found["diolab.measure"]}


def results_dir() -> Path:
    path = HERE / "results"
    path.mkdir(exist_ok=True)
    return path


def run_record() -> dict:
    """Machine and build the numbers were taken on; read-only probes."""
    cpu: dict = {"count": os.cpu_count()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            key = key.strip().replace(" ", "_")
            if key in ("model_name", "cache_size"):
                cpu.setdefault(key, value.strip())
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    cpu["caches"] = caches
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {"cpu": cpu, "versions": versions, "git_commit": commit, "src_lines": src_lines}


def median_of(reps: list[dict], key: str, scaled: bool = True) -> float:
    """Median over repetitions of a time, each divided by its process's host slowdown."""
    return statistics.median(r[key] / (r["slowdown"] if scaled else 1.0) for r in reps)


def measure(workload: str, args) -> tuple[dict, list[dict], dict]:
    """Repetitions until the time is spent; returns (metrics, repetitions, extra record)."""
    started = time.monotonic()
    # no warm-up repetition: the medians already shed a cold first one
    loop_start = time.monotonic()
    untraced, traced, imports = [], [], []
    while True:
        untraced.append(repetition(workload, args.seed, False, started))
        if args.trace:
            traced.append(repetition(workload, args.seed, True, started))
            imports.append(import_times(started))
        rounds = len(untraced)
        per_round = (time.monotonic() - loop_start) / rounds
        if rounds >= MIN_REPS and time.monotonic() - started + per_round > args.seconds:
            break
    if not args.trace:
        metrics = {key: median_of(untraced, key) for key in ("wall_s", "setup_s")}
        metrics["peak_rss_mb"] = median_of(untraced, "peak_rss_mb", scaled=False)
    else:
        metrics = {name: statistics.median(r["layers"][name] / r["slowdown"] if UNITS[name] == "s"
                                           else r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        for name in imports[0]:
            metrics[name] = statistics.median(i[name] for i in imports)
        metrics["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
    unscaled = {key: median_of(untraced, key, scaled=False) for key in ("wall_s", "setup_s")}
    return metrics, untraced + traced, {"import_times": imports, "unscaled": unscaled}


def bench_workload(workload: str, args) -> tuple[dict, int, int]:
    """Measure one workload, write its record, print its metrics; returns (metrics, attempted, failed)."""
    metrics, reps, extra = measure(workload, args)
    checks = [(name, ok) for r in reps for name, ok in r["checks"]]
    checks.append(("outputs are identical across repetitions", len({r["digest"] for r in reps}) == 1))
    failed = sum(1 for _, ok in checks if not ok)
    expected = [m["name"] for m in BENCH["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(expected):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(expected))} differ from BENCHMARK.json")

    record = {
        "workload": workload, "args": vars(args), "record": run_record(), "metrics": metrics,
        "fail_rate": failed / len(checks), "failed_checks": sorted({n for n, ok in checks if not ok}),
        "repetitions": reps, **extra,
    }
    out = results_dir() / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"== {workload}: {len(reps)} repetitions, record {out.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{name:45s} {value:>16.6f} {UNITS[name]}")
    print(f"{'fail_rate':45s} {failed / len(checks):>16.6f} ratio  ({failed}/{len(checks)} checks failed)")
    print(f"unscaled medians: wall_s {extra['unscaled']['wall_s']:.6f} s, setup_s {extra['unscaled']['setup_s']:.6f} s; "
          f"median host slowdown {median_of(reps, 'slowdown', scaled=False):.3f}")
    return metrics, len(checks), failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="diolab benchmark: cold repetitions of each workload")
    p.add_argument("--workload", choices=WORKLOADS + ["all"], default="all",
                   help="one workload, or all of them in turn (metrics then carry a workload prefix)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=BENCH["run_seconds"],
                   help="measuring time per workload (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "diolab" / "__init__.py").is_file():
        print(f"error: no diolab sources at {ROOT / 'src' / 'diolab'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        # bytecode is built once here, so no repetition pays for compiling
        run_child([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)], time.monotonic())
        results = {w: bench_workload(w, args) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for w, (values, _, _) in results.items():
        for name, value in values.items():
            label = name if len(names) == 1 else f"{w}.{name}"
            metrics[label] = {"value": value, "unit": UNITS[name]}
    attempted = sum(r[1] for r in results.values())
    failed = sum(r[2] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
