"""Summarise paired benchmark run records into one committed trend file.

    python3 tools/bench_trend.py --parent DIR --change DIR --parent-commit SHA \
        --claim sums-large-q:wall_s --out BENCH_9.json

Each DIR holds the run records that ``bench/run.py`` writes to
``bench/results/`` (``<workload>-seed<s>-trace0.json``), taken on the parent
commit and on the change with the same seeds.  For every workload and every
end-to-end metric of BENCHMARK.json the output gives, per side, the median
and the interquartile range (inclusive quartiles) over the runs, and the
per-seed values; for a claimed metric it also counts the seeds the change
won.  The host, the package versions and each side's ``src/`` line count
come from the records themselves, so the line-count trend is committed
beside the benchmark trend.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> run record, for the untraced records in directory."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], {})[record["args"]["seed"]] = record
    return runs


def src_lines(runs: dict[str, dict[int, dict]]) -> int | None:
    """The ``src/`` line count that one side's records carry; they must agree."""
    counts = {r["record"]["src_lines"] for seeds in runs.values() for r in seeds.values()}
    if len(counts) > 1:
        raise SystemExit(f"error: the records of one side carry different src_lines {sorted(counts)}")
    return counts.pop() if counts else None


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "iqr": None}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="run records taken on the parent commit")
    p.add_argument("--change", type=Path, required=True, help="run records taken on the change")
    p.add_argument("--parent-commit", required=True)
    p.add_argument("--claim", action="append", default=[], help="WORKLOAD:METRIC whose gain is claimed")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    parent, change = load(args.parent), load(args.change)
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    workloads, host = {}, None
    for w in (w["name"] for w in bench["workloads"]):
        seeds = sorted(set(parent.get(w, {})) & set(change.get(w, {})))
        if not seeds:
            continue
        host = host or change[w][seeds[0]]["record"]
        metrics = {}
        for name, direction in better.items():
            before = [parent[w][s]["metrics"][name] for s in seeds]
            after = [change[w][s]["metrics"][name] for s in seeds]
            entry = {"parent": {**spread(before), "runs": before}, "change": {**spread(after), "runs": after}}
            entry["median_change"] = entry["change"]["median"] / entry["parent"]["median"] - 1.0
            if (w, name) in claims:
                wins = sum((a < b) if direction == "lower" else (a > b) for a, b in zip(after, before))
                entry["pairs_won"] = f"{wins}/{len(seeds)}"
            metrics[name] = entry
        failed = sum(r["fail_rate"] > 0 for side in (parent, change) for r in side[w].values())
        seconds = sorted({side[w][s]["args"]["seconds"] for side in (parent, change) for s in seeds})
        workloads[w] = {"seeds": seeds, "seconds": seconds, "runs_with_failed_checks": failed, "metrics": metrics}

    trend = {
        "parent_commit": args.parent_commit,
        "change": "the commit that adds this file",
        "command": "python3 bench/run.py --workload W --seed S --seconds T, one run per side and seed",
        "host": {"cpu": host["cpu"], "versions": host["versions"]} if host else None,
        "src_lines": {"parent": src_lines(parent), "change": src_lines(change)},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(trend, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
