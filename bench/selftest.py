"""Self-test of the benchmark at reduced sizes, in one process.

    python3 bench/selftest.py

For every workload it checks that an untraced run passes all output checks,
that a traced run restores every rebound name and produces byte-identical
outputs, and that a deliberately wrong pinned value makes a check fail, so
fail_rate can rise above 0.  Exits 1 on any failure.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

WRONG_PINS = {
    "mc-battery": {"tail_slice_sum": 0.0},
    "exact-tail": {"n2_sum": 0.1},
    "sums-large-q": {"adversarial_sum": 1.0},
    "exact-1d": {"fraction_union": 0.5},
}


def bound_names() -> list[tuple[object, str]]:
    names = [(tracing.resolve(owner), attr) for owner, attr, _, _ in tracing.LAYER_PATCHES]
    return names + [(workloads, attr) for attr in workloads.OWN_CALLS]


def failed(result: dict) -> list[str]:
    return [name for name, ok in result["checks"] if not ok]


def main() -> int:
    problems = []
    originals = {(id(owner), attr): vars(owner)[attr] for owner, attr in bound_names()}
    for name in workloads.FACTORIES:
        with contextlib.redirect_stdout(io.StringIO()):
            plain = workloads.run_once(name, seed=5, trace=False, scale="small")
            traced = workloads.run_once(name, seed=5, trace=True, scale="small")
            pins = {**workloads.load_pins("small"), **WRONG_PINS[name]}
            wrong = workloads.run_once(name, seed=5, trace=False, scale="small", pins=pins)
        if failed(plain):
            problems.append(f"{name}: untraced checks failed: {failed(plain)}")
        if failed(traced) or traced["digest"] != plain["digest"]:
            problems.append(f"{name}: traced run differs from the untraced run")
        if not failed(wrong):
            problems.append(f"{name}: a wrong pinned value went unnoticed")
        moved = [attr for owner, attr in bound_names() if vars(owner)[attr] is not originals[(id(owner), attr)]]
        if moved:
            problems.append(f"{name}: names left rebound after tracing: {moved}")
        print(f"{name}: untraced {len(plain['checks'])} checks, traced wall {traced['wall_s']:.3f} s, "
              f"wrong pin fails {failed(wrong)}")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
