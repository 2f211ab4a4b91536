"""tools/bench_trend.py on two tiny directories of fake run records."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_trend():
    spec = importlib.util.spec_from_file_location("bench_trend", TOOLS / "bench_trend.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_records(directory: Path, lines: list[int], walls: list[float]) -> Path:
    directory.mkdir()
    for seed, (count, wall) in enumerate(zip(lines, walls), 1):
        record = {
            "workload": "exact-1d",
            "args": {"workload": "exact-1d", "seed": seed, "seconds": 1.0, "trace": 0},
            "record": {"cpu": {"count": 2}, "versions": {"python": "3.11"}, "git_commit": None, "src_lines": count},
            "metrics": {"wall_s": wall, "setup_s": 0.3, "peak_rss_mb": 47.0},
            "fail_rate": 0.0,
        }
        (directory / f"exact-1d-seed{seed}-trace0.json").write_text(json.dumps(record))
    return directory


def test_each_side_carries_its_src_lines(tmp_path):
    parent = write_records(tmp_path / "parent", [3590, 3590], [0.16, 0.17])
    change = write_records(tmp_path / "change", [3560, 3560], [0.15, 0.16])
    out = tmp_path / "BENCH_0.json"
    argv = ["--parent", str(parent), "--change", str(change), "--parent-commit", "abc", "--out", str(out)]
    assert load_trend().main(argv + ["--claim", "exact-1d:wall_s"]) == 0
    trend = json.loads(out.read_text())
    assert trend["src_lines"] == {"parent": 3590, "change": 3560}
    wall = trend["workloads"]["exact-1d"]["metrics"]["wall_s"]
    assert wall["parent"]["runs"] == [0.16, 0.17] and wall["change"]["runs"] == [0.15, 0.16]
    assert wall["pairs_won"] == "2/2"


def test_records_of_one_side_must_agree(tmp_path):
    parent = write_records(tmp_path / "parent", [3590, 3589], [0.16, 0.17])
    change = write_records(tmp_path / "change", [3560, 3560], [0.15, 0.16])
    argv = ["--parent", str(parent), "--change", str(change), "--parent-commit", "abc", "--out", str(tmp_path / "o.json")]
    with pytest.raises(SystemExit, match="src_lines"):
        load_trend().main(argv)


TIER1_LOG = """\
........................................................................ [ 11%]
........................................................................ [100%]
============================= slowest 10 durations =============================
11.52s call     tests/test_acceptance.py::test_criterion_6_convergence_side
5.40s call     tests/test_acceptance.py::test_monte_carlo_oracle_q12
4.61s call     tests/test_support.py::TestSupport::test_scans_match_the_dense_scan[blocks_of_4]
4.55s call     tests/test_acceptance.py::test_criterion_3_exact_coprime_slice_measures
3.30s call     tests/test_arith.py::TestEulerPhi::test_brute_force_agreement_to_1e4
2.10s setup    tests/test_demos.py::test_demo[a b]
2.00s call     tests/test_regions.py::test_six
1.90s call     tests/test_regions.py::test_seven
1.80s call     tests/test_regions.py::test_eight
1.70s teardown tests/test_regions.py::test_nine
650 passed in 115.80s (0:01:55)
"""


def test_tier1_log_is_recorded(tmp_path):
    parent = write_records(tmp_path / "parent", [3590], [0.16])
    change = write_records(tmp_path / "change", [3560], [0.15])
    log = tmp_path / "tier1.log"
    log.write_text(TIER1_LOG)
    out = tmp_path / "BENCH_0.json"
    argv = ["--parent", str(parent), "--change", str(change), "--parent-commit", "abc", "--out", str(out)]
    assert load_trend().main(argv + ["--tier1", str(log)]) == 0
    tier1 = json.loads(out.read_text())["tier1"]
    assert (tier1["wall_s"], tier1["passed"], tier1["summary"]) == (115.8, 650, "650 passed")
    assert len(tier1["slowest"]) == 10
    assert tier1["slowest"][0] == {
        "s": 11.52, "phase": "call", "test": "tests/test_acceptance.py::test_criterion_6_convergence_side"
    }
    assert tier1["slowest"][5] == {"s": 2.1, "phase": "setup", "test": "tests/test_demos.py::test_demo[a b]"}
    assert tier1["slowest"][9]["phase"] == "teardown"
    assert load_trend().main(argv) == 0 and "tier1" not in json.loads(out.read_text())


def test_tier1_summary_with_failures_and_warnings():
    log = "=== 3 failed, 647 passed, 2 warnings in 120.50s (0:02:00) ===\n"
    tier1 = load_trend().tier1(log)
    assert (tier1["wall_s"], tier1["passed"], tier1["slowest"]) == (120.5, 647, [])
    assert tier1["summary"] == "3 failed, 647 passed, 2 warnings"


def test_tier1_log_without_a_summary_is_an_error():
    with pytest.raises(SystemExit, match="no pytest summary line"):
        load_trend().tier1("collected 0 items\n")
