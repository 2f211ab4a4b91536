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
