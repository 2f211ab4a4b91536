import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diolab
import diolab.arith
import diolab.cli
import diolab.psi
from diolab.arith import phi_segment
from diolab.cli import CSV_HEADER, main
from diolab.harness import theorem2_demo_battery
from diolab.measure import MeasureEstimate
from diolab.psi import TablePsi, power_log


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMeasure:
    def test_coprime_example(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--q", "12", "--n", "1", "--delta", "0.1", "--coprime")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        q, phi_q, psi_q, measure, prov, lo, hi = lines[1].split(",")
        assert (q, phi_q, prov) == ("12", "4", "exact")
        assert float(measure) == pytest.approx(0.0666666666667, abs=1e-9)
        assert lo == "" and hi == ""

    def test_plain_product_example(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--n", "2", "--delta", "0.125", "--plain")
        assert code == 0
        measure = float(out.strip().splitlines()[1].split(",")[3])
        assert measure == pytest.approx(0.5 * (1 + math.log(2)), rel=1e-9)

    def test_zero_delta(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--delta", "0")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[3] == "0"

    def test_nan_delta_rejected(self, capsys):
        code, out, err = run_cli(capsys, "measure", "--q", "12", "--delta", "nan", "--coprime")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "delta" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_rejects_a_tol_that_is_not_positive_and_finite(self, capsys, tol):
        code, out, err = run_cli(capsys, "measure", "--q", "1000", "--n", "3", "--delta", "1e-4", "--coprime",
                                 f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "tol must be positive and finite" in err

    def test_infinite_delta_is_full_measure(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--q", "12", "--delta", "inf", "--coprime")
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[3]) == 1.0


class TestUnion:
    def test_single_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "union", "--c", "0.25", "--Q", "16", "--coprime"
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[4] == "exact"
        assert 0.0 < float(row[3]) <= 1.0


    def test_psi_comes_from_values(self, capsys, monkeypatch):
        # the psi_q column is the array value the union reads, and f(q) is the same bits
        f = power_log(0.25, 1, 0)
        psi = float(f.values(np.array([1923]))[0])
        assert f(1923) == psi
        monkeypatch.setattr(diolab.cli, "fmt", repr)
        code, out, _ = run_cli(capsys, "union", "--c", "0.25", "--Q0", "1900", "--Q", "1923", "--coprime")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[2] == repr(psi)


    def test_coprime_union_holds_no_whole_range_array(self, capsys):
        # phi is sieved per block of q as the sweep counts it, so a range far past the
        # budget fails in its first block; a totient table to 2e7 alone is 160 MB
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "union", "--c", "0.25", "--Q", "20000000", "--coprime")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1 and err.startswith("error: sweep would build more than budget=5000000")
        assert out == CSV_HEADER + "\n"
        assert peak < 8 * 2**20

    def test_table_family_sizes_phi_to_its_entries(self, capsys, monkeypatch):
        sieved = []
        monkeypatch.setattr(diolab.arith, "phi_segment", lambda *span: sieved.append(span) or phi_segment(*span))
        family = json.dumps({"family": "table", "values": [f"1/{4 * q}" for q in range(1, 201)]})
        code, out, _ = run_cli(capsys, "union", "--family-json", family, "--Q", "20000000", "--coprime")
        assert code == 0
        # every q past the table has psi = 0, so no sweep reads phi there
        assert sieved == [(1, 201, 1)]


    def test_grid_rows_equal_single_checkpoint_runs(self, capsys):
        code, out, _ = run_cli(capsys, "union", "--c", "0.25", "--Q0", "3", "--Q", "100", "--grid", "--coprime")
        assert code == 0
        rows = out.splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == [3, 6, 12, 24, 48, 96, 100]
        for row in rows:
            code, single, _ = run_cli(
                capsys, "union", "--c", "0.25", "--Q0", "3", "--Q", row.split(",")[0], "--coprime"
            )
            assert code == 0 and single.splitlines() == [CSV_HEADER, row]


MALFORMED_FAMILIES = [
    "[1, 2]",
    '"power_log"',
    '{"family": "table", "values": 5}',
    '{"family": "power_log", "c": null, "a": 1, "b": 0}',
    '{"family": "indicator_support", "base": 3, "support": {"kind": "multiples_of", "param": 2}}',
]


class TestMalformedInput:
    @pytest.mark.parametrize("spec", MALFORMED_FAMILIES)
    def test_family_json_is_a_clean_error(self, spec):
        with pytest.raises(SystemExit) as exc:
            main(["union", "--Q", "10", "--family-json", spec])
        assert str(exc.value.code).startswith("error: bad --family-json: ")

    @pytest.mark.parametrize("payload", [[1], {"schema_version": 1, "experiments": [5]}])
    def test_config_is_a_clean_error(self, tmp_path, payload):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as exc:
            main(["experiment", str(cfg), "--out", str(tmp_path / "out")])
        assert str(exc.value.code).startswith("error: bad config: ")
        assert not (tmp_path / "out").exists()

    def test_the_process_exits_1_without_a_traceback(self):
        src = str(Path(diolab.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "diolab.cli", "union", "--family-json", "[1, 2]", "--Q", "10"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: bad --family-json: a family spec must be an object, not list\n"


class TestSums:
    def test_partial_sums(self, capsys):
        code, out, _ = run_cli(
            capsys, "sums", "--criterion", "phi_plain", "--n", "1", "--Q", "4"
        )
        assert code == 0
        last = out.strip().splitlines()[-1].split(",")
        assert last[0] == "4"
        assert float(last[1]) == pytest.approx(1 + 0.25 + 2 / 9 + 0.125, rel=1e-9)

    def test_cond1_scan(self, capsys):
        code, out, _ = run_cli(capsys, "sums", "--Q", "256", "--cond1")
        assert code == 0
        assert out.splitlines()[0] == "q,ratio,running_max"

    @pytest.mark.parametrize("mode", [["--criterion", "phi_log_weighted", "--n", "2"], ["--cond1"]], ids=["sums", "cond1"])
    def test_a_table_is_read_to_its_last_entry_at_any_q(self, capsys, monkeypatch, mode):
        # psi is 0 past the table, so a scan to Q = 1e10 reads psi and phi at q <= 200 alone
        read = []

        def reading(q):
            assert q <= 200, f"read q = {q} past the table"  # fails in the first block of a dense scan
            read.append(q)

        values = TablePsi.values
        monkeypatch.setattr(TablePsi, "values", lambda f, qs: reading(int(qs.max())) or values(f, qs))
        monkeypatch.setattr(
            diolab.psi, "phi_segment", lambda lo, hi, step: reading(step * (hi - 1)) or phi_segment(lo, hi, step)
        )
        family = json.dumps({"family": "table", "values": [f"1/{4 * q}" for q in range(1, 201)]})
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "sums", "--family-json", family, "--Q", "10000000000", *mode)
        assert time.perf_counter() - start < 1.0
        assert code == 0 and out.splitlines()[-1].split(",")[0] == "10000000000"
        assert len(read) == 2 and max(read) == 200

    @pytest.mark.parametrize("mode", [[], ["--criterion", "phi_plain"], ["--cond1"]], ids=["plain", "phi", "cond1"])
    def test_a_support_q_past_int64_exits_2(self, capsys, mode):
        # the multiples of 1e18 up to Q = 2e19 pass 2**63 - 1: the scan fails before any output
        family = json.dumps(
            {"family": "indicator_support", "base": {"family": "power_log", "c": 1, "a": 1, "b": 0},
             "support": {"kind": "multiples_of", "param": 10**18}}
        )
        code, out, err = run_cli(capsys, "sums", "--family-json", family, "--Q", str(2 * 10**19), *mode)
        assert code == 2 and out == "" and "past int64" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--c", "1e308", "--a", "0", "--Q", "8"],
            [
                "--cond1", "--n", "2", "--Q", "1000", "--family-json",
                '{"family": "indicator_support", "base": {"family": "power_log", "c": 1.7e308, "a": 0, "b": 0},'
                ' "support": {"kind": "multiples_of", "param": 100}}',
            ],
        ],
        ids=["sum", "cond1"],
    )
    def test_a_sum_past_float64_exits_2(self, argv):
        # these printed inf, and nan from inf / inf, and exited 0; numpy's overflow warnings are not the error
        src = str(Path(diolab.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "diolab.cli", "sums", *argv],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines()[-1].startswith("error: a running sum overflows float64")

    def test_adversarial_flags_equal_the_family_json(self, capsys):
        spec = {
            "family": "indicator_support",
            "base": {"family": "power_log", "c": 1.0, "a": 1.0, "b": 0.0},
            "support": {"kind": "primorial_multiples", "param": 3},
        }
        code, flags, _ = run_cli(capsys, "sums", "--family", "adversarial", "--k", "3", "--Q", "100000")
        assert code == 0 and flags.splitlines()[1:3] == ["1,0", "2,0"]
        assert run_cli(capsys, "sums", "--family-json", json.dumps(spec), "--Q", "100000") == (0, flags, "")


class TestFiberCheck:
    def test_exhaustive(self, capsys):
        code, out, _ = run_cli(capsys, "fiber-check", "--exhaustive", "2", "--weight-samples", "4")
        assert code == 0
        assert "16 subsets x 4 weight pairs: all equivalences hold" in out

    def test_matrix_file(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({
            "weights_x": ["1/2", "1/2"],
            "weights_y": ["1/3", "2/3"],
            "member": [[1, 1], [1, 1]],
        }))
        code, out, _ = run_cli(capsys, "fiber-check", str(f))
        assert code == 0
        assert "left: Full (measure 1)" in out
        assert "equivalence: holds" in out
        # x=2 has weight 0: its nontrivial row fiber (nu-measure 2/3) carries no mu-mass
        f.write_text(json.dumps({
            "weights_x": ["1/2", "1/2", "0"],
            "weights_y": ["1/3", "2/3"],
            "member": [[1, 0], [1, 1], [0, 1]],
        }))
        code, out, _ = run_cli(capsys, "fiber-check", str(f))
        assert code == 0
        assert out.splitlines()[:3] == [
            "left: Nontrivial (measure 2/3)",
            "right_x: 1/2 (mu-mass of nu-trivial row fibers)",
            "right_y: 1/3 (nu-mass of mu-trivial column fibers)",
        ]
        assert "equivalence: holds" in out

    def test_weight_validation_error(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({
            "weights_x": ["1/2", "1/3"],
            "weights_y": ["1/2", "1/2"],
            "member": [[1, 0], [0, 1]],
        }))
        with pytest.raises(SystemExit) as exc:
            main(["fiber-check", str(f)])
        assert "weights must sum to exactly 1" in str(exc.value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("member", [[1, 0], [0, 2]]),
            ("member", [[1, 0], [0, 0.5]]),
            ("member", [[1, 0], [0, -1]]),
            ("member", [[1, 0], [0, "x"]]),
            ("weights_x", ["1/2,1/2"]),
            ("weights_x", ["1/2", "", "1/2"]),
            ("weights_x", [0.5, 0.5]),
            ("weights_x", [True, False]),
            ("weights_x", [None, 1]),
            ("weights_x", ["1/0", 1]),
            ("weights_x", 5),
            (None, [1, 2]),
        ],
    )
    def test_bad_entries_rejected(self, tmp_path, field, value):
        # a matrix file holds one object: 0/1 or boolean membership entries and a list of one exact
        # rational per weight entry (field None replaces the whole file)
        payload = {"weights_x": ["1/2", "1/2"], "weights_y": ["1/2", "1/2"], "member": [[1, 0], [0, 1]]}
        payload = value if field is None else {**payload, field: value}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as exc:
            main(["fiber-check", str(f)])
        # a string exit code exits with status 1
        assert str(exc.value).startswith("error: validation failed: ")

    def test_size_cap(self, capsys):
        with pytest.raises(SystemExit):
            main(["fiber-check", "--exhaustive", "5"])

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_weight_samples_below_one_rejected(self, count):
        with pytest.raises(SystemExit) as exc:
            main(["fiber-check", "--exhaustive", "2", "--weight-samples", count])
        assert "--weight-samples must be >= 1" in str(exc.value)


def tiny_battery_dict(samples=300, seed=5):
    return {
        "schema_version": 1,
        "name": "tiny",
        "experiments": [
            {
                "name": "div",
                "family": {"family": "power_log", "c": 0.25, "a": 1.0, "b": 0.0},
                "n": 1,
                "mode": "product",
                "coprime": True,
                "Q0": 1,
                "Q": 64,
                "samples": samples,
                "seed": seed,
                "q_grid": None,
                "expect": "exploratory",
            }
        ],
    }


class TestExperiment:
    def test_runs_and_emits(self, capsys, tmp_path):
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps(tiny_battery_dict()))
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "experiment", str(cfg), "--out", str(out_dir))
        assert code == 0
        csv = (out_dir / "tiny-div.csv").read_text()
        assert csv.splitlines()[0] == CSV_HEADER
        summary = json.loads((out_dir / "tiny-summary.json").read_text())
        assert summary["battery"]["name"] == "tiny"
        assert summary["anomalies"] == []
        assert summary["generator"] == "splitmix64-v1"

    def test_psi_comes_from_values(self, capsys, tmp_path, monkeypatch):
        battery = tiny_battery_dict()
        battery["experiments"][0].update(Q0=1900, Q=1923, q_grid=[1910, 1923])
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps(battery))
        monkeypatch.setattr(diolab.cli, "fmt", repr)
        code, _, _ = run_cli(capsys, "experiment", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 0
        rows = (tmp_path / "out" / "tiny-div.csv").read_text().splitlines()[1:]
        psis = power_log(0.25, 1, 0).values(np.array([1910, 1923]))
        assert [row.split(",")[2] for row in rows] == [repr(float(v)) for v in psis]

    def test_worker_count_does_not_change_bytes(self, capsys, tmp_path):
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps(tiny_battery_dict(samples=2000)))
        outputs = {}
        for w in (1, 4):
            out_dir = tmp_path / f"out{w}"
            code, _, _ = run_cli(
                capsys, "--workers", str(w), "experiment", str(cfg), "--out", str(out_dir)
            )
            assert code == 0
            outputs[w] = (out_dir / "tiny-div.csv").read_bytes()
        assert outputs[1] == outputs[4]

    def test_rerun_reproduces_bit_exactly(self, capsys, tmp_path):
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps(tiny_battery_dict()))
        blobs = []
        for name in ("o1", "o2"):
            out_dir = tmp_path / name
            run_cli(capsys, "experiment", str(cfg), "--out", str(out_dir))
            blobs.append((out_dir / "tiny-div.csv").read_bytes())
            summary = json.loads((out_dir / "tiny-summary.json").read_text())
            blobs.append(json.dumps(summary["results"], sort_keys=True).encode())
        assert blobs[0] == blobs[2]
        assert blobs[1] == blobs[3]

    def test_emitted_config_round_trips(self, capsys, tmp_path):
        # parsing the echoed battery config reproduces the run byte-exactly
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps(tiny_battery_dict()))
        out1 = tmp_path / "o1"
        run_cli(capsys, "experiment", str(cfg), "--out", str(out1))
        summary = json.loads((out1 / "tiny-summary.json").read_text())
        echoed = tmp_path / "echo.json"
        echoed.write_text(json.dumps(summary["battery"]))
        out2 = tmp_path / "o2"
        run_cli(capsys, "experiment", str(echoed), "--out", str(out2))
        assert (out1 / "tiny-div.csv").read_bytes() == (out2 / "tiny-div.csv").read_bytes()

    def test_no_timestamps_in_data_files(self, capsys, tmp_path):
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps(tiny_battery_dict()))
        out_dir = tmp_path / "out"
        run_cli(capsys, "experiment", str(cfg), "--out", str(out_dir))
        summary = json.loads((out_dir / "tiny-summary.json").read_text())
        def keys_of(obj):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    yield k
                    yield from keys_of(v)
            elif isinstance(obj, list):
                for v in obj:
                    yield from keys_of(v)
        assert not any("time" in k or "date" in k for k in keys_of(summary))
        # wall-clock info lives only in the sidecar log
        assert "elapsed" in (out_dir / "tiny-run.log").read_text()

    def test_malformed_config_names_position(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"schema_version": 1, "experiments": [')
        with pytest.raises(SystemExit) as exc:
            main(["experiment", str(cfg)])
        assert "parse error at line" in str(exc.value)

    def test_unknown_family_named(self, tmp_path):
        d = tiny_battery_dict()
        d["experiments"][0]["family"] = {"family": "mystery"}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(d))
        with pytest.raises(SystemExit) as exc:
            main(["experiment", str(cfg)])
        assert "mystery" in str(exc.value)

    def test_zero_samples_override_rejected(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "experiment", "--builtin", "theorem2-demo", "--samples", "0", "--out", str(out_dir)
        )
        assert code == 2
        assert out == "" and "samples must be >= 1" in err
        assert not out_dir.exists()

    def test_builtin_overrides_equal_a_config_that_sets_them(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "experiment", "--builtin", "theorem2-demo", "--samples", "300", "--seed", "9",
            "--out", str(tmp_path / "builtin"),
        )
        assert code == 0
        battery = theorem2_demo_battery().to_dict()
        for e in battery["experiments"]:
            e.update(samples=300, seed=9)
        cfg = tmp_path / "set.json"
        cfg.write_text(json.dumps(battery))
        assert run_cli(capsys, "experiment", str(cfg), "--out", str(tmp_path / "config"))[0] == 0
        summary = json.loads((tmp_path / "builtin" / "theorem2-demo-summary.json").read_text())
        assert [(e["samples"], e["seed"]) for e in summary["battery"]["experiments"]] == [(300, 9), (300, 9)]
        for name in ("summary.json", "divergent-n2.csv", "convergent-tail-n2.csv"):
            path = f"theorem2-demo-{name}"
            assert (tmp_path / "builtin" / path).read_bytes() == (tmp_path / "config" / path).read_bytes()

    def test_anomalies_go_to_stderr_and_exit_1(self, capsys, tmp_path):
        battery = tiny_battery_dict()
        div = battery["experiments"][0]
        div.update(name="mid", n=1, Q=4, seed=0, expect="expect-full", justification={"kind": "plain", "n": 1})
        loud = dict(div, name="loud", family={"family": "power_log", "c": 1.0, "a": 2.0, "b": 0.0},
                    expect="expect-null")
        battery["experiments"] = [loud, div]
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps(battery))
        code, out, err = run_cli(capsys, "experiment", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 1
        assert [line.split(" -> ")[0] for line in out.splitlines()] == ["loud: full-trending", "mid: inconclusive"]
        assert err.splitlines() == [
            "anomaly: loud: expected null-trending, got full-trending (1)",
            "anomaly: mid: expected full-trending, got inconclusive (0.786667)",
        ]
        summary = json.loads((tmp_path / "out" / "tiny-summary.json").read_text())
        assert [r["classification"] for r in summary["results"]] == ["full-trending", "inconclusive"]

    def test_empty_battery(self, capsys, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps({"schema_version": 1, "name": "none", "experiments": []}))
        code, _, _ = run_cli(capsys, "experiment", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 0


class TestPadicCommand:
    def test_counts_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "padic", "--primes", "2", "--weights", "power:1",
            "--Q", "64", "--alphas", "2", "--seed", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha_index,q,count,weighted_log_sum"
        assert len(lines) > 2


MULTIPLES_OF_100 = json.dumps(
    {"family": "indicator_support", "base": {"family": "power_log", "c": 0.25, "a": 1.0, "b": 0.0},
     "support": {"kind": "multiples_of", "param": 100}}
)


class TestBcBound:
    def test_exact_pairs(self, capsys):
        code, out, _ = run_cli(
            capsys, "bc-bound", "--c", "0.25", "--Q", "32", "--coprime",
            "--pairs", "exact-1d", "--samples", "200",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,bound,union,union_ci_low,union_ci_high"
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[1]) <= float(parts[2]) + 1e-12

    def test_monte_carlo_pairs_equal_across_worker_counts(self, capsys):
        outputs = []
        for w in ("1", "2"):
            code, out, _ = run_cli(
                capsys, "--workers", w, "bc-bound", "--c", "0.25", "--n", "2", "--Q0", "16",
                "--Q", "40", "--coprime", "--pairs", "monte-carlo", "--samples", "4000",
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert [line.split(",")[0] for line in outputs[0].splitlines()[1:]] == ["16", "32", "40"]

    def test_samples_reach_the_pair_table(self, capsys):
        base = ("bc-bound", "--c", "0.25", "--n", "2", "--Q0", "16", "--Q", "40", "--coprime")
        bounds = {}
        for pairs in ("independence", "monte-carlo"):
            for count in ("2000", "3000"):
                code, out, _ = run_cli(capsys, *base, "--pairs", pairs, "--samples", count)
                assert code == 0
                bounds[pairs, count] = [line.split(",")[1] for line in out.splitlines()[1:]]
        # the analytic bound ignores the count; the Monte Carlo per-sample depths follow it
        assert bounds["independence", "2000"] == bounds["independence", "3000"]
        assert bounds["monte-carlo", "2000"] != bounds["monte-carlo", "3000"]

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_samples_below_one_rejected(self, capsys, count):
        code, out, err = run_cli(
            capsys, "bc-bound", "--c", "0.25", "--Q", "8", "--coprime",
            "--pairs", "monte-carlo", "--samples", count,
        )
        assert code == 2
        assert out == ""
        assert "samples must be >= 1" in err

    def test_monte_carlo_pairs_need_no_budget(self, capsys):
        # 26 slices give 325 pairs, counted from one depth per sample and one membership pass per slice
        code, out, _ = run_cli(
            capsys, "bc-bound", "--c", "0.25", "--Q", "26", "--coprime",
            "--pairs", "monte-carlo", "--samples", "4000",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1].startswith("26,")
        for line in lines[1:]:
            bound, union, _, high = (float(v) for v in line.split(",")[1:])
            assert 0.0 < bound <= high


    @pytest.mark.parametrize(
        "argv",
        [
            ("--c", "0.01", "--a", "2", "--Q", "500", "--coprime"),
            ("--c", "0.001", "--a", "2", "--Q", "500", "--coprime"),
            ("--c", "0.001", "--a", "2", "--Q", "500", "--plain"),
            ("--family-json", MULTIPLES_OF_100, "--Q0", "100", "--Q", "6000", "--coprime"),
        ],
        ids=["c0.01", "c0.001-coprime", "c0.001-plain", "multiples-of-100"],
    )
    def test_exact_pairs_within_rounding_of_the_union_pass(self, capsys, argv):
        # barely overlapping slices put the float bound a few ulps above the exact union: no anomaly
        code, out, err = run_cli(capsys, "bc-bound", "--pairs", "exact-1d", *argv)
        assert code == 0 and err == "" and len(out.splitlines()) > 1

    @pytest.mark.parametrize("pairs", ["independence", "exact-1d", "monte-carlo"])
    def test_sparse_family_prints_every_checkpoint(self, capsys, pairs):
        # no event below q = 100 has positive measure: those rows read union 0 (exact) and bound 0
        n = "1" if pairs == "exact-1d" else "2"
        code, out, _ = run_cli(
            capsys, "bc-bound", "--family-json", MULTIPLES_OF_100, "--n", n, "--Q", "2000",
            "--samples", "500", "--coprime", "--pairs", pairs,
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2000]
        assert all(r[1:] == ["0", "0", "", ""] for r in rows[:7])
        assert all(float(r[1]) > 0.0 for r in rows[7:])


INFINITE_FAMILY = json.dumps(
    {"family": "conditional", "base": {"family": "power_log", "c": 1, "a": 1, "b": 0}, "anchors": [0.5]}
)


@pytest.mark.parametrize("command", ["sums", "union", "bc-bound"])
def test_infinite_psi_is_a_clean_error(capsys, command):
    # psi(2) = 0.5 / ||2 * 0.5|| = +inf: one error line and exit 2, never a traceback
    code, _, err = run_cli(capsys, command, "--family-json", INFINITE_FAMILY, "--Q", "10")
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "anchor_bits, code, message",
    [(16, 2, "family evaluates to +inf"), (17, 1, "sweep would build more than budget=5000000")],
)
def test_union_raises_the_first_failure_in_q_order(capsys, anchor_bits, code, message):
    # psi is +inf first at q = 2**bits; the intervals of q <= 2**16, the first
    # block of q, already pass the budget, and no q past a failed block is read
    family = {"family": "conditional", "base": {"family": "power_log", "c": 1, "a": 1, "b": 0},
              "anchors": [2.0**-anchor_bits]}
    got, _, err = run_cli(capsys, "union", "--family-json", json.dumps(family), "--Q", str(2**17))
    assert diolab.arith.SCAN_BLOCK == 2**16
    assert got == code
    assert err.startswith(f"error: {message}")


# ---------------------------------------------------------------------------
# golden bytes: the full stdout, stderr and exit code of every table the CLI prints

GOLDEN = {
    "measure-n1": (
        ["measure", "--q", "12", "--delta", "0.1", "--coprime"],
        0, "q,phi_q,psi_q,measure,provenance,ci_low,ci_high\n12,4,0.1,0.0666666666667,exact,,\n", "",
    ),
    "measure-n2": (
        ["measure", "--q", "30", "--n", "2", "--delta", "0.01", "--coprime"],
        0, "q,phi_q,psi_q,measure,provenance,ci_low,ci_high\n30,8,0.01,0.0189847799914,numeric-exact,,\n", "",
    ),
    "measure-n2-max-plain": (
        ["measure", "--q", "7", "--n", "2", "--delta", "0.05", "--mode", "max", "--plain"],
        0, "q,phi_q,psi_q,measure,provenance,ci_low,ci_high\n7,6,0.05,0.2,closed-form,,\n", "",
    ),
    "measure-n3": (
        ["measure", "--q", "30", "--n", "3", "--delta", "0.001", "--coprime"],
        0, "q,phi_q,psi_q,measure,provenance,ci_low,ci_high\n30,8,0.001,0.00698270244601,numeric-exact,,\n", "",
    ),
    "union-grid-coprime": (
        ["union", "--c", "0.25", "--Q0", "3", "--Q", "100", "--grid", "--coprime"],
        0,
        "q,phi_q,psi_q,measure,provenance,ci_low,ci_high\n"
        "3,2,0.0833333333333,0.111111111111,exact,,\n"
        "6,2,0.0416666666667,0.281388888889,exact,,\n"
        "12,4,0.0208333333333,0.48611161866,exact,,\n"
        "24,8,0.0104166666667,0.647277754295,exact,,\n"
        "48,16,0.00520833333333,0.768411162051,exact,,\n"
        "96,32,0.00260416666667,0.850490276029,exact,,\n"
        "100,40,0.0025,0.854492774681,exact,,\n",
        "",
    ),
    "union-plain": (
        ["union", "--c", "0.25", "--Q", "40", "--plain"],
        0, "q,phi_q,psi_q,measure,provenance,ci_low,ci_high\n40,16,0.00625,0.95588676996,exact,,\n", "",
    ),
    "sums": (
        ["sums", "--Q", "100"],
        0,
        "q,partial_sum\n1,1\n2,1.5\n4,2.08333333333\n8,2.71785714286\n16,3.38072899323\n32,4.05849519544\n"
        "64,4.74389090371\n100,5.18737751764\n",
        "",
    ),
    "sums-phi-log-weighted": (
        ["sums", "--criterion", "phi_log_weighted", "--n", "2", "--Q", "100"],
        0,
        "q,partial_sum\n1,0\n2,0.08664339757\n4,0.336044171239\n8,0.844450970659\n16,1.49037746552\n"
        "32,2.46704474838\n64,3.56139897598\n100,4.38221048051\n",
        "",
    ),
    "sums-cond1": (  # the ratio dips at q = 64, and the running maximum holds
        ["sums", "--cond1", "--n", "3", "--Q", "1000"],
        0,
        "q,ratio,running_max\n"
        "2,0.125,0.125\n"
        "4,0.186367364933,0.186367364933\n"
        "8,0.27706724058,0.27706724058\n"
        "16,0.283412021238,0.283412021238\n"
        "32,0.325374093139,0.325374093139\n"
        "64,0.325140153673,0.325374093139\n"
        "128,0.330856902739,0.330856902739\n"
        "256,0.332192134249,0.332192134249\n"
        "512,0.334515314887,0.334515314887\n"
        "1000,0.335033365247,0.335033365247\n",
        "",
    ),
    "sums-adversarial": (
        ["sums", "--family", "adversarial", "--k", "3", "--Q", "1000"],
        0,
        "q,partial_sum\n1,0\n2,0\n4,0\n8,0\n16,0\n32,0.0333333333333\n64,0.05\n128,0.0694444444444\n"
        "256,0.0905952380952\n512,0.114651750755\n1000,0.136293274191\n",
        "",
    ),
    "bc-bound-independence": (
        ["bc-bound", "--c", "0.02", "--n", "2", "--Q", "32", "--samples", "200", "--coprime"],
        0,
        "q,bound,union,union_ci_low,union_ci_high\n"
        "1,0.282058291545,0.235,0.179332503039,0.301074900231\n"
        "2,0.309194450353,0.305,0.243054721462,0.374579713947\n"
        "4,0.351728130907,0.395,0.327461318229,0.46664079072\n"
        "8,0.403753917606,0.515,0.443646341756,0.585768085594\n"
        "16,0.449457997803,0.6,0.528316019369,0.667777498812\n"
        "32,0.49848348683,0.715,0.646234751368,0.775341681665\n",
        "",
    ),
    "bc-bound-exact-1d": (
        ["bc-bound", "--c", "0.25", "--Q", "32", "--samples", "200", "--coprime", "--pairs", "exact-1d"],
        0,
        "q,bound,union,union_ci_low,union_ci_high\n"
        "1,0.5,0.5,,\n"
        "2,0.625,0.625,,\n"
        "4,0.740647401434,0.767361111111,,\n"
        "8,0.786240849379,0.863802437642,,\n"
        "16,0.808570419534,0.909451648025,,\n"
        "32,0.837293879021,0.949930994701,,\n",
        "",
    ),
    "bc-bound-monte-carlo": (
        ["bc-bound", "--c", "0.02", "--n", "2", "--Q", "32", "--samples", "200", "--coprime",
         "--pairs", "monte-carlo"],
        0,
        "q,bound,union,union_ci_low,union_ci_high\n"
        "1,0.282058291545,0.235,0.179332503039,0.301074900231\n"
        "2,0.338109993405,0.305,0.243054721462,0.374579713947\n"
        "4,0.422849587146,0.395,0.327461318229,0.46664079072\n"
        "8,0.536588794121,0.515,0.443646341756,0.585768085594\n"
        "16,0.587151692267,0.6,0.528316019369,0.667777498812\n"
        "32,0.663034532165,0.715,0.646234751368,0.775341681665\n",
        "",
    ),
    "padic": (
        ["padic", "--primes", "2,3", "--weights", "power:1,const:2", "--Q", "32", "--alphas", "2", "--seed", "3"],
        0,
        "alpha_index,q,count,weighted_log_sum\n"
        "0,1,1,0.5\n0,2,2,1\n0,4,3,1.66666666667\n0,8,4,2.50476190476\n0,16,6,3.51566211566\n0,32,8,4.69972746507\n"
        "1,1,1,0.5\n1,2,2,1\n1,4,4,1.66666666667\n1,8,5,2.50476190476\n1,16,7,3.51566211566\n1,32,10,4.69972746507\n",
        "",
    ),
    # error paths: union prints its header before it sweeps; the others print nothing before they fail
    "measure-error": (
        ["measure", "--q", "12", "--delta", "nan", "--coprime"],
        2, "", "error: delta must be >= 0\n",
    ),
    "union-error": (
        ["union", "--family-json", INFINITE_FAMILY, "--Q", "10"],
        2, "q,phi_q,psi_q,measure,provenance,ci_low,ci_high\n",
        "error: family evaluates to +inf inside the truncation range\n",
    ),
    "sums-error": (
        ["sums", "--family-json", INFINITE_FAMILY, "--Q", "10"],
        2, "", "error: family evaluates to +inf inside the summation range\n",
    ),
    "sums-cond1-error": (
        ["sums", "--cond1", "--family-json", INFINITE_FAMILY, "--Q", "10"],
        2, "", "error: family evaluates to +inf inside the summation range\n",
    ),
    "bc-bound-error": (
        ["bc-bound", "--family-json", INFINITE_FAMILY, "--Q", "10"],
        2, "", "error: family must evaluate finite on [Q0, Q]\n",
    ),
    "padic-error": (
        ["padic", "--primes", "2", "--weights", "power:1", "--n", "0", "--Q", "10"],
        2, "", "error: n must be >= 1\n",
    ),
}

GOLDEN_EXPERIMENT_CSV = {
    "theorem2-demo-divergent-n2.csv": (
        "q,phi_q,psi_q,measure,provenance,ci_low,ci_high\n"
        "100,40,0.0025,0.015,monte-carlo,0.00552410950458,0.0323612944808\n"
        "200,80,0.00125,0.8525,monte-carlo,0.813042734563,0.885012140099\n"
        "400,160,0.000625,0.9675,monte-carlo,0.945065183249,0.982583853916\n"
        "800,320,0.0003125,0.9925,monte-carlo,0.978239331486,0.99845064105\n"
        "1600,640,0.00015625,0.995,monte-carlo,0.982055855394,0.999393902191\n"
        "2000,800,0.000125,0.995,monte-carlo,0.982055855394,0.999393902191\n"
    ),
    "theorem2-demo-convergent-tail-n2.csv": (
        "q,phi_q,psi_q,measure,provenance,ci_low,ci_high\n"
        "1000,400,4.38935682924e-07,0,monte-carlo,0,0.00917980458367\n"
        "2000,800,1.49759756304e-07,0.005,monte-carlo,0.000606097809322,0.0179441446056\n"
        "4000,1600,5.28227652535e-08,0.0075,monte-carlo,0.00154935894991,0.0217606685144\n"
    ),
}
GOLDEN_SUMMARY_SHA256 = "d422ac36c3072856736707d447eab49b9f5666f727d723fe07ee081713493455"


class TestGoldenBytes:
    @pytest.mark.parametrize("argv, code, out, err", GOLDEN.values(), ids=GOLDEN.keys())
    def test_command(self, capsys, argv, code, out, err):
        assert run_cli(capsys, *argv) == (code, out, err)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_experiment_files(self, capsys, tmp_path, workers):
        code, out, err = run_cli(
            capsys, "--workers", workers, "experiment", "--builtin", "theorem2-demo", "--samples", "400",
            "--out", str(tmp_path),
        )
        assert (code, err) == (0, "")
        assert out == (
            f"divergent-n2: full-trending -> {tmp_path / 'theorem2-demo-divergent-n2.csv'}\n"
            f"convergent-tail-n2: null-trending -> {tmp_path / 'theorem2-demo-convergent-tail-n2.csv'}\n"
        )
        for name, text in GOLDEN_EXPERIMENT_CSV.items():
            assert (tmp_path / name).read_text() == text
        summary = (tmp_path / "theorem2-demo-summary.json").read_bytes()
        assert hashlib.sha256(summary).hexdigest() == GOLDEN_SUMMARY_SHA256

    def test_experiment_error(self, capsys, tmp_path):
        argv = ["experiment", "--builtin", "theorem2-demo", "--samples", "0", "--out", str(tmp_path / "out")]
        assert run_cli(capsys, *argv) == (2, "", "error: samples must be >= 1\n")


# the per-command formatting that the one cell rule replaced, kept as the oracle


def _old_fmt(x):
    return f"{x:.12g}"


def _old_estimate_fields(est):
    if est.provenance == "monte-carlo":
        return est.provenance, _old_fmt(est.ci_low), _old_fmt(est.ci_high)
    return est.provenance, "", ""


def _old_csv_row(q, phi_q, psi_q, est):  # phi_q is the euler_phi(q) the old row computed
    prov, lo, hi = _old_estimate_fields(est)
    return f"{q},{phi_q},{_old_fmt(psi_q)},{_old_fmt(est.value)},{prov},{lo},{hi}"


def _old_cond1_lines(points):
    best, lines = 0.0, []
    for qc, ratio in points:
        best = max(best, ratio)
        lines.append(f"{qc},{_old_fmt(ratio)},{_old_fmt(best)}")
    return lines


INTS = st.one_of(st.integers(0, 10**4), st.integers(10**12 - 5, 10**12 + 5), st.integers(0, 2**63 - 1))
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan, 1e12, 123456789012.5]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
UNIT = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0]), st.floats(0.0, 1.0, allow_subnormal=True))
ESTIMATES = st.one_of(
    st.builds(MeasureEstimate.exact, UNIT),
    st.builds(MeasureEstimate.closed_form, UNIT),
    st.builds(MeasureEstimate.numeric, UNIT, FLOATS),
    st.integers(1, 200).flatmap(
        lambda n: st.builds(MeasureEstimate.monte_carlo, st.integers(0, n), st.just(n), INTS, st.just("g"))
    ),
)


class TestRowRule:
    @settings(max_examples=150, deadline=None)
    @given(q=INTS, phi=INTS, psi=FLOATS, est=ESTIMATES)
    def test_estimate_rows(self, q, phi, psi, est):
        assert diolab.cli._row(q, phi, psi, est) == _old_csv_row(q, phi, psi, est)

    @settings(max_examples=150, deadline=None)
    @given(q=INTS, i=INTS, count=INTS, x=FLOATS, y=FLOATS, union=ESTIMATES)
    def test_number_rows(self, q, i, count, x, y, union):
        row = diolab.cli._row
        assert row(q, x) == f"{q},{_old_fmt(x)}"  # sums
        assert row(i, q, count, x) == f"{i},{q},{count},{_old_fmt(x)}"  # padic
        _, lo, hi = _old_estimate_fields(union)  # bc-bound: the interval is None unless Monte Carlo
        bc_line = f"{q},{_old_fmt(x)},{_old_fmt(union.value)},{lo},{hi}"
        assert row(q, x, union.value, union.ci_low, union.ci_high) == bc_line
        assert row(q, None, y) == f"{q},,{_old_fmt(y)}"

    @settings(max_examples=200, deadline=None)
    @given(points=st.lists(st.tuples(INTS, FLOATS), min_size=1, max_size=8))
    @example(points=[(2, math.nan), (4, 0.5)])  # a nan first ratio leaves the running maximum at 0
    @example(points=[(2, -0.0), (4, -1.0)])
    def test_cond1_running_maximum(self, points):
        out = io.StringIO()
        with mock.patch.object(diolab.cli, "cond1_scan", lambda f, n, grid: (points, None)), \
                contextlib.redirect_stdout(out):
            assert main(["sums", "--cond1", "--Q", "4"]) == 0
        assert out.getvalue().splitlines() == ["q,ratio,running_max", *_old_cond1_lines(points)]
