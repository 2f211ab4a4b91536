import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import diolab.arith
import diolab.cli
import diolab.psi
from diolab.arith import phi_segment
from diolab.cli import CSV_HEADER, main
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
