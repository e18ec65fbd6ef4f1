import json
import subprocess
import sys

import numpy as np
import pytest

from contagion import harness
from contagion.cli import main
from contagion.netgen import read_edge_list

from conftest import WORKER_MODES, fail_replication_one


def _degree_file(tmp_path, edges_path):
    graph = read_edge_list(edges_path)
    degrees = graph.in_degree[graph.in_degree > 0]
    path = tmp_path / "degrees.txt"
    path.write_text("".join(f"{int(k)}\n" for k in degrees))
    return path


class TestGenerateCommand:
    def test_writes_edge_list(self, tmp_path, capsys):
        out = tmp_path / "net.csv"
        rc = main([
            "generate", "--alpha", "0.1875", "--beta", "0.25",
            "--gamma", "0.5625", "--delta-in", "3", "--delta-out", "1",
            "--nodes", "200", "--seed", "11", "--out", str(out),
        ])
        assert rc == 0
        graph = read_edge_list(out)
        assert graph.n == 200
        assert out.read_text().startswith("# nodes=200 seed=11\n")

    def test_deterministic_output(self, tmp_path):
        args = [
            "generate", "--alpha", "0.375", "--beta", "0.25",
            "--gamma", "0.375", "--delta-in", "2", "--delta-out", "2",
            "--nodes", "150", "--seed", "3",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_offset_is_a_one_line_error(self, tmp_path, capsys, bad):
        out = tmp_path / "net.csv"
        rc = main([
            "generate", "--alpha", "0.1875", "--beta", "0.25",
            "--gamma", "0.5625", f"--delta-in={bad}", "--delta-out", "1",
            "--nodes", "200", "--seed", "11", "--out", str(out),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "contagion generate: error: delta_in and delta_out must be "
            "finite and non-negative\n"
        )
        assert not out.exists()


class TestFitCommand:
    def test_emits_json_record(self, tmp_path, capsys):
        net = tmp_path / "net.csv"
        main([
            "generate", "--alpha", "0.5625", "--beta", "0.25",
            "--gamma", "0.1875", "--delta-in", "1", "--delta-out", "3",
            "--nodes", "400", "--seed", "7", "--out", str(net),
        ])
        capsys.readouterr()
        degrees = _degree_file(tmp_path, net)
        rc = main(["fit", "--input", str(degrees)])
        assert rc == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert set(record) == {"exponent", "x_min", "ks", "n_tail"}
        assert record["exponent"] > 1.0
        assert record["n_tail"] >= 2

    def test_malformed_sample_line_is_a_one_line_error(self, tmp_path, capsys):
        samples = tmp_path / "degrees.txt"
        samples.write_text("# degrees\n3\n\n4\n2.5\n")
        capsys.readouterr()
        rc = main(["fit", "--input", str(samples)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"contagion fit: error: {samples}:5: malformed sample line '2.5'\n"
        )


class TestShockCommand:
    def test_reports_cascade(self, tmp_path, capsys):
        net = tmp_path / "net.csv"
        main([
            "generate", "--alpha", "0.1875", "--beta", "0.25",
            "--gamma", "0.5625", "--delta-in", "3", "--delta-out", "1",
            "--nodes", "200", "--seed", "5", "--out", str(net),
        ])
        capsys.readouterr()
        trace = tmp_path / "trace.jsonl"
        rc = main([
            "shock", "--edges", str(net), "--bank", "0",
            "--seed", "2", "--trace", str(trace),
        ])
        assert rc == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["bank"] == 0
        assert 0.0 <= record["di"] <= record["ti"] <= 1.0
        assert 0.0 <= record["dc"] <= 1.0
        rounds = [json.loads(line) for line in trace.read_text().splitlines()]
        assert rounds and rounds[0]["round"] == 0
        assert all({"round", "new_defaults", "max_delta"} <= set(r) for r in rounds)


    def _network(self, tmp_path):
        net = tmp_path / "net.csv"
        main([
            "generate", "--alpha", "0.1875", "--beta", "0.25",
            "--gamma", "0.5625", "--delta-in", "3", "--delta-out", "1",
            "--nodes", "200", "--seed", "5", "--out", str(net),
        ])
        return net

    def test_defaulted_recovery_reaches_the_scenario(self, tmp_path, capsys):
        net = self._network(tmp_path)
        capsys.readouterr()
        records = []
        for value in ("1", "0"):
            rc = main([
                "shock", "--edges", str(net), "--bank", "0", "--seed", "2",
                "--lambda-min", "0.01", "--defaulted-recovery", value,
            ])
            assert rc == 0
            records.append(json.loads(capsys.readouterr().out.strip()))
        pooled, fenced = records
        # Fencing off defaulted banks' nonbank assets can only deepen losses.
        assert set(pooled["defaulted"]) <= set(fenced["defaulted"])
        assert fenced["di"] > pooled["di"]

    def test_malformed_edge_line_is_a_one_line_error(self, tmp_path, capsys):
        net = tmp_path / "net.csv"
        net.write_text("# nodes=3 seed=0\n0,1\n1;2\n")
        capsys.readouterr()
        rc = main(["shock", "--edges", str(net), "--bank", "0"])
        assert rc != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"{net}:3" in captured.err and "1;2" in captured.err
        assert "Traceback" not in captured.err

    def test_bank_out_of_range_is_a_one_line_error(self, tmp_path, capsys):
        net = self._network(tmp_path)
        capsys.readouterr()
        rc = main(["shock", "--edges", str(net), "--bank", "200"])
        assert rc != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "contagion shock: error: --bank 200 outside [0, 200)\n"


class TestSweepCommand:
    def test_runs_spec_and_sweeps(self, tmp_path, capsys):
        spec = {
            "network_family": "S",
            "type_variant": 0,
            "n_nodes": 90,
            "replications": 2,
            "lambda_min": 0.05,
            "sigma": 0.01,
            "xi": 2.0,
            "master_seed": 4,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "run"
        rc = main([
            "sweep", "--spec", str(spec_path), "--out", str(out),
            "--workers", "1", "--sizes", "60", "90",
            "--lambdas", "0.05", "0.10",
        ])
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert {"summary.csv", "report.json", "size_sweep.csv",
                "capital_sweep.csv"} <= names
        size_lines = (out / "size_sweep.csv").read_text().splitlines()
        assert size_lines[0].startswith("n_nodes,di_mean")
        assert len(size_lines) == 3
        lam_lines = (out / "capital_sweep.csv").read_text().splitlines()
        assert lam_lines[0].startswith("lambda_min,di_mean")

    def test_each_distinct_experiment_runs_once(self, tmp_path, monkeypatch):
        calls = []
        run_experiment = harness.run_experiment

        def counting(spec, workers=None):
            calls.append(spec)
            return run_experiment(spec, workers=workers)

        monkeypatch.setattr(harness, "run_experiment", counting)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "network_family": "GC", "type_variant": 0, "n_nodes": 60,
            "replications": 1, "lambda_min": 0.05, "master_seed": 1,
        }))
        out = tmp_path / "r"
        rc = main(["sweep", "--spec", str(spec_path), "--out", str(out),
                   "--workers", "1", "--sizes", "60", "90", "90",
                   "--lambdas", "0.05", "0.10"])
        assert rc == 0
        # The base spec, n_nodes 90 and lambda_min 0.10: three of six points.
        assert [(s.n_nodes, s.lambda_min) for s in calls] == [
            (60, 0.05), (90, 0.05), (60, 0.10),
        ]
        size_rows = (out / "size_sweep.csv").read_text().splitlines()[1:]
        assert len(size_rows) == 3 and size_rows[1] == size_rows[2]
        lam_rows = (out / "capital_sweep.csv").read_text().splitlines()[1:]
        assert lam_rows[0].split(",")[1:] == size_rows[0].split(",")[1:]

    def test_stdout_stays_clean(self, tmp_path, capsys):
        spec = {
            "network_family": "GC", "type_variant": 0, "n_nodes": 60,
            "replications": 1, "master_seed": 1,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "r"),
              "--workers", "1"])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[contagion]" in captured.err

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("n_nodes", "60", "n_nodes must be an integer, got '60'"),
            ("n_nodes", 60.5, "n_nodes must be an integer, got 60.5"),
            ("replications", True, "replications must be an integer, got True"),
            ("xi", "2", "xi must be a number, got '2'"),
            # json writes and reads a NaN float as the bare token NaN.
            ("sigma", float("nan"), "sigma must be finite and positive"),
        ],
    )
    def test_wrong_typed_spec_value_is_one_error_line(
        self, tmp_path, capsys, key, value, message
    ):
        spec = {
            "network_family": "GC", "type_variant": 0, "n_nodes": 60,
            "replications": 1, "master_seed": 1,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec | {key: value}))
        rc = main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "r"),
                   "--workers", "1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"contagion sweep: error: {message}\n"

    @pytest.mark.parametrize("workers", WORKER_MODES)
    def test_failed_replication_is_one_error_line(
        self, tmp_path, capsys, monkeypatch, workers
    ):
        monkeypatch.setattr(harness, "_run_replication", fail_replication_one)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "network_family": "GC", "type_variant": 0, "n_nodes": 60,
            "replications": 2, "master_seed": 1,
        }))
        rc = main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "r"),
                   "--workers", str(workers)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "error" in line] == [
            "contagion sweep: error: replication 1: sheets broken"
        ]


class TestProgressLogging:
    def test_library_is_quiet_without_a_handler(self):
        code = (
            "from contagion.harness import ExperimentSpec, run_experiment\n"
            "run_experiment(ExperimentSpec('GC', 0, 60, 2, master_seed=1), workers=1)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_cli_shows_replication_progress(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "network_family": "GC", "type_variant": 0, "n_nodes": 60,
            "replications": 2, "master_seed": 1,
        }))
        main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "r"),
              "--workers", "1"])
        err = capsys.readouterr().err
        assert "[contagion] GC0 n=60 rep 1/2 done\n" in err
        assert "[contagion] GC0 n=60 rep 2/2 done\n" in err


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        out = tmp_path / "net.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "contagion.cli",
                "generate", "--alpha", "0.375", "--beta", "0.25",
                "--gamma", "0.375", "--delta-in", "2", "--delta-out", "2",
                "--nodes", "50", "--seed", "1", "--out", str(out),
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    @pytest.mark.parametrize(
        "payload,message",
        [
            (
                {"network_family": "GC", "type_variant": 0, "n_nodes": 60,
                 "replications": 1, "lambda": 0.05},
                "unknown spec keys ['lambda']",
            ),
            (
                {"network_family": "GC", "type_variant": 0, "n_nodes": 60},
                "missing spec keys ['replications']",
            ),
            (["GC", 0, 60, 1], "spec must be a JSON object"),
            (
                "{network_family: 'GC'}",
                "not valid JSON: Expecting property name enclosed in double "
                "quotes: line 1 column 2 (char 1)",
            ),
        ],
        ids=["unknown-key", "missing-key", "not-an-object", "not-json"],
    )
    def test_malformed_spec_is_a_one_line_error(
        self, tmp_path, capsys, payload, message
    ):
        # A string payload is written as it stands, not JSON-encoded.
        text = payload if isinstance(payload, str) else json.dumps(payload)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        rc = main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "r"),
                   "--workers", "1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"contagion sweep: error: {spec_path}: {message}\n"
