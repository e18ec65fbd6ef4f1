import inspect
import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from contagion import harness, netgen
from contagion.balance import BalanceConfig, build_balance_sheets, build_exposures
from contagion.cli import build_parser, main
from contagion.clearing import ShockScenario, clear, clear_all
from contagion.netgen import read_edge_list

from conftest import WORKER_MODES, fail_replication_one


def _degree_file(tmp_path, edges_path):
    graph = read_edge_list(edges_path)
    degrees = graph.in_degree[graph.in_degree > 0]
    path = tmp_path / "degrees.txt"
    path.write_text("".join(f"{int(k)}\n" for k in degrees))
    return path


# Twelve valid samples, enough for a fit.
TWELVE_SAMPLES = b"1\n2\n4\n" * 4


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

    def test_textless_memory_error_prints_its_class_name(
        self, tmp_path, monkeypatch, capsys
    ):
        # Growth that runs out of memory raises MemoryError without text;
        # simulated, not allocated.
        def exhausted(params):
            raise MemoryError()

        monkeypatch.setattr(netgen, "generate", exhausted)
        out = tmp_path / "net.csv"
        rc = main([
            "generate", "--alpha", "0.1875", "--beta", "0.25",
            "--gamma", "0.5625", "--delta-in", "3", "--delta-out", "1",
            "--nodes", "200", "--seed", "1", "--out", str(out),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "contagion generate: error: MemoryError\n"
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

    @pytest.mark.parametrize(
        "content, message",
        [
            (TWELVE_SAMPLES + b"3\n99999999999999999999\n",
             "{path}: samples must be positive integers"),
            (TWELVE_SAMPLES + b"3\n-99999999999999999999\n",
             "{path}: samples must be positive integers"),
            (TWELVE_SAMPLES + b"# degrees\n3\n\xc3\xa9\n", "{path}:15: not ASCII text"),
            (b"1\n2\n4\n", "{path}: need at least 10 samples, got 3"),
            (b"5\n" * 12, "{path}: degenerate sequence: all samples equal"),
            (TWELVE_SAMPLES + b"0\n", "{path}: samples must be positive integers"),
        ],
        ids=["huge", "huge-negative", "non-ascii", "too-few", "all-equal", "zero"],
    )
    def test_unreadable_sample_is_a_one_line_error(
        self, tmp_path, capsys, content, message
    ):
        samples = tmp_path / "degrees.txt"
        samples.write_bytes(content)
        capsys.readouterr()
        rc = main(["fit", "--input", str(samples)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"contagion fit: error: {message.format(path=samples)}\n"


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

    @pytest.mark.parametrize("defaulted_recovery", ["1", "0"])
    def test_record_agrees_with_clear_all_and_its_trace(
        self, tmp_path, capsys, defaulted_recovery
    ):
        net = self._network(tmp_path)
        capsys.readouterr()
        # The sheets the command builds from --seed 2 --lambda-min 0.01.
        exposures = build_exposures(read_edge_list(net))
        sheets = build_balance_sheets(exposures, BalanceConfig(0.01, 0.01, 2.0, seed=2))
        every = clear_all(exposures, sheets, 0.0, float(defaulted_recovery))
        bank = int(np.argmax(every.dc))
        assert every.dc[bank] > 0.0
        trace = tmp_path / "trace.jsonl"
        rc = main([
            "shock", "--edges", str(net), "--bank", str(bank), "--seed", "2",
            "--lambda-min", "0.01", "--defaulted-recovery", defaulted_recovery,
            "--trace", str(trace),
        ])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["bank"] == bank
        for name in ("di", "ti", "dc"):
            assert record[name] == getattr(every, name)[bank], name
        rounds = [json.loads(line) for line in trace.read_text().splitlines()]
        fresh = [b for r in rounds for b in r["new_defaults"]]
        assert record["defaulted"] == sorted(fresh)
        assert len(fresh) == len(set(fresh)) > 1
        scenario = ShockScenario(bank, 0.0, float(defaulted_recovery))
        assert trace.read_text().splitlines() == [
            json.dumps({"round": k, "new_defaults": list(banks), "max_delta": max_delta})
            for k, (banks, max_delta) in enumerate(clear(exposures, sheets, scenario).rounds)
        ]

    def test_defaults_are_those_of_the_sheet_and_scenario_dataclasses(self):
        sheet = {f.name: f.default for f in fields(BalanceConfig)}
        scenario = {f.name: f.default for f in fields(ShockScenario)}
        args = build_parser().parse_args(["shock", "--edges", "e.csv", "--bank", "0"])
        assert (args.lambda_min, args.sigma, args.xi, args.seed) == (
            sheet["lambda_min"], sheet["sigma"], sheet["xi"], sheet["seed"]
        )
        assert (args.recovery, args.defaulted_recovery) == (
            scenario["recovery_on_nonbank"], scenario["defaulted_nonbank_recovery"]
        )
        spec = {f.name: f.default for f in fields(harness.ExperimentSpec)}
        for name in ("lambda_min", "sigma", "xi"):
            assert spec[name] == sheet[name]
        signature = inspect.signature(clear_all).parameters
        for name in ("recovery_on_nonbank", "defaulted_nonbank_recovery"):
            assert signature[name].default == scenario[name]

    def _assert_edge_file_error(self, tmp_path, capsys, text, message):
        net = tmp_path / "net.csv"
        net.write_bytes(text.encode())
        capsys.readouterr()
        rc = main(["shock", "--edges", str(net), "--bank", "0"])
        assert rc != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"contagion shock: error: {net}{message}\n"

    def test_malformed_edge_line_is_a_one_line_error(self, tmp_path, capsys):
        self._assert_edge_file_error(
            tmp_path, capsys, "# nodes=3 seed=0\n0,1\n1;2\n",
            ":3: malformed edge-list line '1;2'",
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# nodes=2\n0,1\n1,5\n", ": link (1, 5) outside node range [0, 2)"),
            ("# nodes=3\n0,1\n1,1\n", ": self-link at node 1"),
            ("# nodes=-4\n0,1\n", ": graph needs at least one node"),
            ("# nodes=5 seed=1\n", ": graph has no links; exposures undefined"),
            # Link codes source * nodes + target must fit in 64 bits.
            (
                "# nodes=9999999999999999\n0,1\n",
                ": graph needs at most 3037000499 nodes, got 9999999999999999",
            ),
            (
                "# nodes=3037000500\n0,1\n",
                ": graph needs at most 3037000499 nodes, got 3037000500",
            ),
            ("0,3037000499\n", ": graph needs at most 3037000499 nodes, got 3037000500"),
        ],
        ids=[
            "out-of-range", "self-link", "negative-nodes", "linkless",
            "huge-header", "header-past-bound", "id-past-bound",
        ],
    )
    def test_invalid_edge_file_is_a_one_line_error_naming_it(
        self, tmp_path, capsys, text, message
    ):
        self._assert_edge_file_error(tmp_path, capsys, text, message)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "99999999999999999999,1\n",
                ":1: malformed edge-list line '99999999999999999999,1'",
            ),
            (
                "0,1\n1,9223372036854775808\n",
                ":2: malformed edge-list line '1,9223372036854775808'",
            ),
            (
                "# nodes=99999999999999999999\n0,1\n",
                ":1: malformed edge-list line '# nodes=99999999999999999999'",
            ),
        ],
        ids=["huge-link", "link-past-int64", "huge-nodes"],
    )
    def test_integers_beyond_64_bits_are_a_one_line_error(
        self, tmp_path, capsys, text, message
    ):
        self._assert_edge_file_error(tmp_path, capsys, text, message)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# nodes=2 bank=\u00e9\n0,1\n", ":1: not ASCII text"),
            # Past the decoder's first chunk, the line is still the right one.
            ("0,1\n" * 5000 + "1,\u00e9\n", ":5001: not ASCII text"),
        ],
        ids=["header", "line-5001"],
    )
    def test_non_ascii_edge_file_is_a_one_line_error_naming_it(
        self, tmp_path, capsys, text, message
    ):
        self._assert_edge_file_error(tmp_path, capsys, text, message)

    def test_edge_file_too_large_for_memory_is_a_one_line_error_naming_it(
        self, tmp_path, monkeypatch, capsys
    ):
        # A header within the node bound whose degree tallies cannot be
        # allocated; the allocation failure is simulated, not provoked.
        def bincount(*args, **kwargs):
            raise MemoryError(
                "Unable to allocate 22.4 GiB for an array with shape "
                "(3000000000,) and data type int64"
            )

        monkeypatch.setattr(netgen.np, "bincount", bincount)
        self._assert_edge_file_error(
            tmp_path, capsys, "# nodes=3000000000\n0,1\n",
            ": Unable to allocate 22.4 GiB for an array with shape "
            "(3000000000,) and data type int64",
        )

    def test_unallocatable_network_is_a_one_line_error(self, monkeypatch, capsys):
        # A huge ``nodes=`` header fails to allocate; simulated, not allocated.
        def huge(path):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(netgen, "read_edge_list", huge)
        rc = main(["shock", "--edges", "net.csv", "--bank", "0"])
        assert rc != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "contagion shock: error: Unable to allocate 745. GiB for an array\n"
        )

    def test_bank_out_of_range_is_a_one_line_error(self, tmp_path, capsys):
        net = self._network(tmp_path)
        capsys.readouterr()
        rc = main(["shock", "--edges", str(net), "--bank", "200"])
        assert rc != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "contagion shock: error: --bank 200 outside [0, 200)\n"

    def test_unwritable_trace_is_a_one_line_error(self, tmp_path, capsys):
        net = self._network(tmp_path)
        capsys.readouterr()
        trace = tmp_path / "missing" / "trace.jsonl"
        rc = main(["shock", "--edges", str(net), "--bank", "0", "--trace", str(trace)])
        assert rc != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"contagion shock: error: [Errno 2] No such file or directory: '{trace}'\n"
        )


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
        grown, cleared = [], []

        def counting(calls, fn):
            return lambda *args: calls.append(args) or fn(*args)

        monkeypatch.setattr(harness, "generate", counting(grown, harness.generate))
        monkeypatch.setattr(harness, "clear_all", counting(cleared, harness.clear_all))
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
        # Three of six points are distinct: the base spec, n_nodes 90 and
        # lambda_min 0.10. The last shares the base spec's network, so two
        # topologies grow, one replication each.
        assert [params.n_target for params, in grown] == [60, 90]
        assert [(exposures.n, sheets.lam.min() > 0.10) for exposures, sheets in cleared] == [
            (60, False), (60, True), (90, False),
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
        assert captured.err == f"contagion sweep: error: {spec_path}: {message}\n"

    def test_oversized_sweep_point_fails_before_any_replication(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "network_family": "S", "type_variant": 0, "n_nodes": 60,
            "replications": 2, "master_seed": 1,
        }))
        rc = main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "r"),
                   "--workers", "1", "--sizes", "60", "4000000000"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "contagion sweep: error: n_nodes must be at most 3037000499, got 4000000000\n"
        )
        assert not (tmp_path / "r").exists()

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
        # Every point runs before the first file is written.
        assert not (tmp_path / "r").exists()

    def test_bare_memory_error_in_a_replication_keeps_its_name(
        self, tmp_path, capsys, monkeypatch
    ):
        # List allocations in growth raise MemoryError without text.
        def out_of_memory(task):
            raise MemoryError()

        monkeypatch.setattr(harness, "_run_replication", out_of_memory)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "network_family": "GC", "type_variant": 0, "n_nodes": 60,
            "replications": 1, "master_seed": 1,
        }))
        rc = main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "r"),
                   "--workers", "1"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "error" in line] == [
            "contagion sweep: error: replication 0: MemoryError"
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
            (
                b'{"network_family": "G\xc9"}',
                "not valid JSON: 'utf-8' codec can't decode byte 0xc9 in position 21: "
                "invalid continuation byte",
            ),
        ],
        ids=["unknown-key", "missing-key", "not-an-object", "not-json", "not-utf-8"],
    )
    def test_malformed_spec_is_a_one_line_error(
        self, tmp_path, capsys, payload, message
    ):
        # A string or bytes payload is written as it stands, not JSON-encoded.
        if isinstance(payload, str):
            payload = payload.encode()
        elif not isinstance(payload, bytes):
            payload = json.dumps(payload).encode()
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(payload)
        rc = main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "r"),
                   "--workers", "1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"contagion sweep: error: {spec_path}: {message}\n"
