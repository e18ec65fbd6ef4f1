import json
import logging
import os
import re
import subprocess
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from contagion import harness
from contagion.harness import (
    FAMILIES,
    TYPE3_TARGET_MEAN_DEGREE,
    TYPE_PARAMS,
    ExperimentSpec,
    replication_seeds,
    resolve_workers,
    run_experiment,
    sweep,
    write_run_directory,
    write_sweep_csv,
)

from conftest import WORKER_MODES, fail_replication_one

# Frozen fixture of the fifteen parameter rows (family x variant).
EXPECTED_TYPE_PARAMS = {
    ("GC", 0): (0.5625, 0.2500, 0.1875, 1.00, 3.00),
    ("S", 0): (0.3750, 0.2500, 0.3750, 2.00, 2.00),
    ("GD", 0): (0.1875, 0.2500, 0.5625, 3.00, 1.00),
    ("GC", 1): (0.1875, 0.7500, 0.0625, 1.00, 3.00),
    ("S", 1): (0.1250, 0.7500, 0.1250, 2.00, 2.00),
    ("GD", 1): (0.0625, 0.7500, 0.1875, 3.00, 1.00),
    ("GC", 2): (0.1875, 0.7500, 0.0625, 25.00, 75.00),
    ("S", 2): (0.1250, 0.7500, 0.1250, 50.00, 50.00),
    ("GD", 2): (0.0625, 0.7500, 0.1875, 75.00, 25.00),
    ("GC", 3): (0.5625, 0.2500, 0.1875, 1.00, 3.00),
    ("S", 3): (0.3750, 0.2500, 0.3750, 2.00, 2.00),
    ("GD", 3): (0.1875, 0.2500, 0.5625, 3.00, 1.00),
    ("GC", 4): (0.5625, 0.2500, 0.1875, 10.00, 30.00),
    ("S", 4): (0.3750, 0.2500, 0.3750, 20.00, 20.00),
    ("GD", 4): (0.1875, 0.2500, 0.5625, 30.00, 10.00),
}


class TestParameterTable:
    def test_rows_match_frozen_fixture(self):
        assert set(TYPE_PARAMS) == set(EXPECTED_TYPE_PARAMS)
        for key, row in EXPECTED_TYPE_PARAMS.items():
            assert TYPE_PARAMS[key] == pytest.approx(row, abs=1e-12), key

    def test_rows_are_valid_probability_mixes(self):
        for (family, variant), (a, b, g, din, dout) in TYPE_PARAMS.items():
            assert a + b + g == pytest.approx(1.0, abs=1e-12)
            assert family in FAMILIES and 0 <= variant <= 4


class TestSpecValidation:
    def test_json_round_trip(self, tmp_path):
        spec = ExperimentSpec("GD", 1, 500, 4, 0.05, 0.01, 2.0, 123)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(asdict(spec)))
        assert ExperimentSpec.from_json(path) == spec

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"network_family": "XX"}, "network_family"),
            ({"type_variant": 7}, "type_variant"),
            ({"n_nodes": 1}, "n_nodes"),
            ({"replications": 0}, "replications"),
            ({"lambda_min": 0.0}, "lambda_min"),
            ({"master_seed": -1}, "^master_seed must be a non-negative integer, got -1$"),
        ],
    )
    def test_invalid_specs(self, kwargs, match):
        base = dict(
            network_family="GC", type_variant=0, n_nodes=100,
            replications=1, master_seed=0,
        )
        base.update(kwargs)
        with pytest.raises(ValueError, match=match):
            ExperimentSpec(**base)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"n_nodes": "60"}, "n_nodes must be an integer, got '60'"),
            ({"n_nodes": 60.5}, "n_nodes must be an integer, got 60.5"),
            ({"replications": True}, "replications must be an integer, got True"),
            ({"type_variant": 0.0}, "type_variant must be an integer, got 0.0"),
            ({"master_seed": None}, "master_seed must be an integer, got None"),
            ({"lambda_min": "0.05"}, "lambda_min must be a number, got '0.05'"),
            ({"sigma": False}, "sigma must be a number, got False"),
            ({"xi": [2.0]}, "xi must be a number, got [2.0]"),
            ({"n_nodes": np.True_}, "n_nodes must be an integer, got np.True_"),
        ],
    )
    def test_wrong_typed_values(self, kwargs, message):
        base = dict(
            network_family="GC", type_variant=0, n_nodes=100,
            replications=1, master_seed=0,
        )
        base.update(kwargs)
        with pytest.raises(ValueError) as info:
            ExperimentSpec(**base)
        assert str(info.value) == message

    def test_an_integer_is_a_number(self):
        assert ExperimentSpec("GC", 0, 100, 1, xi=2).xi == 2

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_nodes", np.int64(100)),
            ("type_variant", np.int32(0)),
            ("master_seed", np.uint32(3)),
            ("xi", np.float32(2.0)),
            ("lambda_min", np.float32(0.05)),
            ("sigma", np.int64(1)),
        ],
    )
    def test_numpy_numbers_are_accepted(self, name, value):
        spec = ExperimentSpec(**{"network_family": "GC", "type_variant": 0,
                                 "n_nodes": 100, "replications": 1, name: value})
        assert getattr(spec, name) == value


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        a = replication_seeds(7, 0)
        b = replication_seeds(7, 0)
        c = replication_seeds(7, 1)
        d = replication_seeds(8, 0)
        assert a == b
        assert a != c and a != d
        assert len(set(a)) == 3

    def test_schedule_independent(self):
        # Seeds for replication 5 do not depend on whether 0..4 ran first.
        direct = replication_seeds(99, 5)
        after_others = [replication_seeds(99, r) for r in range(6)][5]
        assert direct == after_others


class TestRunExperiment:
    def test_small_experiment_shape(self):
        report = run_experiment(
            ExperimentSpec("S", 0, 120, 2, master_seed=5), workers=1
        )
        assert len(report.records) == 2
        assert report.records[0].di.shape == (120,)
        assert report.ranking_di is not None
        assert set(report.means) == set(report.stds)
        assert report.means["dc_aggregate"] >= 0.0

    def test_single_replication_has_no_spread(self):
        report = run_experiment(
            ExperimentSpec("S", 0, 100, 1, master_seed=5), workers=1
        )
        assert np.isnan(report.stds["di_aggregate"])
        assert report.ranking_di is None
        assert any("single replication" in w for w in report.warnings)

    def test_tiny_network_is_flagged(self):
        report = run_experiment(
            ExperimentSpec("S", 0, 2, 1, master_seed=5), workers=1
        )
        assert any("below minimum meaningful size" in w for w in report.warnings)

    def test_type3_hits_target_density(self):
        report = run_experiment(
            ExperimentSpec("GD", 3, 300, 2, master_seed=5), workers=1
        )
        assert report.means["mean_degree"] == pytest.approx(
            TYPE3_TARGET_MEAN_DEGREE, abs=2.0 / 300 + 1e-9
        )
        baseline = run_experiment(
            ExperimentSpec("GD", 0, 300, 2, master_seed=5), workers=1
        )
        assert report.means["gini_total"] < baseline.means["gini_total"]

    def test_reproducible_run_directories(self, tmp_path):
        spec = ExperimentSpec("GC", 0, 100, 2, master_seed=21)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        write_run_directory(run_experiment(spec, workers=1), dir_a)
        write_run_directory(run_experiment(spec, workers=1), dir_b)
        for name in sorted(p.name for p in dir_a.glob("*.csv")):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_worker_count_does_not_change_results(self, tmp_path):
        spec = ExperimentSpec("GC", 0, 80, 2, master_seed=22)
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        write_run_directory(run_experiment(spec, workers=1), serial)
        write_run_directory(run_experiment(spec, workers=2), pooled)
        csvs = sorted(p.name for p in serial.glob("*.csv"))
        assert csvs
        for name in csvs:
            assert (serial / name).read_bytes() == (pooled / name).read_bytes()


    def test_worker_count_does_not_change_counters(self, tmp_path):
        spec = ExperimentSpec("GD", 0, 120, 3, lambda_min=0.01, master_seed=23)
        runtimes = []
        for workers in (1, 2):
            out = write_run_directory(
                run_experiment(spec, workers=workers), tmp_path / f"w{workers}"
            )
            runtimes.append(json.loads((out / "report.json").read_text())["runtime"])
        serial, pooled = (r["replications"] for r in runtimes)
        stages = {"generate", "build", "clear", "metrics"}
        for rows in (serial, pooled):
            assert [row["rep"] for row in rows] == [0, 1, 2]
            for row in rows:
                assert set(row["stage_seconds"]) == stages
                assert all(t >= 0.0 for t in row["stage_seconds"].values())
                assert row["shocks_screened"] + row["shocks_solved"] == 120
                assert row["inner_iterations"] > 0 and row["max_cascade"] > 1

        for row in serial + pooled:
            del row["stage_seconds"]
        assert serial == pooled

    @pytest.mark.parametrize("workers", WORKER_MODES)
    def test_progress_is_logged_in_both_modes(self, caplog, workers):
        caplog.set_level(logging.INFO, logger="contagion.harness")
        run_experiment(ExperimentSpec("GC", 0, 60, 3, master_seed=1), workers=workers)
        assert [r.getMessage() for r in caplog.records] == [
            f"[contagion] GC0 n=60 rep {k}/3 done" for k in (1, 2, 3)
        ]

    @pytest.mark.parametrize("workers", WORKER_MODES)
    def test_failed_replication_is_named(self, monkeypatch, workers):
        monkeypatch.setattr(harness, "_run_replication", fail_replication_one)
        spec = ExperimentSpec("GC", 0, 60, 3, master_seed=1)
        with pytest.raises(ValueError, match=r"^replication 1: sheets broken$"):
            run_experiment(spec, workers=workers)


class TestRunDirectory:
    def test_artifact_set(self, tmp_path):
        spec = ExperimentSpec("S", 0, 90, 2, master_seed=13)
        report = run_experiment(spec, workers=1)
        out = write_run_directory(report, tmp_path / "run")
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "balances_0.csv", "balances_1.csv",
            "edges_0.csv", "edges_1.csv",
            "ranking_dc.csv", "ranking_di.csv",
            "report.json", "summary.csv",
        ]
        summary_lines = (out / "summary.csv").read_text().splitlines()
        assert summary_lines[0].startswith("rep,di_aggregate,dc_aggregate")
        assert len(summary_lines) == 3
        ranking = (out / "ranking_di.csv").read_text().splitlines()
        assert ranking[0] == "position,mean,std,cv"
        assert len(ranking) == 1 + 90
        payload = json.loads((out / "report.json").read_text())
        assert payload["spec"]["network_family"] == "S"
        assert "pearson_f_dc" in payload["correlation_means"]


def _sweep_rows(reports, parameter, path):
    write_sweep_csv(reports, parameter, path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        f"{parameter},di_mean,di_std,dc_mean,dc_std,di_max_mean,dc_max_mean,flag"
    )
    return [line.split(",") for line in lines[1:]]


class TestSweeps:
    def test_size_sweep_rows_and_flags(self, tmp_path):
        spec = ExperimentSpec("S", 0, 100, 1, master_seed=9)
        reports = sweep(spec, "n_nodes", [2, 100], workers=1)
        assert [r.spec.n_nodes for r in reports] == [2, 100]
        rows = _sweep_rows(reports, "n_nodes", tmp_path / "sizes.csv")
        assert [(row[0], row[-1]) for row in rows] == [
            ("2", "below_min_meaningful_size"), ("100", ""),
        ]

    def test_family_sweep_writes_the_names(self, tmp_path):
        spec = ExperimentSpec("S", 0, 30, 1, master_seed=9)
        reports = sweep(spec, "network_family", ["S", "GD"], workers=1)
        rows = _sweep_rows(reports, "network_family", tmp_path / "families.csv")
        assert [(row[0], row[-1]) for row in rows] == [
            ("S", "below_min_meaningful_size"), ("GD", "below_min_meaningful_size"),
        ]

    @pytest.mark.parametrize(
        "n, flag", [(99, "below_min_meaningful_size"), (100, "")]
    )
    def test_capital_sweep_flags_small_networks(self, tmp_path, n, flag):
        spec = ExperimentSpec("S", 0, n, 1, master_seed=9)
        reports = sweep(spec, "lambda_min", [0.05, 0.10], workers=1)
        rows = _sweep_rows(reports, "lambda_min", tmp_path / "lambdas.csv")
        assert [(row[0], row[-1]) for row in rows] == [("0.05", flag), ("0.1", flag)]

    def test_single_point_sweep_is_the_experiment(self):
        spec = ExperimentSpec("S", 0, 100, 1, master_seed=9)
        [report] = sweep(spec, "lambda_min", [0.05], workers=1)
        assert report.spec == spec
        assert report.means == run_experiment(spec, workers=1).means

    def test_capital_sweep_two_points(self):
        spec = ExperimentSpec("GD", 0, 200, 2, master_seed=9)
        low, high = sweep(spec, "lambda_min", [0.01, 0.10], workers=1)
        assert [low.spec.lambda_min, high.spec.lambda_min] == [0.01, 0.10]
        assert low.means["dc_aggregate"] > high.means["dc_aggregate"]

    def test_numpy_sweep_writes_the_python_int_run_directory(self, tmp_path):
        spec = ExperimentSpec("S", 0, 40, 1, master_seed=3)
        first, second = sweep(spec, "n_nodes", np.array([40, 60]), workers=1)
        assert second.spec.n_nodes == 60
        dirs = [
            write_run_directory(report, tmp_path / name)
            for report, name in ((first, "numpy"), (run_experiment(spec, workers=1), "python"))
        ]
        for d in dirs:
            report = json.loads((d / "report.json").read_text())
            del report["runtime"]
            (d / "report.json").write_text(json.dumps(report))
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

    def test_every_accepted_number_is_written(self, tmp_path):
        spec = ExperimentSpec("S", 0, 40, 1, master_seed=3)
        reports = sweep(spec, "xi", [Fraction(2), np.float32(2.5)], workers=1)
        rows = _sweep_rows(reports, "xi", tmp_path / "xi.csv")
        assert [row[0] for row in rows] == ["2", "2.5"]
        for report, xi in zip(reports, (2.0, 2.5)):
            out = write_run_directory(report, tmp_path / str(xi))
            assert json.loads((out / "report.json").read_text())["spec"]["xi"] == xi

    def test_capital_sweep_clears_the_same_networks(self):
        # Variant 3 also densifies, so the augmentation stream is covered.
        spec = ExperimentSpec("GD", 3, 120, 2, master_seed=9)
        reports = sweep(spec, "lambda_min", [0.01, 0.05, 0.10], workers=1)
        first = reports[0].records
        for report in reports[1:]:
            for a, b in zip(first, report.records, strict=True):
                assert np.array_equal(a.graph.links, b.graph.links)
                assert not np.array_equal(a.sheets.lam, b.sheets.lam)


class TestWorkerResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("CONTAGION_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("CONTAGION_WORKERS", "5")
        assert resolve_workers() == 5

    def test_invalid_env(self, monkeypatch):
        for value in ("0", "x", "2.5"):
            monkeypatch.setenv("CONTAGION_WORKERS", value)
            message = f"CONTAGION_WORKERS must be an integer >= 1, got '{value}'"
            with pytest.raises(ValueError, match=re.escape(message)):
                resolve_workers()

    def test_explicit_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="^worker count must be >= 1$"):
            resolve_workers(0)

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("CONTAGION_WORKERS", raising=False)
        assert resolve_workers() >= 1


def test_serial_run_loads_no_pool_or_masked_arrays():
    # A serial run needs neither the process pool (concurrent.futures
    # brings in multiprocessing) nor numpy.ma, which np.unique and
    # np.quantile import.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "from contagion import ExperimentSpec, run_experiment\n"
        "for variant in (0, 3):\n"
        "    spec = ExperimentSpec('GD', variant, n_nodes=200, replications=2,\n"
        "                          lambda_min=0.01, xi=1.1, master_seed=1)\n"
        "    run_experiment(spec, workers=1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'\n"
        "             or m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=os.environ | {"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
