import csv
import hashlib
import json
import logging
import math
import os
import re
import statistics
import subprocess
import sys
from dataclasses import asdict, fields, replace
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
    run_experiment,
    sweep,
    write_run_directory,
    write_sweep_csv,
)
from contagion.metrics import NetworkRiskSummary, TopoIndices, index_impact_correlation

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

    def test_two_bank_correlations_are_undefined(self):
        # Two pooled points would correlate at +-1 by construction.
        report = run_experiment(ExperimentSpec("S", 0, 2, 1), workers=1)
        assert set(report.correlation_pooled.values()) == {None}
        assert set(report.correlation_means.values()) == {None}

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
        stages = {"generate", "augment", "exposures", "sheets", "clear", "metrics"}
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


@pytest.fixture(scope="module")
def ensemble():
    """Three serial replications of a 200-bank GD0 system."""
    return run_experiment(ExperimentSpec("GD", 0, 200, 3, master_seed=17), workers=1)


class TestAggregates:
    """Each ensemble aggregate, recomputed from the records by other code."""

    def test_stds_are_sample_standard_deviations(self, ensemble):
        assert set(ensemble.stds) == {f.name for f in fields(NetworkRiskSummary)}
        for key, std in ensemble.stds.items():
            values = [getattr(rec.summary, key) for rec in ensemble.records]
            assert ensemble.means[key] == pytest.approx(statistics.fmean(values), rel=1e-12)
            assert std == pytest.approx(statistics.stdev(values), rel=1e-12)
        assert ensemble.stds["mean_degree"] > 0.0

    def test_correlation_means_average_the_replications(self, ensemble):
        for rec in ensemble.records:
            own = index_impact_correlation(TopoIndices(rec.cs, rec.frailty), rec.di, rec.dc)
            assert rec.correlations == own
        for name, mean in ensemble.correlation_means.items():
            values = [getattr(rec.correlations, name) for rec in ensemble.records]
            assert len(set(values)) == 3
            assert mean == pytest.approx(statistics.fmean(values), rel=1e-12)

    def test_pooled_correlations_cover_every_replication(self, ensemble):
        cs, frailty, di, dc = (
            np.concatenate([getattr(rec, name) for rec in ensemble.records])
            for name in ("cs", "frailty", "di", "dc")
        )
        pooled = asdict(index_impact_correlation(TopoIndices(cs, frailty), di, dc))
        assert ensemble.correlation_pooled == pooled
        assert pooled != asdict(ensemble.records[0].correlations)

    def test_sweep_columns_carry_their_aggregates(self, ensemble, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv([ensemble], "n_nodes", path)
        with open(path, newline="", encoding="ascii") as fh:
            [row] = csv.DictReader(fh)
        means, stds = ensemble.means, ensemble.stds
        expected = {
            "n_nodes": 200,
            "di_mean": means["di_aggregate"],
            "di_std": stds["di_aggregate"],
            "dc_mean": means["dc_aggregate"],
            "dc_std": stds["dc_aggregate"],
            "di_max_mean": means["di_max"],
            "dc_max_mean": means["dc_max"],
        }
        for column, value in expected.items():
            assert float(row[column]) == pytest.approx(value, rel=1e-11), column
        assert row["flag"] == ""
        assert not math.isclose(means["di_max"], means["dc_max"], rel_tol=1e-6)


@pytest.fixture(scope="module")
def runtimes(tmp_path_factory):
    """``report.json`` runtime blocks of a densified GD3 ensemble, by worker count."""
    spec = ExperimentSpec("GD", 3, 120, 2, master_seed=29)
    out = {}
    for workers in (1, 2):
        run = write_run_directory(
            run_experiment(spec, workers=workers), tmp_path_factory.mktemp(f"w{workers}")
        )
        out[workers] = json.loads((run / "report.json").read_text())["runtime"]
    return out


@pytest.fixture(scope="module")
def sweep_runtimes(tmp_path_factory):
    """Runtime blocks of the points of a two-point ``lambda_min`` sweep of
    GD3, by worker count."""
    spec = ExperimentSpec("GD", 3, 120, 2, master_seed=29)
    out = {}
    for workers in (1, 2):
        out[workers] = [
            json.loads((write_run_directory(report, tmp_path_factory.mktemp("s")) /
                        "report.json").read_text())["runtime"]
            for report in sweep(spec, "lambda_min", [0.05, 0.01], workers=workers)
        ]
    return out


STAGES = {"generate", "augment", "exposures", "sheets", "clear", "metrics"}
SHARED_STAGES = ("generate", "augment", "exposures")


def _assert_totals_sum(runtime):
    rows, totals = runtime["replications"], runtime["totals"]
    for key, total in totals.items():
        if key == "stage_seconds":
            for stage, seconds in total.items():
                per_rep = [row[key][stage] for row in rows]
                assert seconds == pytest.approx(sum(per_rep), rel=1e-12)
        else:
            assert total == sum(row[key] for row in rows)


def _numbers(tree):
    """Every number in a JSON tree."""
    if isinstance(tree, dict):
        return [x for v in tree.values() for x in _numbers(v)]
    if isinstance(tree, list):
        return [x for v in tree for x in _numbers(v)]
    return [tree]


class TestRuntime:
    """The runtime block: six timed stages, the aggregation time and totals."""

    def test_serial_and_pool_mode_give_the_same_keys(self, runtimes):
        serial, pooled = runtimes[1], runtimes[2]
        assert set(serial) == set(pooled) == {
            "elapsed_seconds", "aggregate_seconds", "workers", "replications", "totals",
        }
        stages = {"generate", "augment", "exposures", "sheets", "clear", "metrics"}
        for runtime in (serial, pooled):
            for row in runtime["replications"] + [runtime["totals"]]:
                assert set(row["stage_seconds"]) == stages
            keys = set(runtime["replications"][0]) - {"rep"}
            assert set(runtime["totals"]) == keys
        assert set(serial["replications"][0]) == set(pooled["replications"][0])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_value_is_non_negative(self, runtimes, workers):
        values = _numbers(runtimes[workers])
        assert all(isinstance(v, (int, float)) and v >= 0 for v in values)
        assert runtimes[workers]["aggregate_seconds"] > 0.0

    def test_serial_stages_and_aggregation_fit_in_the_elapsed_time(self, runtimes):
        serial = runtimes[1]
        busy = sum(serial["totals"]["stage_seconds"].values())
        assert busy + serial["aggregate_seconds"] <= serial["elapsed_seconds"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_totals_sum_the_replications(self, runtimes, workers):
        _assert_totals_sum(runtimes[workers])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_sweep_point_has_every_stage(self, sweep_runtimes, workers):
        for runtime in sweep_runtimes[workers]:
            assert len(runtime["replications"]) == 2
            for row in runtime["replications"] + [runtime["totals"]]:
                assert set(row["stage_seconds"]) == STAGES
            values = _numbers(runtime)
            assert all(isinstance(v, (int, float)) and v >= 0 for v in values)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_later_sweep_point_grows_nothing(self, sweep_runtimes, workers):
        first, later = sweep_runtimes[workers]
        for row in first["replications"]:
            assert all(row["stage_seconds"][stage] > 0.0 for stage in SHARED_STAGES)
        for row in later["replications"] + [later["totals"]]:
            assert [row["stage_seconds"][stage] for stage in SHARED_STAGES] == [0.0] * 3
            assert row["stage_seconds"]["clear"] > 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_totals_sum_each_sweep_point(self, sweep_runtimes, workers):
        for runtime in sweep_runtimes[workers]:
            _assert_totals_sum(runtime)

    def test_serial_sweep_point_fits_in_its_elapsed_time(self, sweep_runtimes):
        for runtime in sweep_runtimes[1]:
            busy = sum(runtime["totals"]["stage_seconds"].values())
            assert busy + runtime["aggregate_seconds"] <= runtime["elapsed_seconds"]

    def test_augment_is_timed_only_when_links_are_added(self, runtimes):
        for rows in (runtimes[1]["replications"], runtimes[2]["replications"]):
            assert all(row["stage_seconds"]["augment"] > 0.0 for row in rows)
        # GD0 is never densified; a two-bank GD3 seed graph is already at
        # its densest, so it gains no links.
        for spec in (ExperimentSpec("GD", 0, 120, 2), ExperimentSpec("GD", 3, 2, 2)):
            report = run_experiment(spec, workers=1)
            for rec in report.records:
                assert rec.stage_seconds["augment"] == 0.0
                assert rec.stage_seconds["generate"] > 0.0


# One SHA-256 over every file name and content that write_run_directory
# writes for GD0, and for GD3 at lambda_min 0.01 and xi 1.1 (n=1000, two
# replications, master seed 99), with report.json's timings dropped. A
# change that keeps every output keeps it, in serial and pool mode.
PINNED_RUN_DIRECTORY_SHA256 = "6527181e8596de4811e4f0455852c100997441e28be8c04d0d8bfe47835d67c8"


class TestRunDirectory:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pinned_run_directory_digest(self, tmp_path, workers):
        digest = hashlib.sha256()
        specs = [
            ExperimentSpec("GD", 0, 1000, 2, master_seed=99),
            ExperimentSpec("GD", 3, 1000, 2, lambda_min=0.01, xi=1.1, master_seed=99),
        ]
        for k, spec in enumerate(specs):
            out = write_run_directory(run_experiment(spec, workers=workers), tmp_path / str(k))
            for path in sorted(out.iterdir()):
                data = path.read_bytes()
                if path.name == "report.json":
                    report = json.loads(data)
                    del report["runtime"]
                    data = json.dumps(report, sort_keys=True).encode()
                digest.update(path.name.encode() + b"\0" + data)
        assert digest.hexdigest() == PINNED_RUN_DIRECTORY_SHA256

    @pytest.mark.parametrize("replications", [1, 2])
    def test_report_json_is_strict(self, tmp_path, replications):
        spec = ExperimentSpec("S", 0, 40, replications, master_seed=3)
        report = run_experiment(spec, workers=1)
        out = write_run_directory(report, tmp_path / "run")

        def refuse(token):
            raise ValueError(f"report.json holds the non-standard token {token}")

        payload = json.loads((out / "report.json").read_text(), parse_constant=refuse)
        stds = payload["stds"]
        assert set(stds) == set(report.stds)
        if replications == 1:
            # Undefined in memory (NaN), null on disk.
            assert all(math.isnan(v) for v in report.stds.values())
            assert set(stds.values()) == {None}
        else:
            assert stds == report.stds

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

    @pytest.mark.parametrize("workers", WORKER_MODES)
    def test_capital_sweep_grows_each_network_once(self, monkeypatch, workers):
        grown, generate = [], harness.generate
        monkeypatch.setattr(
            harness, "generate", lambda params: grown.append(params.seed) or generate(params)
        )
        spec = ExperimentSpec("GD", 3, 120, 2, master_seed=9)
        reports = sweep(spec, "lambda_min", [0.01, 0.05, 0.10], workers=workers)
        if workers == 1:  # pool workers count in their own processes
            assert grown == [replication_seeds(9, rep)[0] for rep in range(2)]
        for rep in range(2):
            low, mid, high = (report.records[rep].graph for report in reports)
            assert low is mid is high

    def test_repeated_value_is_cleared_once(self, monkeypatch):
        cleared, clear_all = [], harness.clear_all
        monkeypatch.setattr(
            harness, "clear_all", lambda e, sheets: cleared.append(sheets) or clear_all(e, sheets)
        )
        spec = ExperimentSpec("GD", 0, 60, 2, master_seed=9)
        first, low, again = sweep(spec, "lambda_min", [0.05, 0.01, 0.05], workers=1)
        # Two replications, each cleared at lambda_min 0.05, then at 0.01.
        assert [sheets.lam.min() > 0.05 for sheets in cleared] == [True, False] * 2
        assert again is first and low.spec.lambda_min == 0.01

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_points_equal_separate_experiments(self, tmp_path, workers):
        spec = ExperimentSpec("GD", 3, 150, 3, xi=1.1, master_seed=31)
        values = [0.01, 0.03, 0.05]
        reports = sweep(spec, "lambda_min", values, workers=workers)
        for k, (report, value) in enumerate(zip(reports, values, strict=True)):
            alone = run_experiment(replace(spec, lambda_min=value), workers=workers)
            assert _run_directory_outside_runtime(report, tmp_path / f"sweep{k}") == \
                _run_directory_outside_runtime(alone, tmp_path / f"alone{k}")

    def test_integer_values_are_written_in_full(self, tmp_path):
        spec = ExperimentSpec("S", 0, 30, 1)
        reports = sweep(spec, "master_seed", [10**12 + 1, 10**12 + 2], workers=1)
        rows = _sweep_rows(reports, "master_seed", tmp_path / "seeds.csv")
        assert [row[0] for row in rows] == ["1000000000001", "1000000000002"]

    def test_each_value_keeps_its_format_in_a_mixed_column(self, ensemble, tmp_path):
        values = (2, 2.5, 0.1 + 0.2, 1e12 + 1, np.int64(10**12 + 1), Fraction(1, 3))
        reports = [replace(ensemble, spec=replace(ensemble.spec, xi=xi)) for xi in values]
        rows = _sweep_rows(reports, "xi", tmp_path / "xi.csv")
        assert [row[0] for row in rows] == [
            "2", "2.5", "0.3", "1e+12", "1000000000001", "0.333333333333",
        ]
        assert len({tuple(row[1:]) for row in rows}) == 1


def _run_directory_outside_runtime(report, out):
    """Every file ``write_run_directory`` writes, by name, without report.json's runtime."""
    files = {}
    for path in sorted(write_run_directory(report, out).iterdir()):
        files[path.name] = path.read_bytes()
        if path.name == "report.json":
            payload = json.loads(files[path.name])
            del payload["runtime"]
            files[path.name] = json.dumps(payload, sort_keys=True).encode()
    return files


class TestWorkerResolution:
    SPEC = ExperimentSpec("GD", 0, 60, 1, master_seed=3)

    def test_explicit_wins(self):
        for workers in (1, 3, np.int64(2)):
            assert run_experiment(self.SPEC, workers=workers).workers == workers

    def test_explicit_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="^worker count must be >= 1$"):
            run_experiment(self.SPEC, workers=0)

    def test_non_integer_count_rejected(self):
        for workers in (True, 2.5, "2"):
            message = f"^workers must be an integer, got {re.escape(repr(workers))}$"
            with pytest.raises(ValueError, match=message):
                run_experiment(self.SPEC, workers=workers)

    def test_default_is_cpu_count(self):
        assert run_experiment(self.SPEC).workers == (os.cpu_count() or 1)

    def test_pool_has_no_more_workers_than_replications(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class InlinePool:
            """Records its size and runs the tasks in this process."""

            def __init__(self, max_workers=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        spec = ExperimentSpec("GD", 0, 60, 2)
        assert run_experiment(spec, workers=6).workers == 6
        # One pool serves every point of a sweep.
        reports = sweep(spec, "lambda_min", [0.01, 0.05, 0.10], workers=6)
        assert [report.workers for report in reports] == [6, 6, 6]
        assert sizes == [2, 2]


def test_serial_run_loads_no_pool_or_masked_arrays():
    # A serial run, a tail fit and a single shock need neither the process
    # pool (concurrent.futures brings in multiprocessing) nor numpy.ma,
    # which the plain np.unique(x) and np.quantile import; np.unique with a
    # return_* flag does not.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "from contagion import ExperimentSpec, run_experiment\n"
        "from contagion.balance import BalanceConfig, build_balance_sheets, build_exposures\n"
        "from contagion.clearing import ShockScenario, clear\n"
        "from contagion.netgen import GenParams, generate\n"
        "from contagion.powerlaw import fit_discrete\n"
        "for variant in (0, 3):\n"
        "    spec = ExperimentSpec('GD', variant, n_nodes=200, replications=2,\n"
        "                          lambda_min=0.01, xi=1.1, master_seed=1)\n"
        "    run_experiment(spec, workers=1)\n"
        "graph = generate(GenParams(0.41, 0.54, 0.05, 0.2, 0.0, 300, 3))\n"
        "fit_discrete(graph.in_degree + graph.out_degree)\n"
        "exposures = build_exposures(graph)\n"
        "sheets = build_balance_sheets(exposures, BalanceConfig(0.01, xi=1.1))\n"
        "clear(exposures, sheets, ShockScenario(1))\n"
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
