"""Smoke tests of the benchmark: every workload's path at n=60 in seconds.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_declared_metric(workload, trace, kind):
    done = run_bench("--workload", workload, "--tiny", "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {}
    for line in lines[:-1]:
        name, metric, value, unit = line.split()
        assert name == workload
        float(value)
        printed[metric] = unit
    assert {k: printed[k] for k in declared} == declared
    for view in ("fail_frac", "shocks_per_s" if "growth" not in workload else "nodes_per_s"):
        assert view in printed


def test_workloads_match_benchmark_json():
    sys.path.insert(0, str(BENCH))
    import setup_probe

    setup_probe.import_contagion()
    import workloads

    assert list(workloads.WORKLOADS) == WORKLOAD_NAMES
    for entry in SPEC["workloads"]:
        assert workloads.WORKLOADS[entry["name"]].why == entry["why"]


def test_oracle_rejects_a_wrong_clearing_vector():
    sys.path.insert(0, str(BENCH))
    import setup_probe

    setup_probe.import_contagion()
    import oracle
    from contagion import balance, clearing, netgen

    graph = netgen.generate(netgen.params_from_delta_in(3.0).with_size(80, seed=5))
    exposures = balance.build_exposures(graph)
    sheets = balance.build_balance_sheets(exposures, balance.BalanceConfig(0.05, seed=5))
    shock_oracle = oracle.ShockOracle(oracle.reference_matrix(graph), sheets)
    bank = int(np.argmax(sheets.bl))
    solution = clearing.clear(exposures, sheets, clearing.ShockScenario(bank))
    expected = shock_oracle.solve(bank)
    assert oracle.disagreements(expected, solution.payments, solution.defaulted) == []
    wrong = solution.payments.copy()
    wrong[bank] += 1e-8
    assert oracle.disagreements(expected, wrong, solution.defaulted)
    assert oracle.disagreements(expected, solution.payments, solution.defaulted - {bank})


def test_tracer_restores_the_library():
    sys.path.insert(0, str(BENCH))
    import setup_probe

    setup_probe.import_contagion()
    from tracer import Tracer

    from contagion import clearing, harness

    original = harness.clear
    tracer = Tracer()
    with tracer.installed():
        assert harness.clear is clearing.clear is not original
    assert harness.clear is clearing.clear is original


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("results", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=ignore)
    done = run_bench("--workload", WORKLOAD_NAMES[0], "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
