"""The benchmark's workloads: the tasks a run times, and how each is checked.

A task is one table row: a ``run_experiment`` call or one row of the
growth path. Its inputs are a pure function of the workload seed. A run is
a closed loop of cycles through every task, in one process with
``workers=1``; each task starts when the previous one ends. The timed body
of a task calls only the package's public entry points; checking (oracle,
invariants, digest) happens after the task, outside its timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import oracle
from contagion import balance, clearing, harness, metrics, netgen, powerlaw

ACCEPT_SEED = 99
SIGMA = 0.01
# Shocks re-solved by the oracle per replication, besides the largest cascade.
ORACLE_SAMPLE = 3
TINY_N = 60


def fmt(x: float) -> str:
    """Number format of ``write_run_directory``."""
    return f"{x:.12g}"


@dataclass(frozen=True)
class Row:
    """One paper table row: family, variant and balance-sheet parameters."""

    family: str
    variant: int
    lambda_min: float = 0.05
    xi: float = 2.0

    @property
    def label(self) -> str:
        return f"{self.family}{self.variant}"


@dataclass(frozen=True)
class Task:
    """One timed unit: row ``index`` of the workload.

    ``work`` is the banks the task carries through (the throughput's
    numerator); ``ops`` the operations it checks (shocks, or grown graphs).
    """

    row: Row
    index: int
    master_seed: int
    work: int
    ops: int

    @property
    def label(self) -> str:
        return self.row.label


@dataclass
class Check:
    """Operations attempted and failed in one task, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


class ExperimentWorkload:
    """Ensembles through ``harness.run_experiment``; every bank is shocked."""

    unit = "shocks"

    def __init__(self, name: str, why: str, rows, n: int, reps: int):
        self.name, self.why, self.rows = name, why, tuple(rows)
        self.n, self.reps = n, reps

    def tiny(self) -> "ExperimentWorkload":
        return ExperimentWorkload(self.name, self.why, self.rows, TINY_N, 2)

    def tasks(self, seed: int) -> list[Task]:
        shocks = self.n * self.reps
        return [Task(row, index, seed, shocks, shocks) for index, row in enumerate(self.rows)]

    def config(self) -> dict:
        return {
            "kind": "experiment",
            "rows": [vars(r) | {"sigma": SIGMA} for r in self.rows],
            "n_nodes": self.n,
            "replications_per_row": self.reps,
            "unit": self.unit,
        }

    def run_task(self, task: Task):
        row = task.row
        spec = harness.ExperimentSpec(
            row.family,
            row.variant,
            n_nodes=self.n,
            replications=self.reps,
            lambda_min=row.lambda_min,
            sigma=SIGMA,
            xi=row.xi,
            master_seed=task.master_seed,
        )
        return harness.run_experiment(spec, workers=1)

    def digest_lines(self, task: Task, report):
        for rec in report.records:
            yield f"{task.label} {rec.rep} di " + ",".join(map(fmt, rec.di))
            yield f"{task.label} {rec.rep} dc " + ",".join(map(fmt, rec.dc))
        for scalars in report.scalar_rows():
            values = list(scalars.values())
            yield f"{task.label} summary {int(values[0])}," + ",".join(map(fmt, values[1:]))

    def check(self, seed: int, task: Task, report) -> Check:
        result = Check(attempted=task.ops)
        if [rec.rep for rec in report.records] != list(range(self.reps)):
            result.fail(task.ops, f"{task.label}: replications missing")
            return result
        for rec in report.records:
            self._check_replication(result, task, rec, [seed, task.index, rec.rep])
        return result

    def _check_replication(self, result: Check, task: Task, rec, sample_key) -> None:
        row = task.row
        where = f"{task.label} rep {rec.rep}"
        problems = oracle.check_graph(rec.graph, self.n)
        if problems:
            result.fail(self.n, f"{where}: " + "; ".join(problems))
            return
        w = oracle.reference_matrix(rec.graph)
        shock_oracle = oracle.ShockOracle(w, rec.sheets)
        bad = oracle.sheet_failures(w, rec.sheets, row.lambda_min, row.xi)
        if bad.any():
            result.problems.append(f"{where}: {int(bad.sum())} balance sheets broken")
        invalid = shock_oracle.impact_failures(rec.di, rec.dc)
        if invalid.any():
            result.problems.append(f"{where}: {int(invalid.sum())} impacts out of range")
        bad |= invalid

        rng = np.random.default_rng(sample_key)
        banks = set(rng.choice(self.n, size=ORACLE_SAMPLE, replace=False).tolist())
        banks.add(int(np.argmax(rec.dc)))
        exposures = balance.build_exposures(rec.graph)
        a0 = clearing.total_initial_assets(rec.sheets)
        for bank in sorted(banks):
            expected = shock_oracle.solve(bank)
            solution = clearing.clear(exposures, rec.sheets, clearing.ShockScenario(bank))
            impact = clearing.cascade_metrics(solution, rec.sheets, bank, a0)
            problems = oracle.disagreements(
                expected,
                solution.payments,
                solution.defaulted,
                di=impact.di,
                ti=impact.ti,
                dc=impact.dc,
            ) + oracle.disagreements(expected, di=float(rec.di[bank]), dc=float(rec.dc[bank]))
            if problems:
                bad[bank] = True
                result.problems.append(f"{where} bank {bank}: " + "; ".join(problems))
        result.failed += int(bad.sum())


class GrowthWorkload:
    """Topology path only: grow, fit tails, build sheets, score; no clearing."""

    unit = "nodes"
    rows = (Row("GD", 0), Row("GD", 1), Row("GD", 3))

    def __init__(self, name: str, why: str, n: int):
        self.name, self.why, self.n = name, why, n

    def tiny(self) -> "GrowthWorkload":
        return GrowthWorkload(self.name, self.why, TINY_N)

    def tasks(self, seed: int) -> list[Task]:
        return [Task(row, index, seed, self.n, 1) for index, row in enumerate(self.rows)]

    def config(self) -> dict:
        return {
            "kind": "growth",
            "rows": [vars(r) | {"sigma": SIGMA} for r in self.rows],
            "n_nodes": self.n,
            "unit": self.unit,
        }

    def run_task(self, task: Task):
        row = task.row
        g_seed, aug_seed, b_seed = harness.replication_seeds(task.master_seed, task.index)
        a, b, g, d_in, d_out = harness.TYPE_PARAMS[(row.family, row.variant)]
        graph = netgen.generate(netgen.GenParams(a, b, g, d_in, d_out, self.n, g_seed))
        if row.variant == 3:
            target = min(harness.TYPE3_TARGET_MEAN_DEGREE, 2.0 * (self.n - 1))
            if target > graph.mean_degree:
                graph = netgen.augment_random_links(graph, target, aug_seed)
        kin, kout = graph.in_degree, graph.out_degree
        fits = tuple(powerlaw.fit_discrete(k[k > 0]) for k in (kin, kout))
        exposures = balance.build_exposures(graph)
        sheets = balance.build_balance_sheets(
            exposures, balance.BalanceConfig(row.lambda_min, SIGMA, row.xi, seed=b_seed)
        )
        ginis = [metrics.gini(v) for v in (kin + kout, kin, kout, sheets.total_assets)]
        indices = metrics.compute_topo_indices(exposures, sheets)
        return graph, fits, sheets, ginis, indices

    def digest_lines(self, task: Task, output):
        graph, fits, sheets, ginis, indices = output
        numbers = [f.exponent for f in fits] + [f.ks_distance for f in fits] + ginis
        totals = (sheets.nba, sheets.nbl, sheets.e, indices.cs, indices.frailty)
        numbers += [float(np.sum(a)) for a in totals]
        head = f"{task.label} links {graph.link_count} xmin {fits[0].x_min},{fits[1].x_min} "
        yield head + ",".join(map(fmt, numbers))

    def check(self, seed: int, task: Task, output) -> Check:
        row = task.row
        graph, fits, sheets, ginis, indices = output
        result = Check(attempted=1)
        problems = oracle.check_graph(graph, self.n)
        if not problems:
            w = oracle.reference_matrix(graph)
            broken = int(oracle.sheet_failures(w, sheets, row.lambda_min, row.xi).sum())
            if broken:
                problems.append(f"{broken} balance sheets broken")
        if not all(math.isfinite(f.exponent) and f.exponent > 1.0 for f in fits):
            problems.append("fitted exponent not finite")
        target = min(harness.TYPE3_TARGET_MEAN_DEGREE, 2.0 * (self.n - 1))
        if row.variant == 3 and graph.mean_degree < target - 2.0 / self.n:
            problems.append(f"mean degree {graph.mean_degree:.4g} below target")
        if not all(0.0 <= x <= 1.0 for x in ginis):
            problems.append("Gini outside [0, 1]")
        if problems:
            result.fail(1, f"{task.label}: " + "; ".join(problems))
        return result


# The paper's n=1000 ensembles are left out: on a shared host their throughput
# drifted far more than these two did (bench/NOTES.md, noise section).
WORKLOADS = {
    w.name: w
    for w in (
        GrowthWorkload(
            "growth-n20000",
            "topology path only (grow, fit, sheets, indices) at n=20000; clearing idle",
            n=20000,
        ),
        ExperimentWorkload(
            "scale-n20000",
            "one GD0 replication at n=20000; every bank shocked and cleared, per-shock O(n) "
            "costs, peak memory",
            (Row("GD", 0),),
            n=20000,
            reps=1,
        ),
    )
}
