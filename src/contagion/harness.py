"""Experiment orchestration: ensembles, sweeps and artifact persistence.

An experiment fixes a network family (credit-concentrated GC, symmetric S,
or debt-concentrated GD), a connectivity/concentration variant (0..4), a
size, balance-sheet parameters and a master seed, then for each replication
generates a network, builds balance sheets, shocks every bank in turn and
summarizes the outcomes. Replications are independent; their RNG streams
are derived from the master seed by spawn keys, so results are identical
whatever the worker count.

``run_experiment`` and ``sweep`` share one run path, which runs each
distinct spec once. Specs that differ only in balance-sheet fields share
each replication's network: it is grown once and cleared at every point.
A task is one replication of one such group, and one ``map`` runs every
task of a run, on a pool of ``min(workers, tasks)`` processes.

Variant parameter rows:

    0: the reference mix (beta = 0.25, offsets summing to 4)
    1: denser and more concentrated (beta = 0.75, same offsets)
    2: denser at type-0-like concentration (beta = 0.75, offsets x 25)
    3: type-0 growth, then uniform random links up to mean degree 7.8
    4: type-0 density, less concentrated (beta = 0.25, offsets x 10)

One private writer, ``_write_table``, writes every CSV table of a run
directory and of a sweep, each number as ``%.12g``; edge lists keep the
integer format of ``netgen.write_edge_list``.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import os
import time
from contextlib import nullcontext
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Optional, Sequence

import numpy as np

from .balance import (
    BalanceConfig,
    BalanceSheetSet,
    build_balance_sheets,
    build_exposures,
)
# ``clear`` is not called here; the benchmark's tracer test reads it as
# ``harness.clear`` (bench/test_bench.py).
from .clearing import clear, clear_all  # noqa: F401
from .metrics import (
    IndexImpactCorrelation,
    NetworkRiskSummary,
    RankingStatistics,
    TopoIndices,
    compute_topo_indices,
    index_impact_correlation,
    ranking_statistics,
    summarize,
)
from .netgen import (
    _MAX_NODES, DirectedGraph, GenParams, _require, augment_random_links, generate,
    write_edge_list,
)

__all__ = [
    "FAMILIES",
    "TYPE_PARAMS",
    "TYPE3_TARGET_MEAN_DEGREE",
    "ExperimentSpec",
    "ReplicationRecord",
    "ExperimentReport",
    "run_experiment",
    "sweep",
    "write_run_directory",
    "write_sweep_csv",
    "replication_seeds",
]

logger = logging.getLogger(__name__)

FAMILIES = ("GC", "S", "GD")

# Attachment parameters per (family, variant): alpha, beta, gamma,
# delta_in, delta_out. Variant 3 grows with the variant-0 row and is then
# densified by random links.
TYPE_PARAMS: dict[tuple[str, int], tuple[float, float, float, float, float]] = {
    ("GC", 0): (0.5625, 0.25, 0.1875, 1.0, 3.0),
    ("S", 0): (0.3750, 0.25, 0.3750, 2.0, 2.0),
    ("GD", 0): (0.1875, 0.25, 0.5625, 3.0, 1.0),
    ("GC", 1): (0.1875, 0.75, 0.0625, 1.0, 3.0),
    ("S", 1): (0.1250, 0.75, 0.1250, 2.0, 2.0),
    ("GD", 1): (0.0625, 0.75, 0.1875, 3.0, 1.0),
    ("GC", 2): (0.1875, 0.75, 0.0625, 25.0, 75.0),
    ("S", 2): (0.1250, 0.75, 0.1250, 50.0, 50.0),
    ("GD", 2): (0.0625, 0.75, 0.1875, 75.0, 25.0),
    ("GC", 3): (0.5625, 0.25, 0.1875, 1.0, 3.0),
    ("S", 3): (0.3750, 0.25, 0.3750, 2.0, 2.0),
    ("GD", 3): (0.1875, 0.25, 0.5625, 3.0, 1.0),
    ("GC", 4): (0.5625, 0.25, 0.1875, 10.0, 30.0),
    ("S", 4): (0.3750, 0.25, 0.3750, 20.0, 20.0),
    ("GD", 4): (0.1875, 0.25, 0.5625, 30.0, 10.0),
}

# Variant-3 densification target: the empirical mean degree of the
# variant-1 ensembles.
TYPE3_TARGET_MEAN_DEGREE = 7.8

# Sizes below this are simulated but flagged as statistically meaningless.
MIN_MEANINGFUL_SIZE = 100


@dataclass(frozen=True)
class ExperimentSpec:
    """One ensemble: family, variant, size, sheet parameters, master seed."""

    network_family: str
    type_variant: int
    n_nodes: int
    replications: int
    lambda_min: float = BalanceConfig.lambda_min
    sigma: float = BalanceConfig.sigma
    xi: float = BalanceConfig.xi
    master_seed: int = 0

    def __post_init__(self) -> None:
        # Spec files are JSON: a string or a bool must not pass for a number.
        integers = ("type_variant", "n_nodes", "replications", "master_seed")
        _require(self, numbers.Integral, *integers)
        if self.network_family not in FAMILIES:
            raise ValueError(
                f"network_family must be one of {FAMILIES}, "
                f"got {self.network_family!r}"
            )
        if (self.network_family, self.type_variant) not in TYPE_PARAMS:
            raise ValueError(f"type_variant must be 0..4, got {self.type_variant}")
        if self.n_nodes < 2:
            raise ValueError("n_nodes must be >= 2")
        if self.n_nodes > _MAX_NODES:  # as GenParams does, but before any replication runs
            raise ValueError(f"n_nodes must be at most {_MAX_NODES}, got {self.n_nodes}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.master_seed < 0:
            raise ValueError(
                f"master_seed must be a non-negative integer, got {self.master_seed}"
            )
        BalanceConfig(self.lambda_min, self.sigma, self.xi)  # validates

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentSpec":
        """Load a spec from a JSON file whose keys match the field names.

        Raises:
            ValueError: naming the file, when it is not UTF-8 JSON, holds no JSON
                object, an object with unknown keys or without a required
                one, or a value the spec refuses.
        """
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:  # malformed JSON or undecodable bytes
                raise ValueError(f"{path}: not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: spec must be a JSON object")
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{path}: unknown spec keys {unknown}")
        missing = [
            f.name for f in fields(cls)
            if f.default is MISSING and f.name not in payload
        ]
        if missing:
            raise ValueError(f"{path}: missing spec keys {missing}")
        try:
            return cls(**payload)
        except ValueError as exc:  # a value of the wrong type or out of range
            raise ValueError(f"{path}: {exc}") from None


def replication_seeds(master_seed: int, rep: int) -> tuple[int, int, int]:
    """Derive (generation, augmentation, balance) seeds for one replication.

    Stream splitting rule: seeds are the three 64-bit words produced by
    ``numpy.random.SeedSequence(master_seed, spawn_key=(rep,))``, so any
    scheduling of replications yields the same streams.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(rep,))
    words = ss.generate_state(3, dtype=np.uint64)
    return int(words[0]), int(words[1]), int(words[2])


@dataclass(frozen=True, eq=False)
class ReplicationRecord:
    """Everything persisted or aggregated from one replication.

    ``counters`` holds every engine counter of the replication's
    :class:`~contagion.clearing.AllBanksClearing`, which are a pure
    function of the spec; ``stage_seconds`` the wall time of each stage in
    ``_STAGES``, which is not. ``augment`` is 0.0 when no links are added, and
    ``generate``, ``augment`` and ``exposures`` when an earlier point grew the network.
    """

    rep: int
    summary: NetworkRiskSummary
    correlations: IndexImpactCorrelation
    graph: DirectedGraph
    sheets: BalanceSheetSet
    cs: np.ndarray
    frailty: np.ndarray
    di: np.ndarray
    dc: np.ndarray
    counters: dict[str, int]
    stage_seconds: dict[str, float]


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Ensemble outcome: per-replication records plus aggregates."""

    spec: ExperimentSpec
    records: list[ReplicationRecord]
    means: dict[str, float]
    stds: dict[str, float]
    ranking_di: Optional[RankingStatistics]
    ranking_dc: Optional[RankingStatistics]
    correlation_means: dict[str, Optional[float]]
    correlation_pooled: dict[str, Optional[float]]
    elapsed_seconds: float
    aggregate_seconds: float
    workers: int
    warnings: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def scalar_rows(self) -> list[dict[str, float]]:
        """One scalar row per replication, in replication order."""
        return [_scalar_row(rec) for rec in self.records]


# The summary's fields, in the column order of summary.csv and report.json.
_SCALAR_KEYS = tuple(f.name for f in fields(NetworkRiskSummary))


# Stages of a replication, timed in ReplicationRecord.stage_seconds.
_STAGES = ("generate", "augment", "exposures", "sheets", "clear", "metrics")

# The spec fields that only balance sheets read: BalanceConfig's but its seed.
_SHEET_FIELDS = tuple(f.name for f in fields(BalanceConfig) if f.name != "seed")


def _scalar_row(rec: ReplicationRecord) -> dict[str, float]:
    return {"rep": rec.rep} | asdict(rec.summary)


def _run_replication(task: tuple[list[ExperimentSpec], int]) -> list[ReplicationRecord]:
    """One task: replication ``rep`` at each of ``specs``, which differ only in
    ``_SHEET_FIELDS``; the network grows once, so the later records' shared stages read 0.0.
    """
    specs, rep = task
    spec = specs[0]
    clock = [time.perf_counter()]
    g_seed, aug_seed, b_seed = replication_seeds(spec.master_seed, rep)
    a, b, g, d_in, d_out = TYPE_PARAMS[(spec.network_family, spec.type_variant)]
    grown = graph = generate(GenParams(a, b, g, d_in, d_out, spec.n_nodes, g_seed))
    clock.append(time.perf_counter())
    if spec.type_variant == 3:
        target = min(TYPE3_TARGET_MEAN_DEGREE, 2.0 * (spec.n_nodes - 1))
        if target > graph.mean_degree:
            graph = augment_random_links(graph, target, aug_seed)
    # A graph that gains no links spent no time densifying.
    clock.append(clock[-1] if graph is grown else time.perf_counter())
    exposures = build_exposures(graph)
    clock.append(time.perf_counter())
    records = []
    for point in specs:
        config = {k: getattr(point, k) for k in _SHEET_FIELDS}
        sheets = build_balance_sheets(exposures, BalanceConfig(**config, seed=b_seed))
        clock.append(time.perf_counter())
        cleared = clear_all(exposures, sheets)
        clock.append(time.perf_counter())
        summary = summarize(cleared.di, cleared.dc, graph, sheets)
        indices = compute_topo_indices(exposures, sheets)
        correlations = index_impact_correlation(indices, cleared.di, cleared.dc)
        clock.append(time.perf_counter())
        records.append(ReplicationRecord(
            rep=rep,
            summary=summary,
            correlations=correlations,
            graph=graph,
            sheets=sheets,
            cs=indices.cs,
            frailty=indices.frailty,
            di=cleared.di,
            dc=cleared.dc,
            # Every field but the per-bank arrays is an engine counter.
            counters={k: v for k, v in vars(cleared).items() if not isinstance(v, np.ndarray)},
            stage_seconds={
                stage: end - start
                for stage, start, end in zip(_STAGES, clock, clock[1:])
            },
        ))
        clock = clock[-1:] * 4  # the next point's shared stages take no time
    return records


def _mean_or_none(values: list[Optional[float]]) -> Optional[float]:
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else None


def _run_specs(
    specs: Sequence[ExperimentSpec], workers: Optional[int]
) -> list[ExperimentReport]:
    """One report per spec, in order; equal specs run once.

    Specs equal but in ``_SHEET_FIELDS`` form a group, whose replications each
    grow one network for all its points. One ``map`` runs every task, one per
    replication per group, on a pool of ``min(workers, tasks)`` processes when
    that is above 1; each ``elapsed_seconds`` runs from the run's start.
    """
    start = time.perf_counter()
    n_workers = (os.cpu_count() or 1) if workers is None else workers
    _require(SimpleNamespace(workers=n_workers), numbers.Integral, "workers")
    if n_workers < 1:
        raise ValueError("worker count must be >= 1")
    groups: dict[tuple, list[ExperimentSpec]] = {}
    for spec in dict.fromkeys(specs):
        key = [getattr(spec, f.name) for f in fields(spec) if f.name not in _SHEET_FIELDS]
        groups.setdefault(tuple(key), []).append(spec)
    tasks = [(group, rep) for group in groups.values() for rep in range(group[0].replications)]
    pool_size = min(n_workers, len(tasks))  # a pool starts all its workers at once
    if pool_size > 1:
        # concurrent.futures loads multiprocessing, which a serial run never needs.
        from concurrent.futures import ProcessPoolExecutor
    records = {spec: [] for spec in specs}
    with ProcessPoolExecutor(pool_size) if pool_size > 1 else nullcontext() as pool:
        rows = (pool.map if pool else map)(_run_replication, tasks)  # in task order
        try:
            for group, rep in tasks:
                for point, record in zip(group, next(rows)):
                    records[point].append(record)
                logger.info("[contagion] %s%d n=%d rep %d/%d done", point.network_family,
                            point.type_variant, point.n_nodes, rep + 1, point.replications)
        except Exception as exc:
            # Same type, so callers still catch it; pool.map names no replication.
            raise type(exc)(f"replication {rep}: {str(exc) or type(exc).__name__}") from exc
    reports = {spec: _report(spec, recs, start, n_workers) for spec, recs in records.items()}
    return [reports[spec] for spec in specs]


def _report(spec: ExperimentSpec, records: list, start: float, workers: int):
    """Aggregate one spec's records into its report."""
    aggregate_start = time.perf_counter()
    means: dict[str, float] = {}
    stds: dict[str, float] = {}
    rows = [_scalar_row(rec) for rec in records]
    for key in _SCALAR_KEYS:
        values = np.array([row[key] for row in rows])
        means[key] = float(values.mean())
        stds[key] = float(values.std(ddof=1)) if len(values) > 1 else float("nan")

    rank_di = ranking_statistics([r.di for r in records]) if len(records) > 1 else None
    rank_dc = ranking_statistics([r.dc for r in records]) if len(records) > 1 else None

    cs, frailty, di, dc = (
        np.concatenate([getattr(r, name) for r in records])
        for name in ("cs", "frailty", "di", "dc")
    )
    corr_pooled = asdict(index_impact_correlation(TopoIndices(cs, frailty), di, dc))
    corr_means = {
        name: _mean_or_none([getattr(r.correlations, name) for r in records])
        for name in corr_pooled
    }

    warnings = []
    if spec.n_nodes < MIN_MEANINGFUL_SIZE:
        warnings.append(
            f"n_nodes={spec.n_nodes} below minimum meaningful size "
            f"{MIN_MEANINGFUL_SIZE}; statistics are anecdotal"
        )
    if spec.replications == 1:
        warnings.append("single replication: std and ranking cv unavailable")
    notes = []
    if spec.type_variant == 3:
        notes.append(
            "variant 3: grown with the variant-0 parameter row, then "
            f"densified by uniform random links to mean degree "
            f"{TYPE3_TARGET_MEAN_DEGREE}"
        )

    end = time.perf_counter()
    return ExperimentReport(
        spec=spec,
        records=records,
        means=means,
        stds=stds,
        ranking_di=rank_di,
        ranking_dc=rank_dc,
        correlation_means=corr_means,
        correlation_pooled=corr_pooled,
        elapsed_seconds=end - start,
        aggregate_seconds=end - aggregate_start,
        workers=workers,
        warnings=warnings,
        notes=notes,
    )


def run_experiment(
    spec: ExperimentSpec, workers: Optional[int] = None
) -> ExperimentReport:
    """Run every replication of an experiment and aggregate the outcomes.

    Replications are dispatched to a process pool when more than one worker
    is available; the merge is keyed by replication index, so outputs are
    byte-identical across worker counts and fully determined by
    ``spec.master_seed``. A failed replication's exception is re-raised
    with its type kept and ``replication <index>: `` before its message,
    in serial and pool mode alike. ``workers`` is the requested pool size,
    by default the CPU count; the pool holds ``min(workers, tasks)``
    processes, one task per replication per group (here, per replication).
    ``elapsed_seconds`` runs from the run's start.

    Raises:
        ValueError: if ``workers`` is a bool, no integer, or below 1.
    """
    return _run_specs([spec], workers)[0]


def sweep(
    spec: ExperimentSpec,
    parameter: str,
    values: Sequence,
    workers: Optional[int] = None,
) -> list[ExperimentReport]:
    """Run the experiment at each value of one spec field; reports in order.

    Point k equals ``run_experiment(replace(spec, **{parameter: values[k]}))``
    outside its timings, and a repeated value runs once. The points of a
    balance-sheet field (``lambda_min``, ``sigma``, ``xi``) share one
    topology: each replication grows its network once and clears it at
    every point, isolating that field's effect.
    """
    return _run_specs([replace(spec, **{parameter: value}) for value in values], workers)


def _write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table: the header, then one line per row.

    A string is written as it stands and any other cell as a number in
    ``%.12g``; the first row fixes which columns hold strings. One
    ``%``-template per table formats each row in a single operation.
    """
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        if first is not None:
            line = ",".join("%s" if isinstance(x, str) else "%.12g" for x in first) + "\n"
            fh.write(line % tuple(first))
            fh.writelines(line % tuple(row) for row in rows)


def _sums(dicts: Sequence[dict]) -> dict:
    """Each key of the first dict, summed over all of them."""
    return {key: sum(d[key] for d in dicts) for key in dicts[0]}


def write_run_directory(report: ExperimentReport, outdir: str | Path) -> Path:
    """Persist an experiment's artifacts into a run directory.

    Writes ``summary.csv`` (one scalar row per replication),
    ``ranking_di.csv``/``ranking_dc.csv`` (position, mean, std, cv),
    per-replication ``edges_<rep>.csv`` and ``balances_<rep>.csv``, and
    ``report.json``, strict JSON in which an undefined std (a single
    replication) is ``null``. All CSV content is a pure function of the
    spec.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)

    # A scalar row holds "rep", then the summary fields in _SCALAR_KEYS order.
    _write_table(out / "summary.csv", ("rep", *_SCALAR_KEYS),
                 (row.values() for row in report.scalar_rows()))
    for name, stats in (("ranking_di", report.ranking_di), ("ranking_dc", report.ranking_dc)):
        rows = () if stats is None else zip(
            range(1, stats.mean.size + 1),
            stats.mean.tolist(), stats.std.tolist(), stats.cv.tolist(),
        )
        _write_table(out / f"{name}.csv", ("position", "mean", "std", "cv"), rows)

    for rec in report.records:
        g_seed = replication_seeds(report.spec.master_seed, rec.rep)[0]
        write_edge_list(rec.graph, out / f"edges_{rec.rep}.csv", g_seed)
        s = rec.sheets
        columns = [f.name for f in fields(s)]  # the last, lam, is written "lambda"
        _write_table(
            out / f"balances_{rec.rep}.csv", ("bank", *columns[:-1], "lambda"),
            zip(range(len(s)), *(getattr(s, c).tolist() for c in columns)),
        )

    payload = {
        "spec": asdict(report.spec),
        "replications": report.scalar_rows(),
        "means": report.means,
        "stds": {k: None if math.isnan(v) else v for k, v in report.stds.items()},
        "correlation_means": report.correlation_means,
        "correlation_pooled": report.correlation_pooled,
        "runtime": {
            "elapsed_seconds": report.elapsed_seconds,
            "aggregate_seconds": report.aggregate_seconds,
            "workers": report.workers,
            "replications": [
                {"rep": rec.rep, **rec.counters, "stage_seconds": rec.stage_seconds}
                for rec in report.records
            ],
            # Each counter and each stage's seconds, summed over replications.
            "totals": _sums([rec.counters for rec in report.records]) | {
                "stage_seconds": _sums([rec.stage_seconds for rec in report.records])
            },
        },
        "warnings": report.warnings,
        "notes": report.notes,
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        # A spec may hold numpy scalars (a sweep over np.arange) or fractions.
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False,
                  default=lambda x: int(x) if isinstance(x, numbers.Integral) else float(x))
        fh.write("\n")
    return out


def write_sweep_csv(
    reports: Sequence[ExperimentReport], parameter: str, path: str | Path
) -> None:
    """Write a sweep table, one row per report.

    Columns: the value of ``parameter`` in the report's spec (an integer
    in full, any other number in ``%.12g``), the means and stds of the DI
    and DC aggregates, the mean first-ranking-position impacts
    (``di_max_mean``/``dc_max_mean``, which shrink as networks grow), and
    ``below_min_meaningful_size`` for a spec below ``MIN_MEANINGFUL_SIZE``
    nodes.
    """
    rows = []
    for report in reports:
        m, s = report.means, report.stds
        small = report.spec.n_nodes < MIN_MEANINGFUL_SIZE
        value = getattr(report.spec, parameter)
        # Each value formats itself, as a column may mix integers and floats;
        # %.12g would write the integer 10**12 + 1 as 1e+12.
        if not isinstance(value, str):
            value = ("%d" if isinstance(value, numbers.Integral) else "%.12g") % value
        rows.append((
            value, m["di_aggregate"], s["di_aggregate"],
            m["dc_aggregate"], s["dc_aggregate"], m["di_max"], m["dc_max"],
            "below_min_meaningful_size" if small else "",
        ))
    header = (parameter, "di_mean", "di_std", "dc_mean", "dc_std",
              "di_max_mean", "dc_max_mean", "flag")
    _write_table(path, header, rows)
