"""Aggregate and topological systemic-risk measures.

Covers concentration (Gini coefficients of degree and asset distributions),
network-level aggregates of per-bank impact measures, two local
vulnerability indices read off the exposure matrix (counterparty
susceptibility and local network frailty), ranking-curve statistics across
replications, and correlations between the local indices and realized
impacts. One routine, :func:`index_impact_correlation`, correlates a single
replication and a pooled ensemble alike, and reports ``None`` below three
banks. The Pearson and Spearman correlations are a few lines of numpy
rather than ``scipy.stats``, whose import would dominate the package's
start-up. The Gini sum is an elementwise product rather than ``np.dot``, so
no BLAS call (and no BLAS thread pool) runs in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .balance import BalanceSheetSet, ExposureMatrix, _bank_count, _row_reduce
from .netgen import DirectedGraph, _require_finite

__all__ = [
    "NetworkRiskSummary",
    "TopoIndices",
    "RankingStatistics",
    "IndexImpactCorrelation",
    "gini",
    "compute_topo_indices",
    "summarize",
    "ranking_statistics",
    "index_impact_correlation",
]


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative distribution, in [0, 1].

    Uses the sorted-cumulative formula
    ``G = 2 * sum(i * x_(i)) / (n * sum(x)) - (n + 1) / n``, which agrees
    with the pairwise mean-absolute-difference definition
    ``sum_ij |x_i - x_j| / (2 n^2 mean)``.

    Requires at least two finite values, none negative, not all zero.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size < 2:
        raise ValueError("Gini needs at least 2 values")
    _require_finite(x, "Gini value is not finite at index")
    if (x < 0.0).any():
        raise ValueError("Gini requires non-negative values")
    total = x.sum()
    if total == 0.0:
        raise ValueError("Gini undefined for an all-zero distribution")
    x = np.sort(x)
    n = x.size
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float(2.0 * (ranks * x).sum() / (n * total) - (n + 1.0) / n)


@dataclass(frozen=True, eq=False)
class TopoIndices:
    """Per-bank local vulnerability indices.

    ``cs[i]`` is the maximal exposure to bank i among its creditors,
    relative to the creditor's equity; ``frailty[i]`` additionally weights
    that exposure by the creditor's interbank liabilities, capturing
    second-round vulnerability. Both are 0 for banks with no creditors.
    """

    cs: np.ndarray
    frailty: np.ndarray


def compute_topo_indices(
    exposures: ExposureMatrix, sheets: BalanceSheetSet
) -> TopoIndices:
    """Both local indices of every bank, each a maximum over its exposure row.

    For bank i, counterparty susceptibility is ``max(0, max_j w_ij / E_j)``
    and local network frailty ``max(0, max_j (w_ij / E_j) * BL_j)``, both
    over the creditors j of i, with ``E_j`` the creditor's equity and
    ``BL_j`` its interbank liabilities, which proxy how hard the creditor's
    own failure would hit its lenders. Each inner maximum is one
    ``np.maximum`` row reduction, the one that also sums BL. Banks with no
    creditors score 0 on both, and debtors of a creditor with equity <= 0
    score ``inf`` on both.
    Raises ``ValueError`` when the sheets cover other banks than the matrix.
    """
    _bank_count(exposures, sheets)
    # Per link, in CSR order: creditor, and weight over its equity.
    indptr, col, data = exposures.row_arrays()
    equity = sheets.e[col]
    # A creditor without positive equity cannot absorb any exposure, so
    # both indices of its debtors are infinite, whatever its BL.
    solvent = equity > 0.0
    bl = sheets.bl[col]
    # A tiny positive equity can overflow w / E (or its product with BL) to
    # inf, which is what it means; a creditor with BL 0 still adds 0 to
    # frailty, and inf * 0 is never evaluated.
    with np.errstate(over="ignore"):
        ratio = data / np.where(solvent, equity, 1.0)
        weighted = np.multiply(ratio, bl, out=np.zeros_like(ratio), where=bl != 0.0)
    # Each debtor's largest link value, floored at 0 as for a bank owing nothing.
    return TopoIndices(*(
        np.maximum(0.0, _row_reduce(np.maximum, indptr, np.where(solvent, v, np.inf)))
        for v in (ratio, weighted)
    ))


@dataclass(frozen=True, eq=False)
class NetworkRiskSummary:
    """Network-level scalars for one simulated system.

    Aggregates are plain sums over banks and ``di_max``/``dc_max`` the
    largest single-bank impacts; the per-bank impacts stay with the caller.
    The field order is the column order of a run directory's summary.csv.
    """

    di_aggregate: float
    dc_aggregate: float
    mean_degree: float
    gini_total: float
    gini_in: float
    gini_out: float
    gini_assets: float
    di_max: float
    dc_max: float


def _impact_vectors(n: int, di, dc) -> tuple[np.ndarray, np.ndarray]:
    """``di`` and ``dc`` as float arrays, checked to hold n finite values each."""
    di, dc = np.asarray(di, dtype=np.float64), np.asarray(dc, dtype=np.float64)
    for name, v in (("di", di), ("dc", dc)):
        if v.shape != (n,):
            raise ValueError(f"expected {n} {name} values, got shape {v.shape}")
        _require_finite(v, f"{name} is not finite at bank")
    return di, dc


def summarize(
    di: np.ndarray,
    dc: np.ndarray,
    graph: DirectedGraph,
    sheets: BalanceSheetSet,
) -> NetworkRiskSummary:
    """Aggregate per-bank impacts into one network summary.

    ``di[k]`` and ``dc[k]`` are the impacts of shocking bank k, one finite
    value per bank (as :func:`contagion.clearing.clear_all` returns them).
    Sums the aggregates, takes the largest impacts, and attaches the
    topology-side concentration measures (mean degree; Gini of
    total/in/out degree and of total assets). Raises ``ValueError`` when
    ``graph`` and ``sheets`` cover different banks.
    """
    n = graph.n
    if n < 2:
        raise ValueError("summaries need at least 2 banks")
    if len(sheets) != n:
        raise ValueError(f"graph covers {n} banks but sheets cover {len(sheets)}")
    di, dc = _impact_vectors(n, di, dc)
    return NetworkRiskSummary(
        di_aggregate=float(di.sum()),
        dc_aggregate=float(dc.sum()),
        mean_degree=graph.mean_degree,
        gini_total=gini(graph.in_degree + graph.out_degree),
        gini_in=gini(graph.in_degree),
        gini_out=gini(graph.out_degree),
        gini_assets=gini(sheets.total_assets),
        di_max=float(di.max()),
        dc_max=float(dc.max()),
    )


@dataclass(frozen=True, eq=False)
class RankingStatistics:
    """Position-wise statistics of ranking curves across replications."""

    mean: np.ndarray
    std: np.ndarray
    cv: np.ndarray


def ranking_statistics(impacts: Sequence[np.ndarray]) -> RankingStatistics:
    """Mean, sample std and coefficient of variation per ranking position.

    ``impacts`` holds at least two replications' per-bank DI (or DC)
    arrays of finite values, all of one network size; each is sorted into
    its descending ranking curve, position 1 being the largest impact. The
    position-wise means define the ensemble ranking curve; ``cv`` is
    ``std / mean`` with positions of zero spread reported as 0.
    """
    if len(impacts) < 2:
        raise ValueError("ranking statistics need at least 2 replications")
    impacts = [np.asarray(v) for v in impacts]
    for k, v in enumerate(impacts):
        if v.shape != impacts[0].shape:
            raise ValueError(
                f"replication {k} has shape {v.shape}, replication 0 {impacts[0].shape}"
            )
        _require_finite(v, f"replication {k} is not finite at bank")
    curves = -np.sort(-np.vstack(impacts), axis=1)
    mean = curves.mean(axis=0)
    std = curves.std(axis=0, ddof=1)
    cv = np.divide(std, mean, out=np.zeros_like(std), where=std > 0.0)
    return RankingStatistics(mean=mean, std=std, cv=cv)


@dataclass(frozen=True)
class IndexImpactCorrelation:
    """Correlations between local indices and realized impacts.

    ``None`` marks an undefined correlation (a constant, zero-variance input,
    a Pearson over an index without a finite mean, such as one holding
    ``inf``, or fewer than 3 banks),
    deliberately distinct from a measured 0.
    """

    pearson_cs_di: Optional[float]
    pearson_f_dc: Optional[float]
    spearman_cs_di: Optional[float]
    spearman_f_dc: Optional[float]


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``x``, each group of ties sharing its mean rank."""
    _, group, size = np.unique(x, return_inverse=True, return_counts=True)
    # A tie group ending at sorted position ``last`` holds the ranks
    # ``last - size + 1 .. last``.
    last = np.cumsum(size)
    return (last - 0.5 * (size - 1))[group]


def _safe_corr(x: np.ndarray, y: np.ndarray) -> Optional[float]:
    """Pearson's r clipped to [-1, 1]; ``None`` when it is undefined.

    It is undefined when an input is constant, and when ``x`` has no finite
    mean: it holds ``inf``, or values whose sum overflows. ``y`` is finite.
    """
    with np.errstate(over="ignore"):
        x_mean = x.mean()
    if not np.isfinite(x_mean) or x.min() == x.max() or y.min() == y.max():
        return None
    xm, ym = x - x_mean, y - y.mean()
    # Scaled to unit peaks, so that no square overflows or underflows.
    xm, ym = xm / np.abs(xm).max(), ym / np.abs(ym).max()
    r = (xm * ym).sum() / np.sqrt((xm * xm).sum() * (ym * ym).sum())
    return float(np.clip(r, -1.0, 1.0))


def index_impact_correlation(
    indices: TopoIndices, di: np.ndarray, dc: np.ndarray
) -> IndexImpactCorrelation:
    """Pearson and Spearman correlations of CS with DI and frailty with DC.

    ``di`` and ``dc`` hold one finite value per bank, aligned with the
    indices by bank id; the banks may be one replication's or an ensemble
    pooled over replications. Spearman's rho is Pearson's r of the average
    ranks, which are constant exactly when the input is; the ranks stay
    finite where an index is ``inf``, whose Pearson is ``None``. Below 3
    banks every correlation is ``None``: like a constant input's, a
    two-point correlation is undefined (it is +-1 by construction).
    """
    n = indices.cs.size
    di, dc = _impact_vectors(n, di, dc)
    if n < 3:
        return IndexImpactCorrelation(None, None, None, None)
    cs, frailty = indices.cs, indices.frailty
    return IndexImpactCorrelation(
        pearson_cs_di=_safe_corr(cs, di),
        pearson_f_dc=_safe_corr(frailty, dc),
        spearman_cs_di=_safe_corr(_average_ranks(cs), _average_ranks(di)),
        spearman_f_dc=_safe_corr(_average_ranks(frailty), _average_ranks(dc)),
    )
