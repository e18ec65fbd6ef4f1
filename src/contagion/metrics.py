"""Aggregate and topological systemic-risk measures.

Covers concentration (Gini coefficients of degree and asset distributions),
network-level aggregates of per-bank impact measures, two local
vulnerability indices read off the exposure matrix (counterparty
susceptibility and local network frailty), ranking-curve statistics across
replications, and correlations between the local indices and realized
impacts. The Pearson and Spearman correlations are a few lines of numpy
rather than ``scipy.stats``, whose import would dominate the package's
start-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .balance import BalanceSheetSet, ExposureMatrix, _bank_count
from .netgen import DirectedGraph

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
    "correlate_indices",
]


def _require_finite(v: np.ndarray, message: str) -> None:
    """Raise ``ValueError`` ending ``message`` with the first non-finite index."""
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(f"{message} {int(bad[0])}")


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
    return float(2.0 * np.dot(ranks, x) / (n * total) - (n + 1.0) / n)


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


def _debtor_max(n: int, row: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Largest of each debtor's link values; 0 for a bank that owes nothing."""
    out = np.zeros(n)
    np.maximum.at(out, row, values)
    return out


def compute_topo_indices(
    exposures: ExposureMatrix, sheets: BalanceSheetSet
) -> TopoIndices:
    """Both local indices of every bank, from one pass over the links.

    For bank i, counterparty susceptibility is ``max_j w_ij / E_j`` and
    local network frailty ``max_j (w_ij / E_j) * BL_j``, both over the
    creditors j of i, with ``E_j`` the creditor's equity and ``BL_j`` its
    interbank liabilities, which proxy how hard the creditor's own failure
    would hit its lenders. Banks with no creditors score 0 on both.
    Raises ``ValueError`` when the sheets cover other banks than the matrix.
    """
    n = _bank_count(exposures, sheets)
    # Per link: debtor, creditor, and weight over the creditor's equity.
    indptr, col, data = exposures.row_arrays()
    row = np.repeat(np.arange(n), np.diff(indptr))
    denom = sheets.e[col]
    with np.errstate(divide="ignore"):
        ratio = np.where(denom > 0.0, data / np.where(denom > 0, denom, 1.0), np.inf)
    return TopoIndices(
        cs=_debtor_max(n, row, ratio),
        frailty=_debtor_max(n, row, ratio * sheets.bl[col]),
    )


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

    ``None`` marks an undefined correlation (a constant, zero-variance input),
    deliberately distinct from a measured 0.
    """

    pearson_cs_di: Optional[float]
    pearson_f_dc: Optional[float]
    spearman_cs_di: Optional[float]
    spearman_f_dc: Optional[float]


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``x``, each group of ties sharing its mean rank."""
    order = np.argsort(x)
    xs = x[order]
    head = np.concatenate(([True], xs[1:] != xs[:-1]))
    dense = np.empty(x.size, dtype=np.intp)
    dense[order] = np.cumsum(head)
    # With dense[i] = k for the k-th smallest distinct value (from 1),
    # count[k - 1] values lie below x[i] and count[k] at or below it.
    count = np.append(np.flatnonzero(head), x.size)
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def _safe_corr(x: np.ndarray, y: np.ndarray) -> Optional[float]:
    """Pearson's r clipped to [-1, 1]; ``None`` when an input is constant."""
    if x.min() == x.max() or y.min() == y.max():
        return None
    xm, ym = x - x.mean(), y - y.mean()
    # Scaled to unit peaks, so that no square overflows or underflows.
    xm, ym = xm / np.abs(xm).max(), ym / np.abs(ym).max()
    r = (xm * ym).sum() / np.sqrt((xm * xm).sum() * (ym * ym).sum())
    return float(np.clip(r, -1.0, 1.0))


def correlate_indices(
    cs: np.ndarray, frailty: np.ndarray, di: np.ndarray, dc: np.ndarray
) -> IndexImpactCorrelation:
    """Pearson and Spearman correlations of CS with DI and frailty with DC.

    The four vectors are aligned by bank (possibly pooled over replications).
    Spearman's rho is Pearson's r of the average ranks, which are constant
    exactly when the input is.
    """
    cs, frailty, di, dc = (np.asarray(v, dtype=np.float64) for v in (cs, frailty, di, dc))
    return IndexImpactCorrelation(
        pearson_cs_di=_safe_corr(cs, di),
        pearson_f_dc=_safe_corr(frailty, dc),
        spearman_cs_di=_safe_corr(_average_ranks(cs), _average_ranks(di)),
        spearman_f_dc=_safe_corr(_average_ranks(frailty), _average_ranks(dc)),
    )


def index_impact_correlation(
    indices: TopoIndices, di: np.ndarray, dc: np.ndarray
) -> IndexImpactCorrelation:
    """Correlate susceptibility with DI and frailty with DC, per bank.

    ``di`` and ``dc`` hold one finite value per bank, aligned with the
    indices by bank id. Needs at least 3 banks.
    """
    n = indices.cs.size
    if n < 3:
        raise ValueError("correlations need at least 3 banks")
    di, dc = _impact_vectors(n, di, dc)
    return correlate_indices(indices.cs, indices.frailty, di, dc)
