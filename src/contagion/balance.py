"""Exposure weights and balance sheets derived from network topology.

Each directed link i -> j carries an obligation of bank i to bank j whose
weight grows with the degrees of both endpoints, so better-connected banks
hold larger positions. The exposure matrix, the graph's links with one
weight each, is kept as plain numpy CSR arrays that the cascade engine
walks row by row; its row sums are a bank's interbank liabilities, its
column sums its interbank assets. The remaining balance-sheet entries
follow from three identities: total assets equal total liabilities plus
equity, equity is a (sampled) fraction ``lambda_i`` of total assets, and
nonbank assets are a fixed multiple ``xi`` of interbank activity. All
quantities share one dimensionless monetary unit; only ratios matter.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .netgen import DirectedGraph, _require, _require_finite

__all__ = [
    "ExposureMatrix",
    "BalanceSheetSet",
    "BalanceConfig",
    "build_exposures",
    "build_balance_sheets",
    "nonbank_ratios",
]

# Rejection-sampling retry cap for the capital-ratio draw.
_LAMBDA_RETRY_CAP = 1000


class ExposureMatrix:
    """Interbank obligations: a graph's links, one weight on each.

    Entry (i, j) is the obligation of bank i to bank j, equivalently the
    exposure of j to i. The graph owns the sparsity pattern and its rules
    (links sorted by debtor, then creditor, unique, in range, no self-link),
    so its creditor column is ``indices`` and its running out-degree sum is
    ``indptr`` as they stand. ``weights`` gives one finite, positive weight
    per link in ``graph.links`` order; the error names the first bad link.
    ``n``, ``indptr``, ``indices`` and ``data`` (the weights) are plain
    attributes, the three CSR arrays read-only copies; row and column sums
    are left to :func:`build_balance_sheets`.
    """

    def __init__(self, graph: DirectedGraph, weights):
        n, links = graph.n, graph.links
        data = np.array(weights, dtype=np.float64)
        if data.shape != (len(links),):
            raise ValueError(
                f"need one weight per link: {len(links)} links, "
                f"weights of shape {data.shape}"
            )
        if data.size == 0:
            raise ValueError("exposure matrix has no entries")
        infinite = ~np.isfinite(data)
        bad = infinite | (data <= 0.0)
        if bad.any():
            k = int(np.argmax(bad))
            i, j = links[k].tolist()
            kind = "non-finite" if infinite[k] else "non-positive"
            raise ValueError(f"exposure ({i}, {j}) has {kind} weight {data[k]}")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(graph.out_degree, out=indptr[1:])
        indices = np.ascontiguousarray(links[:, 1])
        for a in (indptr, indices, data):
            a.setflags(write=False)
        self.n, self.indptr, self.indices, self.data = n, indptr, indices, data

    @property
    def nnz(self) -> int:
        return self.data.size


def build_exposures(graph: DirectedGraph) -> ExposureMatrix:
    """Assign link weights from endpoint degrees.

    The obligation on link i -> j is
    ``k_out(i) * k_in(j) / (k_out_max * k_in_max)`` with degrees taken from
    the finalized simple graph, so weights lie in (0, 1] and the link from
    the largest debtor to the largest creditor has weight 1.
    """
    if graph.link_count == 0:
        raise ValueError("graph has no links; exposures undefined")
    src, dst = graph.links[:, 0], graph.links[:, 1]
    kout = graph.out_degree.astype(np.float64)
    kin = graph.in_degree.astype(np.float64)
    scale = kout.max() * kin.max()
    weights = kout[src] * kin[dst] / scale
    return ExposureMatrix(graph, weights)


class BalanceSheetSet:
    """Immutable per-bank balance sheets, one column array per entry.

    The columns ``ba``, ``bl``, ``nba``, ``nbl``, ``e`` and ``lam`` are
    read-only arrays indexed by bank and shared with the cascade engine;
    ``len()`` is the number of banks. NaN or infinite entries are rejected.
    """

    def __init__(
        self,
        ba: np.ndarray,
        bl: np.ndarray,
        nba: np.ndarray,
        nbl: np.ndarray,
        e: np.ndarray,
        lam: np.ndarray,
    ):
        arrays = [np.asarray(a, dtype=np.float64) for a in (ba, bl, nba, nbl, e, lam)]
        n = arrays[0].size
        if any(a.shape != (n,) for a in arrays):
            raise ValueError("balance-sheet columns must share one length")
        for name, a in zip(("ba", "bl", "nba", "nbl", "e", "lam"), arrays):
            _require_finite(a, f"balance-sheet column {name} is not finite at bank")
        for a in arrays:
            a.setflags(write=False)
        self.ba, self.bl, self.nba, self.nbl, self.e, self.lam = arrays

    def __len__(self) -> int:
        return self.ba.size

    @property
    def total_assets(self) -> np.ndarray:
        return self.ba + self.nba


def _bank_count(exposures: ExposureMatrix, sheets: BalanceSheetSet) -> int:
    """The number of banks, once the matrix and the sheets agree on it."""
    n = exposures.n
    if len(sheets) != n:
        raise ValueError(f"exposures cover {n} banks but sheets cover {len(sheets)}")
    return n


@dataclass(frozen=True)
class BalanceConfig:
    """Balance-sheet construction parameters.

    ``lambda_min`` is the regulatory floor of the capital/assets ratio;
    each bank's ratio is drawn from Normal(lambda_min, sigma) conditioned
    on exceeding the floor. ``xi`` scales nonbank assets relative to
    interbank activity.
    """

    lambda_min: float
    sigma: float = 0.01
    xi: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        _require(self, numbers.Integral, "seed")
        _require(self, numbers.Real, "lambda_min", "sigma", "xi")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not 0.0 < self.lambda_min < 1.0:
            raise ValueError("lambda_min must lie in (0, 1)")
        for name in ("sigma", "xi"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and positive")


def _sample_capital_ratios(
    rng: np.random.Generator, n: int, lambda_min: float, sigma: float
) -> np.ndarray:
    """Draw Normal(lambda_min, sigma) ratios, rejecting values <= the floor."""
    lam = rng.normal(lambda_min, sigma, size=n)
    # The first pass checks the first draw; each later one, a round of redraws.
    for _ in range(_LAMBDA_RETRY_CAP + 1):
        bad = lam <= lambda_min
        count = int(bad.sum())
        if count == 0:
            return lam
        lam[bad] = rng.normal(lambda_min, sigma, size=count)
    raise RuntimeError(
        f"capital-ratio sampling failed to clear the floor {lambda_min} "
        f"within {_LAMBDA_RETRY_CAP} rounds"
    )


def _nonbank_sides(ba, bl, lam, xi):
    """``(NBA, NBL)`` closing the balance-sheet identities; scalars or arrays."""
    nba = xi * (ba + bl)
    nbl = (1.0 - lam) * (1.0 + xi) * ba + ((1.0 - lam) * xi - 1.0) * bl
    return nba, nbl


def build_balance_sheets(
    exposures: ExposureMatrix, config: BalanceConfig
) -> BalanceSheetSet:
    """Derive every bank's balance sheet from the exposure matrix.

    Interbank liabilities are the matrix's row sums and interbank assets
    its column sums, summed in the same order as ``scipy.sparse`` sums a
    canonical CSR matrix, so they match it bit for bit: each non-empty row
    by one ``np.add.reduceat``, each column by ``np.bincount`` in CSR
    order. Capital ratios are sampled above the floor, nonbank assets are
    ``xi * (BA + BL)``, equity is ``lambda_i`` times total assets, and
    nonbank liabilities close the accounting identity:
    ``NBL = (1 - lambda_i)(1 + xi) BA + [(1 - lambda_i) xi - 1] BL``.
    Deterministic given ``config.seed``. Banks without links get all-zero
    entries (their capital ratio is still drawn, keeping the stream
    aligned).

    Raises:
        ValueError: when a bank's implied nonbank liabilities are negative,
            advising a larger ``xi``, or a smaller ``lambda_min`` or
            ``sigma`` when a capital ratio of 1 or more is to blame.
    """
    n, indptr, data = exposures.n, exposures.indptr, exposures.data
    # reduceat would give an empty row the next row's first weight; it owes 0.
    rows = np.flatnonzero(np.diff(indptr))
    bl = np.zeros(n)
    bl[rows] = np.add.reduceat(data, indptr[rows])
    ba = np.bincount(exposures.indices, weights=data, minlength=n)
    rng = np.random.default_rng(config.seed)
    lam = _sample_capital_ratios(rng, n, config.lambda_min, config.sigma)
    nba, nbl = _nonbank_sides(ba, bl, lam, config.xi)
    e = lam * (ba + nba)
    negative = np.flatnonzero(nbl < 0.0)
    if negative.size:
        # With lambda >= 1 equity covers all assets, so no xi can help.
        capped = negative[lam[negative] >= 1.0]
        bank = int((capped if capped.size else negative)[0])
        advice = (
            f"capital ratio {lam[bank]:.6g} >= 1, which no xi can fix; lower "
            f"lambda_min (currently {config.lambda_min}) "
            f"or sigma (currently {config.sigma})"
            if capped.size
            else f"increase xi (currently {config.xi}) so nonbank funding can "
            "close the balance-sheet identity"
        )
        raise ValueError(
            f"bank {bank} has negative nonbank liabilities ({nbl[bank]:.6g}); {advice}"
        )
    return BalanceSheetSet(ba=ba, bl=bl, nba=nba, nbl=nbl, e=e, lam=lam)


def nonbank_ratios(
    ba: float, bl: float, lambda_i: float, xi: float
) -> tuple[float, float]:
    """Nonbank-assets/total-assets and nonbank-liabilities/total-liabilities.

    Evaluates the two composition ratios implied by the balance-sheet
    identities for a single bank. Requires at least one of ``ba``/``bl``
    positive.
    """
    if ba == 0.0 and bl == 0.0:
        raise ValueError("ratios undefined for a bank with no interbank activity")
    nba, nbl = _nonbank_sides(ba, bl, lambda_i, xi)
    return nba / (ba + nba), nbl / (bl + nbl)

