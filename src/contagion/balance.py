"""Exposure weights and balance sheets derived from network topology.

Each directed link i -> j carries an obligation of bank i to bank j whose
weight grows with the degrees of both endpoints, so better-connected banks
hold larger positions. Row sums of the resulting exposure matrix are a
bank's interbank liabilities, column sums its interbank assets. The
remaining balance-sheet entries follow from three identities: total assets
equal total liabilities plus equity, equity is a (sampled) fraction
``lambda_i`` of total assets, and nonbank assets are a fixed multiple ``xi``
of interbank activity. All quantities share one dimensionless monetary
unit; only ratios matter downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .netgen import DirectedGraph

__all__ = [
    "ExposureMatrix",
    "BalanceSheet",
    "BalanceSheetSet",
    "BalanceConfig",
    "build_exposures",
    "build_balance_sheets",
    "nonbank_ratios",
    "export_exposures_csv",
    "export_balances_csv",
]

# Rejection-sampling retry cap for the capital-ratio draw.
_LAMBDA_RETRY_CAP = 1000


class ExposureMatrix:
    """Sparse matrix of interbank obligations.

    Entry (i, j) is the obligation of bank i to bank j, equivalently the
    exposure of j to i. Exactly one positive entry exists per directed
    link.
    """

    def __init__(self, matrix: sp.csr_matrix):
        matrix = sp.csr_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("exposure matrix must be square")
        if matrix.nnz == 0:
            raise ValueError("exposure matrix has no entries")
        matrix.sum_duplicates()
        if matrix.data.min() <= 0.0:
            raise ValueError("exposure weights must be positive")
        if matrix.diagonal().any():
            raise ValueError("self-exposures are not allowed")
        self._csr = matrix
        # Row/column sums: interbank liabilities and assets per bank.
        self._bl = np.asarray(matrix.sum(axis=1)).ravel()
        self._ba = np.asarray(matrix.sum(axis=0)).ravel()
        self._bl.setflags(write=False)
        self._ba.setflags(write=False)

    @property
    def n(self) -> int:
        return self._csr.shape[0]

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    @property
    def bank_assets(self) -> np.ndarray:
        """Per-bank interbank assets (column sums)."""
        return self._ba

    @property
    def bank_liabilities(self) -> np.ndarray:
        """Per-bank interbank liabilities (row sums)."""
        return self._bl

    @property
    def matrix(self) -> sp.csr_matrix:
        return self._csr

    def row_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw CSR arrays (indptr, indices, data) for fast row traversal."""
        return self._csr.indptr, self._csr.indices, self._csr.data

    def weight(self, i: int, j: int) -> float:
        return float(self._csr[i, j])

    def entries(self) -> Iterator[tuple[int, int, float]]:
        """Iterate (debtor, creditor, weight) sorted by (debtor, creditor).

        CSR rows are in canonical order after ``sum_duplicates``, so a row
        walk already yields that order.
        """
        indptr, indices, data = self.row_arrays()
        rows = np.repeat(np.arange(self.n), np.diff(indptr))
        yield from zip(rows.tolist(), indices.tolist(), data.tolist())


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
    matrix = sp.csr_matrix(
        (weights, (src, dst)), shape=(graph.n, graph.n)
    )
    return ExposureMatrix(matrix)


@dataclass(frozen=True)
class BalanceSheet:
    """One bank's balance sheet entries and capital ratio."""

    ba: float
    bl: float
    nba: float
    nbl: float
    e: float
    lambda_i: float

    @property
    def total_assets(self) -> float:
        return self.ba + self.nba


class BalanceSheetSet(Sequence[BalanceSheet]):
    """Immutable per-bank balance sheets, column-backed for vector math.

    Indexing yields a :class:`BalanceSheet`; the column arrays ``ba``,
    ``bl``, ``nba``, ``nbl``, ``e`` and ``lam`` are read-only views shared
    with the cascade engine. NaN or infinite entries are rejected.
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
            bad = np.flatnonzero(~np.isfinite(a))
            if bad.size:
                bank = int(bad[0])
                raise ValueError(
                    f"balance-sheet column {name} is not finite at bank {bank}"
                )
        for a in arrays:
            a.setflags(write=False)
        self.ba, self.bl, self.nba, self.nbl, self.e, self.lam = arrays

    def __len__(self) -> int:
        return self.ba.size

    def __getitem__(self, i: int) -> "BalanceSheet":
        return BalanceSheet(
            ba=float(self.ba[i]),
            bl=float(self.bl[i]),
            nba=float(self.nba[i]),
            nbl=float(self.nbl[i]),
            e=float(self.e[i]),
            lambda_i=float(self.lam[i]),
        )

    @property
    def total_assets(self) -> np.ndarray:
        return self.ba + self.nba


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
        if not 0.0 < self.lambda_min < 1.0:
            raise ValueError("lambda_min must lie in (0, 1)")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if self.xi <= 0.0:
            raise ValueError("xi must be positive")


def _sample_capital_ratios(
    rng: np.random.Generator, n: int, lambda_min: float, sigma: float
) -> np.ndarray:
    """Draw Normal(lambda_min, sigma) ratios, rejecting values <= the floor."""
    lam = rng.normal(lambda_min, sigma, size=n)
    for _ in range(_LAMBDA_RETRY_CAP):
        bad = lam <= lambda_min
        count = int(bad.sum())
        if count == 0:
            return lam
        lam[bad] = rng.normal(lambda_min, sigma, size=count)
    if (lam > lambda_min).all():
        return lam
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

    Interbank assets/liabilities come from the matrix margins, capital
    ratios are sampled above the floor, nonbank assets are
    ``xi * (BA + BL)``, equity is ``lambda_i`` times total assets, and
    nonbank liabilities close the accounting identity:
    ``NBL = (1 - lambda_i)(1 + xi) BA + [(1 - lambda_i) xi - 1] BL``.
    Deterministic given ``config.seed``. Banks without links get all-zero
    entries (their capital ratio is still drawn, keeping the stream
    aligned).

    Raises:
        ValueError: when a bank's implied nonbank liabilities are negative,
            which a larger ``xi`` would avoid.
    """
    ba = exposures.bank_assets.copy()
    bl = exposures.bank_liabilities.copy()
    rng = np.random.default_rng(config.seed)
    lam = _sample_capital_ratios(
        rng, exposures.n, config.lambda_min, config.sigma
    )
    nba, nbl = _nonbank_sides(ba, bl, lam, config.xi)
    e = lam * (ba + nba)
    negative = np.flatnonzero(nbl < 0.0)
    if negative.size:
        bank = int(negative[0])
        raise ValueError(
            f"bank {bank} has negative nonbank liabilities "
            f"({nbl[bank]:.6g}); increase xi (currently {config.xi}) so "
            "nonbank funding can close the balance-sheet identity"
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


def export_exposures_csv(exposures: ExposureMatrix, path: str | Path) -> None:
    """Write the exposure entries as ``i,j,w`` rows (12 significant digits)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("i,j,w\n")
        for i, j, w in exposures.entries():
            fh.write(f"{i},{j},{w:.12g}\n")


def export_balances_csv(sheets: BalanceSheetSet, path: str | Path) -> None:
    """Write per-bank balance sheets as ``bank,ba,bl,nba,nbl,e,lambda`` rows."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("bank,ba,bl,nba,nbl,e,lambda\n")
        for i in range(len(sheets)):
            fh.write(
                f"{i},{sheets.ba[i]:.12g},{sheets.bl[i]:.12g},"
                f"{sheets.nba[i]:.12g},{sheets.nbl[i]:.12g},"
                f"{sheets.e[i]:.12g},{sheets.lam[i]:.12g}\n"
            )
