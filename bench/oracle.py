"""Correctness checks on the benchmark's outputs, independent of the library.

The clearing oracle is a plain Picard iteration of the payment map
``p <- min(pbar, e + W^T (p / pbar))`` from ``p = pbar`` down to the
greatest fixed point, on a sparse matrix rebuilt here from the graph's
links. Exposure weights and balance-sheet identities are recomputed from
their definitions. Checks return what failed (a mask of banks or a list
of problems), so the caller can count failed operations against the
operations attempted.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

PAYMENT_TOL = 1e-10
IMPACT_TOL = 1e-12
SHEET_TOL = 1e-9
# Step size at which the Picard iteration stops, relative to the largest
# obligation; far below PAYMENT_TOL so the oracle's own error is negligible.
PICARD_STEP = 1e-15
PICARD_CAP = 1_000_000
# Same insolvency margin as the model's definition: a loss exactly equal to
# equity leaves a bank solvent.
TRIGGER_EPS = 1e-12


def graph_arrays(graph) -> tuple[np.ndarray, np.ndarray]:
    links = np.asarray(graph.links, dtype=np.int64).reshape(-1, 2)
    return links[:, 0], links[:, 1]


def check_graph(graph, n: int) -> list[str]:
    """Simple digraph on n nodes whose degree tallies match its links."""
    src, dst = graph_arrays(graph)
    problems = []
    if graph.n != n:
        problems.append(f"graph has {graph.n} nodes, expected {n}")
    if (src == dst).any():
        problems.append("self-link")
    if np.unique(src * n + dst).size != src.size:
        problems.append("parallel links")
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        problems.append("link endpoint out of range")
        return problems
    kin, kout = np.asarray(graph.in_degree), np.asarray(graph.out_degree)
    if int(kin.sum()) != graph.link_count or int(kout.sum()) != graph.link_count:
        problems.append("degree sums differ from link count")
    if not (
        np.array_equal(kin, np.bincount(dst, minlength=n))
        and np.array_equal(kout, np.bincount(src, minlength=n))
    ):
        problems.append("degree tallies differ from links")
    return problems


def reference_matrix(graph) -> sp.csr_matrix:
    """Exposure matrix from its definition: w_ij = kout_i kin_j / (max kout max kin)."""
    src, dst = graph_arrays(graph)
    kout = np.bincount(src, minlength=graph.n).astype(np.float64)
    kin = np.bincount(dst, minlength=graph.n).astype(np.float64)
    w = kout[src] * kin[dst] / (kout.max() * kin.max())
    return sp.csr_matrix((w, (src, dst)), shape=(graph.n, graph.n))


def sheet_failures(w: sp.csr_matrix, sheets, lambda_min: float, xi: float) -> np.ndarray:
    """Mask of banks whose balance sheet breaks an identity by more than SHEET_TOL."""
    ba_ref = np.asarray(w.sum(axis=0)).ravel()
    bl_ref = np.asarray(w.sum(axis=1)).ravel()
    ba, bl, nba, nbl, e, lam = (
        np.asarray(a) for a in (sheets.ba, sheets.bl, sheets.nba, sheets.nbl, sheets.e, sheets.lam)
    )
    scale = np.maximum(1.0, ba + nba)
    return (
        (np.abs(ba - ba_ref) > SHEET_TOL * scale)
        | (np.abs(bl - bl_ref) > SHEET_TOL * scale)
        | (np.abs(nba - xi * (ba + bl)) > SHEET_TOL * scale)
        | (np.abs(e - lam * (ba + nba)) > SHEET_TOL * scale)
        | (np.abs(ba + nba - bl - nbl - e) > SHEET_TOL * scale)
        | ~(lam > lambda_min)
        | ~(nbl >= 0.0)
    )


def picard_clearing(
    wt: sp.csr_matrix, external: np.ndarray, pbar: np.ndarray
) -> np.ndarray:
    """Greatest clearing vector by iterating the payment map from the top."""
    n = pbar.size
    owes = pbar > 0.0
    step = PICARD_STEP * max(1.0, float(pbar.max()))
    p = pbar.copy()
    for _ in range(PICARD_CAP):
        ratio = np.divide(p, pbar, out=np.ones(n), where=owes)
        p_new = np.minimum(pbar, external + wt @ ratio)
        np.maximum(p_new, 0.0, out=p_new)
        if np.abs(p_new - p).max() <= step:
            return p_new
        p = p_new
    raise RuntimeError("Picard oracle did not converge")


class ShockOracle:
    """Re-solves single-bank shocks of one system from first principles."""

    def __init__(self, w: sp.csr_matrix, sheets):
        self.wt = w.T.tocsr()
        self.ba = np.asarray(sheets.ba)
        self.nba = np.asarray(sheets.nba)
        self.e = np.asarray(sheets.e)
        self.pbar = np.asarray(sheets.bl) + np.asarray(sheets.nbl)
        self.v0 = float(self.nba.sum() + self.ba.sum() + np.asarray(sheets.nbl).sum())

    def solve(self, bank: int) -> dict:
        """Payments, default set and DI/TI/DC when ``bank`` loses its nonbank assets."""
        external = self.nba.copy()
        external[bank] = 0.0
        p = picard_clearing(self.wt, external, self.pbar)
        ratio = np.divide(p, self.pbar, out=np.ones(p.size), where=self.pbar > 0.0)
        loss = self.ba - self.wt @ ratio
        threshold = self.e.copy()
        threshold[bank] -= self.nba[bank]
        defaulted = frozenset(
            int(b)
            for b in np.flatnonzero(loss > threshold + TRIGGER_EPS * (1.0 + np.abs(threshold)))
        )
        di = float((self.pbar - p).sum()) / self.v0
        return {
            "payments": p,
            "defaulted": defaulted,
            "di": di,
            "ti": float(self.nba[bank]) / self.v0 + di,
            "dc": len(defaulted - {bank}) / p.size,
        }

    def impact_failures(self, di: np.ndarray, dc: np.ndarray) -> np.ndarray:
        """Mask of shocks breaking 0 <= di <= ti <= 1 or dc in [0, 1]."""
        ti = self.nba / self.v0 + di
        return ~(
            (di >= 0.0) & (di <= ti) & (ti <= 1.0 + IMPACT_TOL) & (dc >= 0.0) & (dc <= 1.0)
        )


def disagreements(expected: dict, payments=None, defaulted=None, **impacts) -> list[str]:
    """Differences between an oracle solution and the library's outputs."""
    problems = []
    if payments is not None:
        gap = float(np.abs(np.asarray(payments) - expected["payments"]).max())
        if not gap <= PAYMENT_TOL:
            problems.append(f"payments differ by {gap:.3e}")
    if defaulted is not None and frozenset(defaulted) != expected["defaulted"]:
        problems.append("default sets differ")
    for key, value in impacts.items():
        if not abs(value - expected[key]) <= IMPACT_TOL:
            problems.append(f"{key} differs by {abs(value - expected[key]):.3e}")
    return problems

