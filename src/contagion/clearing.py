"""Default cascades under simultaneous clearing of mutual obligations.

One bank is shocked by writing off its nonbank assets; the engine then
computes the unique vector of payments that settles all obligations under
limited liability and pro-rata sharing. Interbank and nonbank liabilities
rank pari passu: a defaulted bank distributes its remaining resources
(nonbank assets plus interbank receipts) proportionally across its total
obligations.

The solver grows the default set monotonically: starting from the shocked
bank, each round marks every bank whose accumulated losses exceed its
equity as defaulted and re-solves the payment fixed point restricted to the
defaulted set (solvent banks always pay in full), until no further bank
fails. Per-shock impact fractions are then read off the solution.

Within a round the default set is fixed, so the fixed point couples only
the defaulted banks that owe something (the payers). Each round keeps the
payer-to-payer edges of the payers' exposure rows as its subsystem; work
and memory per round grow with those edges, not with the cascade squared.

The paper's experiments shock every bank in turn; :func:`clear_all` does
that in one call and returns the per-bank DI/TI/DC as arrays indexed by
the shocked bank. It first screens every shock at once: round 1 for all
banks is read off the CSR arrays (does the shocked bank fail, what does it
pay, does any creditor's loss then exceed that creditor's equity?). A
shock that fails nobody but the shocked bank is settled by the screen with
the same arithmetic :func:`clear` would use, so its impacts are
bit-identical; only the shocks whose losses reach a second bank are passed
to :func:`clear`. There is one engine: the screen solves nothing that
:func:`clear` would not solve the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Optional

import numpy as np

from .balance import BalanceSheetSet, ExposureMatrix

__all__ = [
    "ShockScenario",
    "ClearingSolution",
    "CascadeResult",
    "AllBanksClearing",
    "ClearingError",
    "clear",
    "clear_all",
    "cascade_metrics",
    "total_initial_assets",
    "gross_system_volume",
]

# Absolute tolerance on payment changes in the inner fixed point. Tighter
# than the 1e-10 residual contract so the recomputed map moves no entry by
# more than 1e-10.
_INNER_TOL = 1e-13
_INNER_CAP = 10_000
# A bank defaults when loss exceeds its equity by more than this margin;
# a loss exactly equal to equity leaves the bank solvent with zero net worth.
_TRIGGER_EPS = 1e-12


class ClearingError(RuntimeError):
    """Raised when the payment fixed point fails to converge."""


@dataclass(frozen=True)
class ShockScenario:
    """An idiosyncratic shock: one bank's nonbank assets are written down.

    ``recovery_on_nonbank`` is the surviving fraction of the shocked bank's
    nonbank assets; the reference scenario is a total write-off (0.0).
    ``defaulted_nonbank_recovery`` is the fraction of any *other* defaulted
    bank's nonbank assets available to its creditors during clearing: 1.0
    (default) pools the whole estate pari passu, 0.0 keeps nonbank assets
    out of creditors' reach so insolvent banks pay from interbank receipts
    only.
    """

    shocked_bank: int
    recovery_on_nonbank: float = 0.0
    defaulted_nonbank_recovery: float = 1.0

    def __post_init__(self) -> None:
        if self.shocked_bank < 0:
            raise ValueError("shocked_bank must be a valid bank id")
        if not 0.0 <= self.recovery_on_nonbank <= 1.0:
            raise ValueError("recovery_on_nonbank must lie in [0, 1]")
        if not 0.0 <= self.defaulted_nonbank_recovery <= 1.0:
            raise ValueError("defaulted_nonbank_recovery must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class ClearingSolution:
    """Settled payments and the induced default set for one shock.

    ``payments[i]`` is what bank i actually pays on total obligations
    ``obligations[i]``; ``received[i]`` its realized interbank receipts;
    ``losses[i]`` the write-down on its interbank assets. ``defaulted``
    holds every insolvent bank, including the shocked one when the shock
    sinks it. ``iterations`` counts inner fixed-point sweeps.
    """

    payments: np.ndarray
    obligations: np.ndarray
    received: np.ndarray
    losses: np.ndarray
    defaulted: frozenset[int]
    iterations: int
    shocked_bank: int
    initial_writeoff: float

    @property
    def payment_ratios(self) -> np.ndarray:
        """Per-bank payment fraction; banks owing nothing pay ratio 1."""
        out = np.ones_like(self.payments)
        owes = self.obligations > 0.0
        out[owes] = self.payments[owes] / self.obligations[owes]
        return out


@dataclass(frozen=True)
class CascadeResult:
    """Impact fractions caused by shocking one bank.

    ``di`` is the contagion-only reduction of gross system volume (initial
    write-off excluded) as a fraction of the pre-shock volume, ``ti`` adds
    the initial write-off back in, and ``dc`` is the fraction of banks
    (excluding the shocked one) rendered insolvent.
    """

    shocked_bank: int
    di: float
    ti: float
    dc: float
    defaulted: frozenset[int] = field(repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.di <= self.ti <= 1.0 + 1e-12:
            raise ValueError(f"need 0 <= di <= ti <= 1, got ({self.di}, {self.ti})")
        if not 0.0 <= self.dc <= 1.0:
            raise ValueError(f"dc out of range: {self.dc}")


@dataclass(frozen=True, eq=False)
class AllBanksClearing:
    """The outcome of shocking every bank in turn, with engine counters.

    ``di[k]``, ``ti[k]`` and ``dc[k]`` are the impact fractions of shocking
    bank k, as :class:`CascadeResult` defines them. ``shocks_screened``
    counts the shocks the first-round screen settled and ``shocks_solved``
    those passed to :func:`clear`; ``inner_iterations`` sums the inner
    fixed-point sweeps over all shocks (as :attr:`ClearingSolution.iterations`
    would) and ``max_cascade`` is the largest default set.
    """

    di: np.ndarray
    ti: np.ndarray
    dc: np.ndarray
    shocks_screened: int
    shocks_solved: int
    inner_iterations: int
    max_cascade: int


def _emit_trace(sink: Optional[IO[str]], record: dict) -> None:
    if sink is not None:
        sink.write(json.dumps(record) + "\n")


def _trigger(threshold: np.ndarray) -> np.ndarray:
    """Losses beyond which banks with these loss buffers default."""
    return threshold + _TRIGGER_EPS * (1.0 + np.abs(threshold))


def _locate(ids: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``x`` in the sorted, non-empty ``ids`` and which match."""
    pos = np.searchsorted(ids, x)
    return pos, ids[np.minimum(pos, ids.size - 1)] == x


def clear(
    exposures: ExposureMatrix,
    sheets: BalanceSheetSet,
    scenario: ShockScenario,
    trace: Optional[IO[str]] = None,
) -> ClearingSolution:
    """Settle all obligations after one bank's nonbank assets are shocked.

    Implements the monotone round structure described in the module
    docstring. Within a round the payments of the defaulted set are solved
    by successive substitution of
    ``p_i = min(pbar_i, e_i + sum_j ratio_j * w_ji)`` where ``e_i`` is the
    bank's surviving nonbank assets (zero for the fully shocked bank) and
    solvent banks keep ratio 1. Receipts from outside the payer set are
    computed once per round; each sweep then re-applies the payer-to-payer
    shortfalls with one ``np.bincount`` over the subsystem's edge list.
    Only creditors whose losses grew in a round are tested for default in
    the next. Terminates in at most n rounds because the default set only
    grows.

    Args:
        exposures: interbank obligation matrix.
        sheets: matching balance sheets.
        scenario: which bank is shocked and how much of its nonbank assets
            survive.
        trace: optional text sink receiving one JSON line per round with
            the newly defaulted banks and the round's maximum payment
            change.

    Returns:
        The clearing solution; recomputing the payment map at the solution
        moves no entry by more than 1e-10.
    """
    n = exposures.n
    if len(sheets) != n:
        raise ValueError(
            f"exposures cover {n} banks but sheets cover {len(sheets)}"
        )
    s = scenario.shocked_bank
    if s >= n:
        raise ValueError(f"shocked bank {s} outside [0, {n})")

    ba = sheets.ba
    pbar = sheets.bl + sheets.nbl
    # Nonbank assets a bank can hand to creditors once it is in default;
    # solvent banks always pay in full out of their whole balance sheet.
    resources_ext = scenario.defaulted_nonbank_recovery * sheets.nba
    writeoff = (1.0 - scenario.recovery_on_nonbank) * sheets.nba[s]
    resources_ext[s] = scenario.recovery_on_nonbank * sheets.nba[s]

    # Insolvency thresholds: a bank fails once its interbank losses exceed
    # equity; the shocked bank's threshold is lowered by the write-off.
    threshold = sheets.e.copy()
    threshold[s] -= writeoff
    trigger = _trigger(threshold)

    indptr, indices, data = exposures.row_arrays()
    loss = np.zeros(n)
    ratio = np.ones(n)
    iterations = 0

    # Round 0: nobody has interbank losses yet.
    new = np.flatnonzero(trigger < 0.0)
    defaulted = new
    for round_no in range(n + 1):
        max_delta = 0.0
        fresh = new[:0]
        payers = defaulted[pbar[defaulted] > 0.0]
        if new.size and payers.size:
            # Edge list of the payers' own rows, in CSR order.
            starts = indptr[payers]
            row_len = indptr[payers + 1] - starts
            edge = np.arange(row_len.sum()) + np.repeat(
                starts - (np.cumsum(row_len) - row_len), row_len
            )
            cols, vals = indices[edge], data[edge]

            # Subsystem: the edges whose creditor is also a payer drive the
            # inner fixed point; dst indexes the creditor within payers.
            d = payers.size
            dst, internal = _locate(payers, cols)
            src = np.repeat(np.arange(d), row_len)[internal]
            dst, w = dst[internal], vals[internal]

            # Receipts from outside the payer set stay fixed within the
            # round: strip the payer-to-payer shortfalls (at current ratios)
            # out of the accumulated losses, the inner iteration re-applies
            # them.
            r_old = ratio[payers]
            base_recv = ba[payers] - loss[payers] + np.bincount(
                dst, weights=(1.0 - r_old)[src] * w, minlength=d
            )

            e_d = resources_ext[payers]
            pbar_d = pbar[payers]
            r = r_old
            p_prev = r * pbar_d
            while True:
                iterations += 1
                recv = base_recv - np.bincount(
                    dst, weights=(1.0 - r)[src] * w, minlength=d
                )
                p = e_d + recv
                np.minimum(p, pbar_d, out=p)
                np.maximum(p, 0.0, out=p)
                delta = float(np.abs(p - p_prev).max())
                max_delta = max(max_delta, delta)
                p_prev = p
                r = p / pbar_d
                if delta <= _INNER_TOL:
                    break
                if iterations > _INNER_CAP * (round_no + 1):
                    raise ClearingError(
                        f"inner fixed point stalled: round {round_no}, "
                        f"defaulted={defaulted.tolist()}, max_delta={delta:.3e}"
                    )
            ratio[payers] = r

            # Propagate the round's ratio drops to every creditor.
            np.add.at(loss, cols, np.repeat(r_old - r, row_len) * vals)
            # Only creditors whose losses grew this round can fail next.
            failing = cols[loss[cols] > trigger[cols]]
            fresh = np.unique(failing[~_locate(defaulted, failing)[1]])
        _emit_trace(
            trace,
            {
                "round": round_no,
                "new_defaults": new.tolist(),
                "max_delta": max_delta,
            },
        )
        if new.size == 0:
            break
        new = fresh
        defaulted = np.sort(np.concatenate((defaulted, new)))
    else:
        raise ClearingError(
            "default set failed to stabilize within n rounds "
            "(monotone growth violated)"
        )

    received = ba - loss
    payments = ratio * pbar
    return ClearingSolution(
        payments=payments,
        obligations=pbar.copy(),
        received=received,
        losses=loss,
        defaulted=frozenset(defaulted.tolist()),
        iterations=iterations,
        shocked_bank=s,
        initial_writeoff=float(writeoff),
    )


def clear_all(
    exposures: ExposureMatrix,
    sheets: BalanceSheetSet,
    recovery_on_nonbank: float = 0.0,
    defaulted_nonbank_recovery: float = 1.0,
) -> AllBanksClearing:
    """Shock every bank in turn; equal to clearing each shock separately.

    ``di[k]``, ``ti[k]`` and ``dc[k]`` equal those of
    ``cascade_metrics(clear(exposures, sheets, ShockScenario(k,
    recovery_on_nonbank, defaulted_nonbank_recovery)), sheets, k,
    total_initial_assets(sheets))`` bit for bit. Round 1 of
    every shock is screened at once over the CSR arrays: shocked bank k
    fails when its equity net of the write-off is below the trigger, then
    pays ``p_k = min(pbar_k, rec * NBA_k + BA_k)`` (floored at 0), and
    creditor j loses ``(1 - p_k / pbar_k) * w_kj``. When no such loss
    exceeds its creditor's trigger, the shock is settled; otherwise (or
    when some bank is insolvent before any shock) :func:`clear` solves it.
    Raises ``ValueError`` naming the first bank whose impacts break the
    :class:`CascadeResult` invariants.
    """
    n = exposures.n
    if len(sheets) != n:
        raise ValueError(
            f"exposures cover {n} banks but sheets cover {len(sheets)}"
        )
    ShockScenario(0, recovery_on_nonbank, defaulted_nonbank_recovery)  # validates
    v0 = _gross_volume(total_initial_assets(sheets), sheets)

    ba, nba = sheets.ba, sheets.nba
    pbar = sheets.bl + sheets.nbl
    writeoff = (1.0 - recovery_on_nonbank) * nba
    # Triggers as in clear: every creditor's from its equity, the shocked
    # bank's from its equity net of the write-off.
    trigger = _trigger(sheets.e)
    fails = _trigger(sheets.e - writeoff) < 0.0
    payers = fails & (pbar > 0.0)
    p = recovery_on_nonbank * nba[payers] + ba[payers]
    np.minimum(p, pbar[payers], out=p)
    np.maximum(p, 0.0, out=p)
    ratio = np.ones(n)
    ratio[payers] = p / pbar[payers]
    # One sweep finds p; a second confirms it unless it equals pbar.
    sweeps = np.zeros(n, dtype=np.int64)
    sweeps[payers] = 1 + (np.abs(p - pbar[payers]) > _INNER_TOL)

    indptr, indices, data = exposures.row_arrays()
    debtor = np.repeat(np.arange(n), np.diff(indptr))
    spreads = (1.0 - ratio)[debtor] * data > trigger[indices]
    solve = np.zeros(n, dtype=bool)
    solve[debtor[spreads]] = True
    if (trigger < 0.0).any():
        # Banks already insolvent join every cascade in round 0.
        solve[:] = True

    unpaid = pbar - ratio * pbar
    di, ti, dc = _impacts(unpaid, writeoff, np.zeros(n), n, v0)
    iterations = int(sweeps[~solve].sum())
    max_cascade = int(fails[~solve].any())
    for k in np.flatnonzero(solve).tolist():
        solution = clear(
            exposures,
            sheets,
            ShockScenario(k, recovery_on_nonbank, defaulted_nonbank_recovery),
        )
        di[k], ti[k], dc[k] = _solution_impacts(solution, n, v0)
        iterations += solution.iterations
        max_cascade = max(max_cascade, len(solution.defaulted))
    # CascadeResult's invariants, checked for every bank at once.
    ok = (0.0 <= di) & (di <= ti) & (ti <= 1.0 + 1e-12) & (0.0 <= dc) & (dc <= 1.0)
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValueError(
            f"bank {k}: need 0 <= di <= ti <= 1 and 0 <= dc <= 1, "
            f"got ({di[k]}, {ti[k]}, {dc[k]})"
        )
    solved = int(solve.sum())
    return AllBanksClearing(
        di=di,
        ti=ti,
        dc=dc,
        shocks_screened=n - solved,
        shocks_solved=solved,
        inner_iterations=iterations,
        max_cascade=max_cascade,
    )


def total_initial_assets(sheets: BalanceSheetSet) -> float:
    """System-wide pre-shock assets: interbank plus nonbank, all banks."""
    return float(sheets.ba.sum() + sheets.nba.sum())


def gross_system_volume(sheets: BalanceSheetSet) -> float:
    """Pre-shock gross volume: every claim once, plus nonbank assets.

    Equals total assets plus total liabilities with each interbank position
    counted a single time: sum of NBA, BA and NBL over banks. This is the
    base against which impact fractions are measured.
    """
    return float(sheets.nba.sum() + sheets.ba.sum() + sheets.nbl.sum())


def _gross_volume(a0: float, sheets: BalanceSheetSet) -> float:
    """Impact base: total initial assets ``a0`` plus nonbank liabilities."""
    if a0 <= 0.0:
        raise ValueError("total initial assets must be positive")
    return a0 + float(sheets.nbl.sum())


def _impacts(unpaid, writeoff, other_defaults, n: int, v0: float):
    """``(di, ti, dc)`` of one shock, or elementwise of arrays of shocks."""
    di = unpaid / v0
    return di, writeoff / v0 + di, other_defaults / n


def _solution_impacts(solution: ClearingSolution, n: int, v0: float):
    """``(di, ti, dc)`` of a cleared shock in a system of n banks and volume v0."""
    return _impacts(
        float((solution.obligations - solution.payments).sum()),
        solution.initial_writeoff,
        len(solution.defaulted - {solution.shocked_bank}),
        n,
        v0,
    )


def cascade_metrics(
    solution: ClearingSolution,
    sheets: BalanceSheetSet,
    shocked_bank: int,
    a0: float,
) -> CascadeResult:
    """Impact fractions of one shock relative to the pre-shock system size.

    The system's gross volume counts nonbank assets plus every claim once
    (interbank claims and nonbank funding claims alike). After clearing,
    each claim is marked to its realized payment and the shocked bank's
    written-off nonbank assets to zero, so the volume reduction equals the
    write-off plus the sum over creditors of unpaid obligations. ``di`` is
    that reduction net of the initial write-off, as a fraction of initial
    gross volume -- the contagion-only part; ``ti`` adds the write-off
    back; ``dc`` counts defaulted banks other than the shocked one, over
    the number of banks.

    Args:
        solution: output of :func:`clear`.
        sheets: the balance sheets the solution was computed from.
        shocked_bank: must match the solution's shocked bank.
        a0: total initial assets (interbank plus nonbank), computed before
            the shock; the gross volume adds nonbank liabilities on top.
    """
    v0 = _gross_volume(a0, sheets)
    if shocked_bank != solution.shocked_bank:
        raise ValueError(
            f"solution was computed for bank {solution.shocked_bank}, "
            f"not {shocked_bank}"
        )
    impacts = _solution_impacts(solution, len(sheets), v0)
    return CascadeResult(shocked_bank, *impacts, defaulted=solution.defaulted)
