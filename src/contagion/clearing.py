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
fails (the fictitious-default sequence of Eisenberg and Noe, 2001).
Impacts and each round's new defaults are read off the solution; no I/O.

Within a round the default set is fixed, so the fixed point couples only
the defaulted banks that owe something (the payers). Each round keeps the
payer-to-payer edges of the payers' exposure rows as its subsystem; work
and memory per round grow with those edges, not with the cascade squared.

One round loop settles every shock: a batch of shocks is one
block-diagonal system whose node ``j * n + i`` is bank i under the j-th
shock. Each block keeps its own default set and sweeps and adds every
sum in a lone shock's order, so it gets that shock's results. Only
defaulted banks pay short, so each round sums its creditors' losses
afresh from the payers' edges. :func:`clear` is a batch of one;
:func:`clear_all` shocks every bank in turn, as the paper's experiments
do, in batches of consecutive banks, and returns per-bank DI/TI/DC arrays.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .balance import BalanceSheetSet, ExposureMatrix, _bank_count
from .netgen import _require, _run_heads

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
# clear_all settles its shocks in batches of consecutive banks; a batch
# closes once the shocked banks' out-degrees, plus one per shock, pass this.
_BATCH_LINKS = 5_000
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
        _require(self, numbers.Integral, "shocked_bank")
        _require(self, numbers.Real, "recovery_on_nonbank", "defaulted_nonbank_recovery")
        if self.shocked_bank < 0:
            raise ValueError("shocked_bank must be a valid bank id")
        if not 0.0 <= self.recovery_on_nonbank <= 1.0:
            raise ValueError("recovery_on_nonbank must lie in [0, 1]")
        if not 0.0 <= self.defaulted_nonbank_recovery <= 1.0:
            raise ValueError("defaulted_nonbank_recovery must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class ClearingSolution:
    """Settled payments and the induced default set for one shock.

    ``payments[i]`` is what bank i actually pays on its total obligations
    ``sheets.obligations[i]``; only banks in ``defaulted`` pay less.
    ``defaulted`` holds every insolvent bank, including the shocked one when
    the shock sinks it. ``iterations`` counts inner fixed-point sweeps,
    ``shocked_bank`` is the bank shocked and ``initial_writeoff`` its
    written-off nonbank assets. ``rounds`` pairs each round's new defaults
    (increasing; none in the last round) with its largest payment change.
    """

    payments: np.ndarray
    defaulted: frozenset[int]
    iterations: int
    shocked_bank: int
    initial_writeoff: float
    rounds: tuple[tuple[tuple[int, ...], float], ...]


@dataclass(frozen=True)
class CascadeResult:
    """Impact fractions caused by shocking one bank.

    ``di`` is the contagion-only reduction of gross system volume (initial
    write-off excluded) as a fraction of the pre-shock volume, ``ti`` adds
    the initial write-off back in, and ``dc`` is the fraction of banks
    (excluding the shocked one) rendered insolvent. :func:`cascade_metrics`
    makes it and has checked ``0 <= di <= ti <= 1`` and ``0 <= dc <= 1``.
    """

    shocked_bank: int
    di: float
    ti: float
    dc: float


@dataclass(frozen=True, eq=False)
class AllBanksClearing:
    """The outcome of shocking every bank in turn, with engine counters.

    ``di[k]``, ``ti[k]`` and ``dc[k]`` are the impact fractions of shocking
    bank k, as :class:`CascadeResult` defines them. ``shocks_screened``
    counts the shocks whose default set holds no bank but the shocked one
    and ``shocks_solved`` the shocks that fail a second bank;
    ``inner_iterations`` sums the inner fixed-point sweeps over all shocks
    (as :attr:`ClearingSolution.iterations` would) and ``max_cascade`` is
    the largest default set.
    """

    di: np.ndarray
    ti: np.ndarray
    dc: np.ndarray
    shocks_screened: int
    shocks_solved: int
    inner_iterations: int
    max_cascade: int


def _trigger(threshold: np.ndarray) -> np.ndarray:
    """Losses beyond which banks with these loss buffers default."""
    return threshold + _TRIGGER_EPS * (1.0 + np.abs(threshold))


def _locate(ids: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``x`` in the sorted, non-empty ``ids`` and which match."""
    pos = np.searchsorted(ids, x)
    return pos, ids[np.minimum(pos, ids.size - 1)] == x


def _row_edges(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR positions of the entries of ``rows``, row by row, and row lengths."""
    starts = indptr[rows]
    row_len = indptr[rows + 1] - starts
    edge = np.arange(row_len.sum()) + np.repeat(
        starts - (np.cumsum(row_len) - row_len), row_len
    )
    return edge, row_len


def _settle(
    exposures: ExposureMatrix,
    sheets: BalanceSheetSet,
    obligations: np.ndarray,
    shocks: np.ndarray,
    recovery_on_nonbank: float,
    defaulted_nonbank_recovery: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list]:
    """Clear a batch of shocks; node ``j * n + i`` is bank i under ``shocks[j]``.

    Each round re-solves the defaulted payers of every shock that gained
    defaults by successive substitution of ``p_i = min(pbar_i, e_i +
    sum_j ratio_j * w_ji)`` (``e_i`` the recoverable nonbank assets),
    one ``np.bincount`` over the payers' edges per sweep; a shock stops
    sweeping once its own payments move by at most ``_INNER_TOL``.
    ``obligations`` is ``sheets.obligations``, read once by the caller.
    Returns the sorted defaulted nodes, their ratios, the inner sweeps and
    write-off of each shock, and each round's sorted new nodes and max delta.
    """
    n = exposures.n
    ba, nba, e = sheets.ba, sheets.nba, sheets.e
    # The shocked bank's loss buffer is lowered by the write-off of its
    # nonbank assets.
    writeoff = (1.0 - recovery_on_nonbank) * nba[shocks]
    shocked_e = e[shocks] - writeoff

    def own(nodes, per_bank, per_shock):
        """Values of nodes: by bank, but ``per_shock`` for a shocked bank."""
        j, i = np.divmod(nodes, n)
        return np.where(i == shocks[j], per_shock[j], per_bank[i])

    # Round 0: nobody has interbank losses yet. A trigger is below zero only
    # where equity is, so one scan of ``e`` finds the banks already insolvent.
    blocks = np.arange(shocks.size) * n
    negative = np.flatnonzero(e < 0.0)
    insolvent = negative[_trigger(e[negative]) < 0.0]
    nodes = np.sort(np.append(np.add.outer(blocks, insolvent), blocks + shocks))
    nodes = nodes[_run_heads(nodes)]
    new = nodes[_trigger(own(nodes, e, shocked_e)) < 0.0]
    defaulted, ratio = new, np.ones(new.size)
    iterations = np.zeros(shocks.size, dtype=np.int64)
    rounds = []
    # The loop ends within n + 1 rounds. A shock re-solves only in rounds
    # after it gained defaults (only busy shocks' payers spread losses), and
    # its new defaults are banks it had not lost yet; so it takes part in a
    # run of rounds that each fail at least one more of its n banks, and the
    # round after its last bank fails finds nothing new.
    for round_no in itertools.count():
        max_delta = 0.0
        fresh = new[:0]
        j, i = np.divmod(defaulted, n)
        owes = obligations[i]
        # Every shock with new defaults re-solves all of its payers.
        busy = np.bincount(new // n, minlength=shocks.size)[j] > 0
        at = np.flatnonzero(busy & (owes > 0.0))
        if at.size:
            payers, block, bank = defaulted[at], j[at], i[at]
            # Edge list of the payers' own rows, in CSR order.
            edge, row_len = _row_edges(exposures.indptr, bank)
            cols = np.repeat(block * n, row_len) + exposures.indices[edge]
            vals = exposures.data[edge]

            # Subsystem: the edges whose creditor is also a payer drive the
            # inner fixed point; slot and dst index creditors in owed, payers.
            d = payers.size
            owed, slot = np.unique(cols, return_inverse=True)
            pos, paying = _locate(payers, owed)
            internal = paying[slot]
            src = np.repeat(np.arange(d), row_len)[internal]
            dst, w = pos[slot[internal]], vals[internal]

            # Only defaulted banks pay short, and all of a shock's are payers
            # here: receipts start at ``ba``, the sweeps apply the shortfalls.
            r = ratio[at]
            base_recv = ba[bank]
            # Nonbank assets a defaulted bank hands to creditors: the shocked
            # bank keeps only what survives the write-off. Solvent banks pay
            # in full out of their whole balance sheet.
            shocked = bank == shocks[block]
            recovery = np.where(shocked, recovery_on_nonbank, defaulted_nonbank_recovery)
            e_d = recovery * nba[bank]
            pbar_d = owes[at]
            live = np.zeros(shocks.size, dtype=bool)
            live[block] = True
            p_prev = r * pbar_d
            while True:
                iterations += live
                recv = base_recv - np.bincount(
                    dst, weights=(1.0 - r)[src] * w, minlength=d
                )
                p = e_d + recv
                np.minimum(p, pbar_d, out=p)
                np.maximum(p, 0.0, out=p)
                delta = np.zeros(shocks.size)
                np.maximum.at(delta, block, np.abs(p - p_prev))
                max_delta = max(max_delta, float(delta[live].max()))
                p_prev = p
                # A converged shock keeps its ratios, so it sweeps no more.
                r = np.where(live[block], p / pbar_d, r)
                live &= delta > _INNER_TOL
                stalled = live & (iterations > _INNER_CAP * (round_no + 1))
                if stalled.any():
                    k = int(np.argmax(stalled))
                    raise ClearingError(
                        f"inner fixed point stalled: round {round_no}, "
                        f"defaulted={i[j == k].tolist()}, max_delta={delta[k]:.3e}"
                    )
                if not live.any():
                    break
            ratio[at] = r

            # The payers' edges carry every loss of their shocks: sum them
            # at the new ratios. Only the nodes owed can fail next.
            shortfall = np.repeat(1.0 - r, row_len) * vals
            loss = np.bincount(slot, shortfall)
            failing = owed[loss > _trigger(own(owed, e, shocked_e))]
            fresh = failing[~_locate(defaulted, failing)[1]]
        rounds.append((new, max_delta))
        if new.size == 0:
            break
        new = fresh
        defaulted = np.concatenate((defaulted, new))
        order = defaulted.argsort(kind="stable")
        defaulted = defaulted[order]
        ratio = np.concatenate((ratio, np.ones(new.size)))[order]
    return defaulted, ratio, iterations, writeoff, rounds


def clear(
    exposures: ExposureMatrix,
    sheets: BalanceSheetSet,
    scenario: ShockScenario,
) -> ClearingSolution:
    """Settle all obligations after one bank's nonbank assets are shocked.

    Runs the round structure of the module docstring as a batch of one
    shock. Terminates in at most n + 1 rounds: the default set only grows,
    and the round after the last new default finds none.

    Args:
        exposures: interbank obligation matrix.
        sheets: balance sheets of the same banks; a ``ValueError`` names
            both counts when they differ.
        scenario: which bank is shocked and how much of its nonbank assets
            survive.

    Returns:
        The payments, the default set and its rounds. The rest follows
        from them and the sheets: bank i owes ``sheets.obligations[i]`` and
        receives the sum of its debtors' payment ratios times their
        obligations to it. Recomputing the payment map at the solution
        moves no entry by more than 1e-10.
    """
    n = _bank_count(exposures, sheets)
    s = scenario.shocked_bank
    if s >= n:
        raise ValueError(f"shocked bank {s} outside [0, {n})")

    # With one shock, node i is bank i. Solvent banks pay in full.
    payments = sheets.obligations
    defaulted, ratio, iterations, writeoff, rounds = _settle(
        exposures, sheets, payments, np.array([s]), scenario.recovery_on_nonbank,
        scenario.defaulted_nonbank_recovery,
    )
    payments[defaulted] *= ratio
    return ClearingSolution(
        payments=payments,
        defaulted=frozenset(defaulted.tolist()),
        iterations=int(iterations[0]),
        shocked_bank=s,
        initial_writeoff=float(writeoff[0]),
        rounds=tuple((tuple(new.tolist()), delta) for new, delta in rounds),
    )


def clear_all(
    exposures: ExposureMatrix,
    sheets: BalanceSheetSet,
    recovery_on_nonbank: float = ShockScenario.recovery_on_nonbank,
    defaulted_nonbank_recovery: float = ShockScenario.defaulted_nonbank_recovery,
) -> AllBanksClearing:
    """Shock every bank in turn; equal to clearing each shock separately.

    ``di[k]``, ``ti[k]`` and ``dc[k]`` equal those of
    ``cascade_metrics(clear(exposures, sheets, ShockScenario(k,
    recovery_on_nonbank, defaulted_nonbank_recovery)), sheets, k,
    total_initial_assets(sheets))`` bit for bit, and so do the counters.
    The shocks are settled in batches of consecutive banks by the same
    round loop as :func:`clear`; a batch closes once the shocked banks'
    out-degrees, plus one per shock, pass ``_BATCH_LINKS``. Raises
    ``ValueError`` naming the first bank whose impacts break
    ``0 <= di <= ti <= 1`` or ``0 <= dc <= 1``.
    """
    n = _bank_count(exposures, sheets)
    ShockScenario(0, recovery_on_nonbank, defaulted_nonbank_recovery)  # validates
    v0 = gross_system_volume(sheets)
    pbar = sheets.obligations

    links = np.diff(exposures.indptr) + 1
    cuts = np.flatnonzero(np.diff((np.cumsum(links) - links) // _BATCH_LINKS)) + 1
    scores = []
    iterations = max_cascade = 0
    for shocks in np.split(np.arange(n), cuts):
        defaulted, ratio, sweeps, writeoff, _ = _settle(
            exposures, sheets, pbar, shocks, recovery_on_nonbank,
            defaulted_nonbank_recovery,
        )
        j, bank = np.divmod(defaulted, n)
        owes = pbar[bank]
        scores.append(_score(shocks, j, bank, owes - ratio * owes, writeoff, n, v0))
        iterations += int(sweeps.sum())
        max_cascade = max(max_cascade, int(np.bincount(j, minlength=shocks.size).max()))
    # The batches are consecutive banks, so their scores join in bank order.
    di, ti, dc = map(np.concatenate, zip(*scores))
    screened = int((dc == 0.0).sum())
    return AllBanksClearing(
        di=di,
        ti=ti,
        dc=dc,
        shocks_screened=screened,
        shocks_solved=n - screened,
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
    base against which impact fractions are measured. Raises ``ValueError``
    when the system holds no assets.
    """
    return _gross_volume(total_initial_assets(sheets), sheets)


def _gross_volume(a0: float, sheets: BalanceSheetSet) -> float:
    """Impact base: total initial assets ``a0`` plus nonbank liabilities."""
    if a0 <= 0.0:
        raise ValueError("total initial assets must be positive")
    return a0 + float(sheets.nbl.sum())


def _score(shocks, j, bank, unpaid, writeoff, n: int, v0: float):
    """``(di, ti, dc)`` arrays of a batch of shocks with write-offs ``writeoff``.

    Defaulted bank ``bank[m]`` of shock ``shocks[j[m]]`` leaves ``unpaid[m]``
    unpaid; entries come sorted by shock, then bank, and are summed in that
    order. Raises ``ValueError`` naming the first shocked bank whose impacts
    break ``0 <= di <= ti <= 1`` or ``0 <= dc <= 1``.
    """
    b = shocks.size
    di = np.bincount(j, weights=unpaid, minlength=b) / v0
    ti = writeoff / v0 + di
    dc = np.bincount(j[bank != shocks[j]], minlength=b) / n
    ok = (0.0 <= di) & (di <= ti) & (ti <= 1.0 + 1e-12) & (0.0 <= dc) & (dc <= 1.0)
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValueError(
            f"bank {shocks[k]}: need 0 <= di <= ti <= 1 and 0 <= dc <= 1, "
            f"got ({di[k]}, {ti[k]}, {dc[k]})"
        )
    return di, ti, dc


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
    defaulted = np.sort(np.fromiter(solution.defaulted, np.int64, len(solution.defaulted)))
    unpaid = (sheets.obligations - solution.payments)[defaulted]
    di, ti, dc = (float(v[0]) for v in _score(
        np.array([shocked_bank]), np.zeros_like(defaulted), defaulted, unpaid,
        solution.initial_writeoff, len(sheets), v0,
    ))
    return CascadeResult(shocked_bank, di, ti, dc)
