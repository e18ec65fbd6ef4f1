"""Shared oracles and cached ensemble fixtures.

The oracles here are deliberately independent of the library's fast paths:
the clearing oracles are a plain Picard iteration on the dense payment map,
its batched all-banks form and the Eisenberg-Noe linear program solved by
HiGHS,
the all-banks reference clears and scores each shock on its own,
the Gini oracle is the O(n^2) pairwise definition, the power-law
sampler inverts the exact CDF, the network-growth oracles are a per-draw
``cumsum`` sampler and an augmentation that draws one scalar pair at a
time for a target of at most half the possible links and picks from a
Python list of absent pairs above it, and the tail-fit
oracle searches one cutoff at a time. Ensemble
runs are cached per configuration so the acceptance criteria share data.
"""

from __future__ import annotations

import math
import multiprocessing

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csr_array
from scipy.special import zeta

from contagion.balance import (
    BalanceConfig,
    BalanceSheetSet,
    ExposureMatrix,
    build_balance_sheets,
)
from contagion.clearing import (
    ShockScenario,
    cascade_metrics,
    clear,
    total_initial_assets,
)
from contagion import harness
from contagion.harness import ExperimentSpec, run_experiment
from contagion.netgen import DirectedGraph, GenParams
from contagion.powerlaw import DegenerateSequenceError, PowerLawFit, _hurwitz_zeta

# Master seed for every ensemble-level statistical check.
ACCEPT_SEED = 99


# --------------------------------------------------------------- oracles


def picard_clearing(
    dense_w: np.ndarray,
    external: np.ndarray,
    obligations: np.ndarray,
    tol: float = 1e-14,
    max_iter: int = 2_000_000,
) -> np.ndarray:
    """Brute-force clearing vector: iterate the payment map from the top.

    p <- min(pbar, e + ratio @ W) starting at p = pbar, which converges
    monotonically down to the greatest fixed point.
    """
    n = obligations.size
    p = obligations.copy()
    for _ in range(max_iter):
        ratio = np.divide(
            p, obligations, out=np.ones(n), where=obligations > 0
        )
        p_new = np.minimum(obligations, external + ratio @ dense_w)
        np.maximum(p_new, 0.0, out=p_new)
        if np.abs(p_new - p).max() <= tol:
            return p_new
        p = p_new
    raise RuntimeError("picard oracle did not converge")


def all_banks_picard(
    dense_w: np.ndarray,
    sheets: BalanceSheetSet,
    recovery_on_nonbank: float = 0.0,
    defaulted_nonbank_recovery: float = 1.0,
    max_iter: int = 10_000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """DI, TI, DC and own default of shocking every bank, by batched Picard.

    Row k of the payment matrix holds the payments when bank k's nonbank
    assets are written off but for the share ``recovery_on_nonbank``. Each
    shock runs the fictitious-default sequence of Eisenberg and Noe (2001):
    its default set starts with the banks that the write-off or a negative
    equity sinks. With the set fixed, a defaulted bank hands its creditors
    ``defaulted_nonbank_recovery * NBA`` (the shocked bank
    ``recovery_on_nonbank * NBA``) plus its receipts, a solvent bank pays in
    full, and ``P <- min(pbar, ext + (P / pbar) @ W)`` from ``P = pbar``
    falls to the greatest clearing vector. Every bank whose loss (write-off
    plus unpaid interbank claims) then exceeds its equity by more than
    ``1e-12 * (1 + |equity|)``, the model's margin, joins the set, until
    the set stops growing. DI is the unpaid total over the gross volume
    ``sum(NBA + BA + NBL)``, TI adds the write-off and DC counts the
    defaulted banks other than the shocked one, over n, and the fourth
    array says whether each shocked bank itself defaults. Several n-by-n
    arrays are live at once, so keep n to about 2000.
    """
    n = len(sheets)
    w = csr_array(dense_w)
    ba, nba, e = sheets.ba, sheets.nba, sheets.e
    pbar = sheets.bl + sheets.nbl
    owes = pbar > 0.0
    writeoff = (1.0 - recovery_on_nonbank) * nba
    ext = np.tile(defaulted_nonbank_recovery * nba, (n, 1))
    np.fill_diagonal(ext, recovery_on_nonbank * nba)
    threshold = np.tile(e, (n, 1))
    threshold[np.diag_indices(n)] -= writeoff
    trigger = threshold + 1e-12 * (1.0 + np.abs(threshold))
    step = 1e-15 * max(1.0, float(pbar.max()))
    # Before any interbank loss, only a buffer below zero sinks a bank.
    defaulted = trigger < 0.0
    p = np.tile(pbar, (n, 1))
    # Each pass re-solves the shocks whose default set grew in the last.
    rows = np.arange(n)
    while rows.size:
        fixed = defaulted[rows]
        # A solvent bank pays in full: no resource bound caps it.
        bound = np.where(fixed, ext[rows], np.inf)
        q = np.tile(pbar, (rows.size, 1))
        for _ in range(max_iter):
            ratio = np.divide(q, pbar, out=np.ones_like(q), where=owes)
            q_new = np.maximum(np.minimum(pbar, bound + ratio @ w), 0.0)
            done = np.abs(q_new - q).max() <= step
            q = q_new
            if done:
                break
        else:
            raise RuntimeError("all-banks Picard oracle did not converge")
        p[rows] = q
        ratio = np.divide(q, pbar, out=np.ones_like(q), where=owes)
        grown = fixed | (ba - ratio @ w > trigger[rows])
        defaulted[rows] = grown
        rows = rows[(grown != fixed).any(axis=1)]
    v0 = float(nba.sum() + ba.sum() + sheets.nbl.sum())
    di = (pbar - p).sum(axis=1) / v0
    shocked_defaults = defaulted.diagonal().copy()
    dc = (defaulted.sum(axis=1) - shocked_defaults) / n
    return di, writeoff / v0 + di, dc, shocked_defaults


def lp_clearing(
    dense_w: np.ndarray, external: np.ndarray, obligations: np.ndarray
) -> np.ndarray:
    """Greatest clearing vector as a linear program (Eisenberg-Noe, Lemma 4).

    Maximizes ``sum(p)`` subject to ``0 <= p <= pbar`` and
    ``p <= e + Pi^T p``, with ``Pi_ij = w_ij / pbar_i`` the relative
    liabilities; every clearing vector is feasible and the greatest one
    dominates them all, so it is the unique optimum. Solved by HiGHS, whose
    primal feasibility tolerance (1e-7) bounds the accuracy.
    """
    n = obligations.size
    owes = obligations > 0
    pi = np.zeros_like(dense_w)
    pi[owes] = dense_w[owes] / obligations[owes, None]
    res = linprog(
        -np.ones(n),
        A_ub=np.eye(n) - pi.T,
        b_ub=external,
        bounds=list(zip(np.zeros(n), obligations)),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return res.x


def per_bank_loop(exposures, sheets, recovery=0.0, defaulted_recovery=1.0):
    """The reference for ``clear_all``: clear and score each shock separately."""
    a0 = total_initial_assets(sheets)
    solutions = [
        clear(exposures, sheets, ShockScenario(k, recovery, defaulted_recovery))
        for k in range(exposures.n)
    ]
    results = [cascade_metrics(sol, sheets, k, a0) for k, sol in enumerate(solutions)]
    return solutions, results


def assert_matches_per_bank_loop(got, solutions, expected):
    """``clear_all``'s arrays and counters equal the per-bank loop's, bit for bit."""
    assert [r.shocked_bank for r in expected] == list(range(got.di.size))
    for name in ("di", "ti", "dc"):
        want = np.array([getattr(r, name) for r in expected])
        assert np.array_equal(getattr(got, name), want), name
    assert got.inner_iterations == sum(sol.iterations for sol in solutions)
    assert got.max_cascade == max(len(sol.defaulted) for sol in solutions)


def cumsum_generate_links(params: GenParams, uniforms=None) -> list[list[int]]:
    """Sorted ``[s, t]`` links of ``netgen.generate``, an O(n) cumsum per draw.

    Each preferential draw scans ``cumsum(degree + delta)`` over the
    existing nodes and takes ``searchsorted(..., side="right")`` of one
    scalar ``rng.random()`` scaled by the total. An iterator ``uniforms``
    replaces the ``rng.random()`` values, as a script patched over
    ``netgen._uniforms`` replaces them for ``generate``.
    """
    rng = np.random.default_rng(params.seed)
    draw = rng.random if uniforms is None else uniforms.__next__
    kin = np.zeros(params.n_target)
    kout = np.zeros(params.n_target)
    kin[:2] = kout[:2] = 1.0
    links = {(0, 1), (1, 0)}
    n = 2

    def pick(degrees, delta):
        cum = np.cumsum(degrees[:n] + delta)
        return int(np.searchsorted(cum, draw() * cum[-1], side="right"))

    while n < params.n_target:
        u = draw()
        if u < params.alpha:
            source, target = n, pick(kin, params.delta_in)
            n += 1
        elif u < params.alpha + params.beta:
            source = pick(kout, params.delta_out)
            target = pick(kin, params.delta_in)
            for _ in range(16):
                if target != source:
                    break
                target = pick(kin, params.delta_in)
            if target == source or (source, target) in links:
                continue
        else:
            source, target = pick(kout, params.delta_out), n
            n += 1
        links.add((source, target))
        kout[source] += 1.0
        kin[target] += 1.0
    return sorted(map(list, links))


def scalar_augment_links(
    graph: DirectedGraph, target_mean_degree: float, seed: int
) -> tuple[list[list[int]], bool]:
    """Sorted ``[s, t]`` links of ``netgen.augment_random_links``, scalar draws.

    A target of more than half the ``n * (n - 1)`` possible links lists the
    absent pairs in row-major order and lets ``rng.choice`` pick the
    missing ones; a sparser target draws one ``rng.integers(n)`` per
    endpoint until enough pairs are new links. Also returns whether the
    dense branch ran.
    """
    n = graph.n
    rng = np.random.default_rng(seed)
    link_set = set(map(tuple, graph.links.tolist()))
    needed = math.ceil(target_mean_degree * n / 2.0 - 1e-9)
    missing = needed - len(link_set)
    dense = 2 * needed > n * (n - 1)
    if dense:
        absent = [
            (s, t)
            for s in range(n)
            for t in range(n)
            if s != t and (s, t) not in link_set
        ]
        for idx in rng.choice(len(absent), size=missing, replace=False):
            link_set.add(absent[int(idx)])
    else:
        while missing > 0:
            s = int(rng.integers(n))
            t = int(rng.integers(n))
            if s != t and (s, t) not in link_set:
                link_set.add((s, t))
                missing -= 1
    return sorted(map(list, link_set)), dense


def sequential_fit_discrete(samples) -> PowerLawFit:
    """``powerlaw.fit_discrete`` with one golden-section search per cutoff.

    Candidates come from ``np.unique`` and ``np.quantile``, and each
    candidate's exponent is searched on its own with scalar
    ``_hurwitz_zeta`` calls, one after another.
    """
    x = np.asarray(samples, dtype=np.int64)
    if x.size < 10:
        raise ValueError(f"need at least 10 samples, got {x.size}")
    if x.min() < 1:
        raise ValueError("samples must be positive integers")
    values = np.unique(x)
    if values.size < 2:
        raise DegenerateSequenceError("degenerate sequence: all samples equal")
    candidates = values[values <= np.quantile(x, 0.9)]

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    best = None
    for cutoff in candidates:
        tail = x[x >= cutoff]
        if tail.size < 2 or np.unique(tail).size < 2:
            continue
        log_sum = float(np.log(tail).sum())

        def f(a):
            return -tail.size * np.log(_hurwitz_zeta(a, int(cutoff))) - a * log_sum

        a, b = 1.01, 6.0
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = f(c), f(d)
        while b - a > 1e-6:
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = f(d)
        exponent = float(0.5 * (a + b))

        ks = np.arange(cutoff, tail.max() + 1, dtype=np.int64)
        fitted = 1.0 - _hurwitz_zeta(exponent, ks + 1) / _hurwitz_zeta(exponent, cutoff)
        empirical = np.cumsum(np.bincount(tail - cutoff, minlength=ks.size)) / tail.size
        distance = float(np.abs(empirical - fitted).max())
        if best is None or distance < best.ks_distance:
            best = PowerLawFit(exponent, int(cutoff), distance, int(tail.size))
    if best is None:
        raise DegenerateSequenceError("degenerate sequence: no cutoff leaves a fittable tail")
    return best


def pairwise_gini(values) -> float:
    """O(n^2) mean-absolute-difference Gini."""
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2.0 * n * n * x.mean()))


def sample_discrete_power_law(
    exponent: float,
    size: int,
    rng: np.random.Generator,
    x_min: int = 1,
) -> np.ndarray:
    """Exact inverse-CDF sampler for p(k) = k^-exponent / zeta(exponent, x_min).

    The CDF is tabulated up to 10^5; the rare draws beyond the table are
    inverted individually by bisection on the exact zeta-ratio survival
    function, so no part of the distribution is truncated.
    """
    z0 = float(zeta(exponent, x_min))
    k_table = 100_000
    ks = np.arange(x_min, k_table + 1, dtype=np.float64)
    cdf = np.cumsum(ks ** (-exponent) / z0)
    u = rng.random(size)
    out = (np.searchsorted(cdf, u, side="left") + x_min).astype(np.int64)
    deep = u > cdf[-1]
    for idx in np.flatnonzero(deep):
        # Smallest k with CDF(k) = 1 - zeta(exponent, k+1)/z0 >= u.
        lo, hi = k_table, k_table
        while 1.0 - float(zeta(exponent, hi + 1)) / z0 < u[idx]:
            lo, hi = hi, hi * 4
        while lo < hi:
            mid = (lo + hi) // 2
            if 1.0 - float(zeta(exponent, mid + 1)) / z0 >= u[idx]:
                hi = mid
            else:
                lo = mid + 1
        out[idx] = lo
    return out


def random_small_system(
    rng: np.random.Generator, max_n: int = 5
) -> tuple[ExposureMatrix, BalanceSheetSet]:
    """A random <= max_n-bank exposure matrix with model-valid sheets."""
    while True:
        n = int(rng.integers(2, max_n + 1))
        mask = rng.random((n, n)) < 0.6
        np.fill_diagonal(mask, False)
        if mask.any():
            break
    dense = np.where(mask, 0.05 + rng.random((n, n)), 0.0)
    exposures = exposures_from_dense(dense)
    # Keep (1 - lambda) * xi >= 1 so nonbank liabilities stay feasible for
    # arbitrarily debt-heavy banks.
    config = BalanceConfig(
        lambda_min=float(rng.uniform(0.01, 0.2)),
        sigma=0.01,
        xi=float(rng.uniform(1.3, 3.0)),
        seed=int(rng.integers(2**31)),
    )
    sheets = build_balance_sheets(exposures, config)
    return exposures, sheets


def exposures_from_dense(dense) -> ExposureMatrix:
    """The exposure matrix with one entry per nonzero cell of ``dense``."""
    dense = np.asarray(dense, dtype=np.float64)
    graph = DirectedGraph.from_links(dense.shape[0], np.argwhere(dense))
    return ExposureMatrix(graph, dense[graph.links[:, 0], graph.links[:, 1]])


def dense_exposures(exposures: ExposureMatrix) -> np.ndarray:
    n = exposures.n
    debtors = np.repeat(np.arange(n), np.diff(exposures.indptr))
    dense = np.zeros((n, n))
    dense[debtors, exposures.indices] = exposures.data
    return dense


def payment_ratios(sheets: BalanceSheetSet, payments: np.ndarray) -> np.ndarray:
    """Each bank's paid fraction of ``bl + nbl``; 1 for a bank owing nothing."""
    pbar = sheets.bl + sheets.nbl
    return np.divide(payments, pbar, out=np.ones(pbar.size), where=pbar > 0.0)


def receipts(exposures: ExposureMatrix, sheets: BalanceSheetSet, payments) -> np.ndarray:
    """Each bank's interbank receipts: every debtor pays its creditors pro rata."""
    return payment_ratios(sheets, payments) @ dense_exposures(exposures)


# --------------------------------------------------------- failing runs

# Serial and pool mode; pool workers see a patched harness only when forked.
WORKER_MODES = [
    1,
    pytest.param(2, marks=pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers are not forked",
    )),
]


def fail_replication_one(specs, rep, _run=harness._run_replication):
    """``harness._run_replication``, except that replication 1 raises.

    Its message names no replication, so a ``replication 1: `` prefix can
    only come from the harness.
    """
    if rep == 1:
        raise ValueError("sheets broken")
    return _run(specs, rep)


# -------------------------------------------------------------- fixtures


@pytest.fixture(scope="session")
def ensembles():
    """Cached `run_experiment` results keyed by configuration."""
    cache: dict[tuple, object] = {}

    def get(
        family: str,
        variant: int = 0,
        n: int = 1000,
        reps: int = 20,
        lambda_min: float = 0.05,
    ):
        key = (family, variant, n, reps, lambda_min)
        if key not in cache:
            spec = ExperimentSpec(
                network_family=family,
                type_variant=variant,
                n_nodes=n,
                replications=reps,
                lambda_min=lambda_min,
                master_seed=ACCEPT_SEED,
            )
            cache[key] = run_experiment(spec)
        return cache[key]

    return get
