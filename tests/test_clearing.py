import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contagion.balance import BalanceSheetSet, build_balance_sheets, BalanceConfig, build_exposures
from contagion import clearing
from contagion.clearing import (
    ClearingError,
    ShockScenario,
    cascade_metrics,
    clear,
    clear_all,
    gross_system_volume,
    total_initial_assets,
)
from contagion.harness import TYPE3_TARGET_MEAN_DEGREE, TYPE_PARAMS, replication_seeds
from contagion.metrics import compute_topo_indices
from contagion.netgen import (
    DirectedGraph,
    GenParams,
    augment_random_links,
    generate,
    params_from_delta_in,
)

from conftest import (
    all_banks_picard,
    assert_matches_per_bank_loop,
    dense_exposures,
    exposures_from_dense,
    payment_ratios,
    per_bank_loop,
    picard_clearing,
    random_small_system,
    receipts,
)


def _model_sheets(exposures, lam=0.05, xi=2.0):
    """Sheets satisfying the identities with a capital ratio of exactly lam."""
    dense = dense_exposures(exposures)
    ba, bl = dense.sum(axis=0), dense.sum(axis=1)
    lam_vec = np.full(exposures.n, lam)
    nba = xi * (ba + bl)
    e = lam_vec * (ba + nba)
    nbl = (1 - lam_vec) * (1 + xi) * ba + ((1 - lam_vec) * xi - 1) * bl
    return BalanceSheetSet(ba=ba, bl=bl, nba=nba, nbl=nbl, e=e, lam=lam_vec)


def _two_bank_system():
    """One obligation 0 -> 1 of weight 1; lambda exactly 0.05, xi = 2."""
    exposures = exposures_from_dense([[0.0, 1.0], [0.0, 0.0]])
    return exposures, _model_sheets(exposures)


class TestTwoBankHandCase:
    # Bank 0: NBA=2, E=0.1, NBL=0.9, pbar=1.9; bank 1: NBA=2, E=0.15,
    # NBL=2.85, pbar=2.85. Shocking 0 wipes its NBA; it pays 0, bank 1
    # loses the full weight (1 > E), defaults, and pays its NBA of 2.
    def test_clearing_vector(self):
        exposures, sheets = _two_bank_system()
        sol = clear(exposures, sheets, ShockScenario(0))
        assert sol.payments == pytest.approx([0.0, 2.0], abs=1e-9)
        assert sheets.bl + sheets.nbl == pytest.approx([1.9, 2.85], abs=1e-12)
        assert sol.defaulted == {0, 1}

    def test_creditor_loss_is_unpaid_fraction_of_weight(self):
        exposures, sheets = _two_bank_system()
        sol = clear(exposures, sheets, ShockScenario(0))
        ratio0 = sol.payments[0] / (sheets.bl[0] + sheets.nbl[0])
        losses = sheets.ba - receipts(exposures, sheets, sol.payments)
        assert losses[1] == pytest.approx(1.0 * (1.0 - ratio0), abs=1e-9)

    def test_impact_fractions(self):
        exposures, sheets = _two_bank_system()
        sol = clear(exposures, sheets, ShockScenario(0))
        a0 = total_initial_assets(sheets)
        res = cascade_metrics(sol, sheets, 0, a0)
        # Gross volume 8.75; unpaid 1.9 + 0.85; write-off 2.
        assert gross_system_volume(sheets) == pytest.approx(8.75)
        assert res.di == pytest.approx(2.75 / 8.75, abs=1e-9)
        assert res.ti == pytest.approx(2.0 / 8.75 + 2.75 / 8.75, abs=1e-9)
        assert res.dc == pytest.approx(0.5)


class TestTrivialScenarios:
    def test_no_shock_everyone_pays_in_full(self):
        exposures, sheets = _two_bank_system()
        sol = clear(exposures, sheets, ShockScenario(0, recovery_on_nonbank=1.0))
        assert sol.defaulted == frozenset()
        assert sol.payments == pytest.approx(sheets.bl + sheets.nbl)
        res = cascade_metrics(sol, sheets, 0, total_initial_assets(sheets))
        assert res.di == 0.0 and res.ti == 0.0 and res.dc == 0.0

    def test_no_out_links_means_no_transmission(self):
        # Shocked bank owes only nonbank creditors; no other bank loses.
        g = DirectedGraph.from_links(3, [(1, 0), (1, 2), (2, 1)])
        exposures = build_exposures(g)
        sheets = _model_sheets(exposures)
        sol = clear(exposures, sheets, ShockScenario(0))
        assert sol.defaulted == {0}
        losses = sheets.ba - receipts(exposures, sheets, sol.payments)
        assert losses[1] == pytest.approx(0.0, abs=1e-15)
        assert losses[2] == pytest.approx(0.0, abs=1e-15)
        res = cascade_metrics(sol, sheets, 0, total_initial_assets(sheets))
        assert res.dc == 0.0
        assert res.di > 0.0  # its own nonbank creditors go unpaid

    def test_isolated_bank_shock_is_a_no_op(self):
        g = DirectedGraph.from_links(3, [(1, 2)])
        exposures = build_exposures(g)
        sheets = build_balance_sheets(exposures, BalanceConfig(0.05, 0.01, 2.0, 3))
        sol = clear(exposures, sheets, ShockScenario(0))
        assert sol.defaulted == frozenset()
        res = cascade_metrics(sol, sheets, 0, total_initial_assets(sheets))
        assert (res.di, res.ti, res.dc) == (0.0, 0.0, 0.0)

    def test_loss_equal_to_equity_leaves_bank_solvent(self):
        # Bank 1's equity exactly equals its loss when bank 0 pays nothing.
        exposures = exposures_from_dense([[0.0, 1.0], [0.0, 0.0]])
        sheets = BalanceSheetSet(
            ba=np.array([0.0, 1.0]),
            bl=np.array([1.0, 0.0]),
            nba=np.array([2.0, 2.0]),
            nbl=np.array([1.0, 2.0]),
            e=np.array([0.0, 1.0]),
            lam=np.array([0.0, 1.0 / 3.0]),
        )
        sol = clear(exposures, sheets, ShockScenario(0))
        assert sol.defaulted == {0}
        assert sol.payments[1] == sheets.bl[1] + sheets.nbl[1]


class TestFixedPointProperties:
    def test_oracle_equivalence_on_small_systems(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(200):
            exposures, sheets = random_small_system(rng)
            s = int(rng.integers(exposures.n))
            sol = clear(exposures, sheets, ShockScenario(s))
            external = sheets.nba.copy()
            external[s] = 0.0
            oracle = picard_clearing(
                dense_exposures(exposures), external, sheets.bl + sheets.nbl
            )
            worst = max(worst, float(np.abs(sol.payments - oracle).max()))
        assert worst < 1e-8

    def test_limited_liability_and_prorata(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            exposures, sheets = random_small_system(rng)
            s = int(rng.integers(exposures.n))
            sol = clear(exposures, sheets, ShockScenario(s))
            pbar = sheets.bl + sheets.nbl
            assert (sol.payments <= pbar + 1e-12).all()
            assert (sol.payments >= -1e-12).all()
            external = sheets.nba.copy()
            external[s] = 0.0
            # Nobody pays more than their resources.
            received = receipts(exposures, sheets, sol.payments)
            assert (sol.payments <= external + received + 1e-9).all()
            solvent = np.ones(exposures.n, dtype=bool)
            for b in sol.defaulted:
                solvent[b] = False
            assert np.allclose(sol.payments[solvent], pbar[solvent])

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            exposures, sheets = random_small_system(rng)
            s = int(rng.integers(exposures.n))
            sol = clear(exposures, sheets, ShockScenario(s))
            pbar = sheets.bl + sheets.nbl
            external = sheets.nba.copy()
            external[s] = 0.0
            recv = receipts(exposures, sheets, sol.payments)
            remapped = np.minimum(pbar, external + recv)
            assert np.abs(remapped - sol.payments).max() < 1e-10

    def test_conservation_identities(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            exposures, sheets = random_small_system(rng)
            s = int(rng.integers(exposures.n))
            sol = clear(exposures, sheets, ShockScenario(s))
            # Asset side: initial assets minus marked assets equals the
            # write-off plus interbank shortfalls.
            a0 = total_initial_assets(sheets)
            received = receipts(exposures, sheets, sol.payments)
            at_assets = sheets.nba.sum() - sol.initial_writeoff + received.sum()
            assert a0 - at_assets == pytest.approx(
                sol.initial_writeoff + (sheets.ba - received).sum(), abs=1e-8
            )
            # Gross side: volume reduction equals write-off plus the sum of
            # unpaid obligations over all creditors, marking every claim to
            # its realized payment.
            v0 = gross_system_volume(sheets)
            pbar = sheets.bl + sheets.nbl
            vt = (
                sheets.nba.sum()
                - sol.initial_writeoff
                + received.sum()
                + (payment_ratios(sheets, sol.payments) * sheets.nbl).sum()
            )
            assert v0 - vt == pytest.approx(
                sol.initial_writeoff + (pbar - sol.payments).sum(), abs=1e-8
            )

    def test_default_set_grows_monotonically(self):
        g = generate(params_from_delta_in(3.0).with_size(300, 8))
        exposures = build_exposures(g)
        sheets = build_balance_sheets(exposures, BalanceConfig(0.01, 0.01, 2.0, 8))
        shocked = int(np.argmax(g.out_degree))
        sol = clear(exposures, sheets, ShockScenario(shocked))
        assert 2 <= len(sol.rounds) <= g.n + 1
        seen: set[int] = set()
        for banks, _ in sol.rounds:
            fresh = set(banks)
            assert not (fresh & seen)
            seen |= fresh
        assert seen == set(sol.defaulted)
        assert sol.rounds[-1][0] == ()

    @pytest.mark.parametrize("recovery,defaulted_recovery", [(0.0, 0.0), (1.0, 1.0)])
    def test_rounds_partition_the_default_set(self, recovery, defaulted_recovery):
        rng = np.random.default_rng(31)
        for _ in range(50):
            exposures, sheets = random_small_system(rng)
            s = int(rng.integers(exposures.n))
            sol = clear(exposures, sheets, ShockScenario(s, recovery, defaulted_recovery))
            assert 1 <= len(sol.rounds) <= exposures.n + 1
            assert sol.rounds[-1][0] == ()
            seen: set[int] = set()
            for banks, max_delta in sol.rounds:
                assert all(type(b) is int for b in banks)
                assert list(banks) == sorted(set(banks))
                assert not (set(banks) & seen)
                seen |= set(banks)
                assert max_delta >= 0.0
            assert seen == sol.defaulted

    def test_oracle_equivalence_on_a_deep_cascade(self):
        g = generate(params_from_delta_in(3.0).with_size(1000, 8))
        exposures = build_exposures(g)
        sheets = build_balance_sheets(exposures, BalanceConfig(0.01, 0.01, 2.0, 8))
        shocked = int(np.argmax(sheets.bl))
        sol = clear(exposures, sheets, ShockScenario(shocked))
        # A multi-round cascade with a payer subsystem of dozens of banks.
        assert len(sol.defaulted) >= 50 and len(sol.rounds) >= 4

        dense = dense_exposures(exposures)
        external = sheets.nba.copy()
        external[shocked] = 0.0
        pbar = sheets.bl + sheets.nbl
        oracle = picard_clearing(dense, external, pbar)
        assert np.abs(sol.payments - oracle).max() < 1e-10

        loss = sheets.ba - receipts(exposures, sheets, oracle)
        loss[shocked] += sheets.nba[shocked]
        assert sol.defaulted == set(np.flatnonzero(loss > sheets.e).tolist())

    def test_restricted_nonbank_recovery_never_shrinks_the_cascade(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            exposures, sheets = random_small_system(rng)
            s = int(rng.integers(exposures.n))
            pooled = clear(exposures, sheets, ShockScenario(s))
            fenced = clear(
                exposures,
                sheets,
                ShockScenario(s, defaulted_nonbank_recovery=0.0),
            )
            assert pooled.defaulted <= fenced.defaulted


def _replication_system(family, variant, n, lambda_min, xi):
    """Exposures and sheets of replication 0 of a harness ensemble (seed 99)."""
    g_seed, aug_seed, b_seed = replication_seeds(99, 0)
    alpha, beta, gamma, d_in, d_out = TYPE_PARAMS[(family, variant)]
    graph = generate(GenParams(alpha, beta, gamma, d_in, d_out, n, g_seed))
    if variant == 3:
        graph = augment_random_links(graph, TYPE3_TARGET_MEAN_DEGREE, aug_seed)
    exposures = build_exposures(graph)
    config = BalanceConfig(lambda_min, 0.01, xi, seed=b_seed)
    return exposures, build_balance_sheets(exposures, config)


def _loss_within_the_margin_system():
    """Shocking bank 0 costs bank 1 a loss 1e-13 above its equity.

    That is inside the default margin, so bank 1 stays solvent.
    """
    exposures = exposures_from_dense([[0.0, 1.0], [0.0, 0.0]])
    e1 = 1.0 - 1e-13
    sheets = BalanceSheetSet(
        ba=np.array([0.0, 1.0]),
        bl=np.array([1.0, 0.0]),
        nba=np.array([2.0, 2.0]),
        nbl=np.array([1.0, 3.0 - e1]),
        e=np.array([0.0, e1]),
        lam=np.array([0.0, e1 / 3.0]),
    )
    return exposures, sheets


class TestClearAll:
    # Fenced-off defaulted nonbank assets (defaulted recovery 0) make the
    # deep GC3/GD3 cascades about ten times as costly for the reference
    # loop; the screen only settles shocks that fail no second bank, so
    # those systems run with pooled estates only.
    @pytest.mark.parametrize(
        "family, variant, lambda_min, xi, defaulted_recoveries",
        [
            ("GD", 0, 0.05, 2.0, (1.0, 0.0)),
            ("GC", 1, 0.05, 2.0, (1.0, 0.0)),
            ("GD", 3, 0.05, 2.0, (1.0, 0.0)),
            ("GC", 3, 0.01, 1.1, (1.0,)),
            ("GD", 3, 0.01, 1.1, (1.0,)),
        ],
    )
    def test_bit_identical_to_the_per_bank_loop(
        self, monkeypatch, family, variant, lambda_min, xi, defaulted_recoveries
    ):
        exposures, sheets = _replication_system(family, variant, 1000, lambda_min, xi)
        for recovery, defaulted_recovery in itertools.product(
            (0.0, 0.5), defaulted_recoveries
        ):
            solutions, expected = per_bank_loop(
                exposures, sheets, recovery, defaulted_recovery
            )
            out = clear_all(exposures, sheets, recovery, defaulted_recovery)
            assert_matches_per_bank_loop(out, solutions, expected)
            # Screened: the shocks that fail no second bank.
            alone = sum(len(sol.defaulted - {sol.shocked_bank}) == 0 for sol in solutions)
            assert out.shocks_screened == alone
            assert out.shocks_screened + out.shocks_solved == exposures.n
            # Batch boundaries change nothing: a batch per shock (bound 1),
            # and all shocks in one batch.
            for batch_links in (1, 10**18):
                monkeypatch.setattr(clearing, "_BATCH_LINKS", batch_links)
                out = clear_all(exposures, sheets, recovery, defaulted_recovery)
                assert_matches_per_bank_loop(out, solutions, expected)
                monkeypatch.undo()

    @pytest.mark.parametrize(
        "system, defaulted_recovery",
        [
            (partial(_replication_system, "GD", 0, 1000, 0.05, 2.0), 1.0),
            (partial(_replication_system, "GD", 3, 1000, 0.01, 1.1), 1.0),
            (_loss_within_the_margin_system, 1.0),
            (partial(_replication_system, "GC", 0, 1000, 0.05, 2.0), 1.0),
            (partial(_replication_system, "S", 0, 1000, 0.05, 2.0), 1.0),
            (partial(_replication_system, "GC", 1, 1000, 0.05, 2.0), 1.0),
            (partial(_replication_system, "S", 1, 1000, 0.05, 2.0), 1.0),
            (partial(_replication_system, "GD", 1, 1000, 0.05, 2.0), 1.0),
            (partial(_replication_system, "GC", 3, 1000, 0.01, 1.1), 1.0),
            # Fenced estates: defaulted banks keep their nonbank assets.
            (partial(_replication_system, "GD", 3, 1000, 0.01, 1.1), 0.0),
        ],
        ids=[
            "GD0", "GD3-deep", "within-margin",
            "GC0", "S0", "GC1", "S1", "GD1", "GC3-deep", "GD3-deep-fenced",
        ],
    )
    def test_every_bank_matches_the_all_banks_picard_oracle(self, system, defaulted_recovery):
        exposures, sheets = system()
        di, ti, dc, _ = all_banks_picard(
            dense_exposures(exposures), sheets, 0.0, defaulted_recovery
        )
        out = clear_all(exposures, sheets, 0.0, defaulted_recovery)
        assert np.abs(out.di - di).max() <= 1e-12
        assert np.abs(out.ti - ti).max() <= 1e-12
        assert np.array_equal(out.dc, dc)

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    # A shocked bank whose loss lies between its buffer, e - (1 - r) NBA, and
    # the lower e - (1 - 0.9 r) NBA.
    @example(seed=0, recovery=0.75, defaulted_recovery=1.0)
    def test_small_systems_match_the_all_banks_picard_oracle(
        self, seed, recovery, defaulted_recovery
    ):
        exposures, sheets = random_small_system(np.random.default_rng(seed), max_n=8)
        di, ti, dc, shocked_defaults = all_banks_picard(
            dense_exposures(exposures), sheets, recovery, defaulted_recovery
        )
        out = clear_all(exposures, sheets, recovery, defaulted_recovery)
        assert np.abs(out.di - di).max() <= 1e-12
        assert np.abs(out.ti - ti).max() <= 1e-12
        assert np.array_equal(out.dc, dc)
        # DC leaves the shocked bank out; clear's default set does not.
        assert shocked_defaults.tolist() == [
            k in clear(
                exposures, sheets, ShockScenario(k, recovery, defaulted_recovery)
            ).defaulted
            for k in range(exposures.n)
        ]

    def test_small_systems_under_every_recovery_setting(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            exposures, sheets = random_small_system(rng, max_n=8)
            for recovery in (0.0, 0.5, 1.0):
                for defaulted_recovery in (1.0, 0.0):
                    solutions, expected = per_bank_loop(
                        exposures, sheets, recovery, defaulted_recovery
                    )
                    out = clear_all(exposures, sheets, recovery, defaulted_recovery)
                    assert_matches_per_bank_loop(out, solutions, expected)

    def test_banks_insolvent_before_the_shock_join_every_cascade(self):
        exposures, sheets = random_small_system(np.random.default_rng(3), max_n=6)
        columns = {c: getattr(sheets, c) for c in ("ba", "bl", "nba", "nbl", "lam")}
        e = sheets.e.copy()
        e[1] = -1.0
        broken = BalanceSheetSet(e=e, **columns)
        solutions, expected = per_bank_loop(exposures, broken)
        out = clear_all(exposures, broken)
        assert_matches_per_bank_loop(out, solutions, expected)
        spread = sum(len(sol.defaulted - {sol.shocked_bank}) > 0 for sol in solutions)
        assert out.shocks_solved == spread
        assert all(1 in sol.defaulted for sol in solutions)
        # Bank 1 fails under every other bank's shock too.
        others = np.arange(exposures.n) != 1
        assert (out.dc[others] >= 1.0 / exposures.n).all()

    def test_impacts_out_of_range_name_the_first_bank(self):
        # Bank 0 is owed 1 by each of banks 1 and 2 and has negative nonbank
        # liabilities, so the system's volume (2.5) is smaller than what a
        # default of bank 1 or 2 costs (write-off 1 plus 2 unpaid).
        exposures = exposures_from_dense([[0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]])
        sheets = BalanceSheetSet(
            ba=np.array([2.0, 0.0, 0.0]),
            bl=np.array([0.0, 1.0, 1.0]),
            nba=np.array([1.0, 1.0, 1.0]),
            nbl=np.array([-4.5, 1.0, 1.0]),
            e=np.array([10.0, 0.1, 0.1]),
            lam=np.full(3, 0.05),
        )
        with pytest.raises(ValueError, match=r"^bank 1: need 0 <= di <= ti <= 1"):
            clear_all(exposures, sheets)
        # The per-bank reference rejects the same shock with the same message.
        a0 = total_initial_assets(sheets)
        solution = clear(exposures, sheets, ShockScenario(1))
        with pytest.raises(ValueError, match=r"^bank 1: need 0 <= di <= ti <= 1"):
            cascade_metrics(solution, sheets, 1, a0)

    def test_validation(self):
        exposures, sheets = _two_bank_system()
        g3 = DirectedGraph.from_links(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError, match="banks"):
            clear_all(exposures, _model_sheets(build_exposures(g3)))
        with pytest.raises(ValueError):
            clear_all(exposures, sheets, recovery_on_nonbank=1.5)
        with pytest.raises(ValueError):
            clear_all(exposures, sheets, defaulted_nonbank_recovery=-0.1)


class TestClearingErrors:
    def test_inner_stall_names_round_and_defaulted_set(self, monkeypatch):
        # Shocking bank 0 of the two-bank system takes two sweeps in round 0
        # (bank 0's payment drops from 1.9 to 0) and two in round 1 (bank 1
        # defaults and pays 2 of 2.85).
        exposures, sheets = _two_bank_system()
        monkeypatch.setattr(clearing, "_INNER_CAP", 0)
        with pytest.raises(ClearingError, match=r"round 0, defaulted=\[0\],"):
            clear(exposures, sheets, ShockScenario(0))
        monkeypatch.setattr(clearing, "_INNER_CAP", 1)
        with pytest.raises(ClearingError, match=r"round 1, defaulted=\[0, 1\],"):
            clear(exposures, sheets, ShockScenario(0))
        # clear_all runs the same round loop, so the error reaches its caller.
        with pytest.raises(ClearingError, match="stalled"):
            clear_all(exposures, sheets)


def _assert_pairing_checked(check):
    """``check(exposures, sheets)`` refuses parts that cover different banks."""
    two, sheets2 = _two_bank_system()
    three = build_exposures(DirectedGraph.from_links(3, [(0, 1), (1, 2), (2, 0)]))
    sheets3 = _model_sheets(three)
    with pytest.raises(ValueError, match="^exposures cover 2 banks but sheets cover 3$"):
        check(two, sheets3)
    with pytest.raises(ValueError, match="^exposures cover 3 banks but sheets cover 2$"):
        check(three, sheets2)


class TestValidation:
    def test_mismatched_sizes(self):
        _assert_pairing_checked(
            lambda exposures, sheets: clear(exposures, sheets, ShockScenario(0))
        )

    @pytest.mark.parametrize(
        "check", [clear_all, compute_topo_indices], ids=["clear_all", "compute_topo_indices"]
    )
    def test_mismatched_sizes_in_other_readers(self, check):
        _assert_pairing_checked(check)

    def test_shocked_bank_out_of_range(self):
        exposures, sheets = _two_bank_system()
        with pytest.raises(ValueError, match="outside"):
            clear(exposures, sheets, ShockScenario(5))

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            ShockScenario(-1)
        with pytest.raises(ValueError):
            ShockScenario(0, recovery_on_nonbank=1.5)
        with pytest.raises(ValueError):
            ShockScenario(0, defaulted_nonbank_recovery=-0.1)
        for bad in (1.5, True, "0"):
            with pytest.raises(ValueError, match=f"^shocked_bank must be an integer, got {bad!r}$"):
                ShockScenario(bad)
        assert ShockScenario(np.int64(1)).shocked_bank == 1

    @pytest.mark.parametrize("name", ["recovery_on_nonbank", "defaulted_nonbank_recovery"])
    @pytest.mark.parametrize("value", ["0", None, False])
    def test_scenario_fractions_must_be_numbers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got {value!r}$"):
            ShockScenario(0, **{name: value})
        assert getattr(ShockScenario(0, **{name: np.float32(0.5)}), name) == 0.5

    def test_metrics_require_positive_assets(self):
        exposures, sheets = _two_bank_system()
        sol = clear(exposures, sheets, ShockScenario(0))
        with pytest.raises(ValueError, match="positive"):
            cascade_metrics(sol, sheets, 0, 0.0)

    def test_metrics_require_matching_bank(self):
        exposures, sheets = _two_bank_system()
        sol = clear(exposures, sheets, ShockScenario(0))
        with pytest.raises(ValueError, match="computed for bank"):
            cascade_metrics(sol, sheets, 1, total_initial_assets(sheets))
