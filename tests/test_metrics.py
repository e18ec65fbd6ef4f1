import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from contagion.balance import (
    BalanceConfig,
    BalanceSheetSet,
    ExposureMatrix,
    build_balance_sheets,
    build_exposures,
)
from contagion.clearing import (
    ShockScenario,
    cascade_metrics,
    clear,
    total_initial_assets,
)
from contagion.metrics import (
    IndexImpactCorrelation,
    TopoIndices,
    _average_ranks,
    compute_topo_indices,
    gini,
    index_impact_correlation,
    ranking_statistics,
    summarize,
)
from contagion.netgen import DirectedGraph, generate, params_from_delta_in

from conftest import dense_exposures, exposures_from_dense, pairwise_gini, random_small_system


class TestGini:
    def test_perfect_equality(self):
        assert gini([3.0] * 10) == pytest.approx(0.0, abs=1e-12)

    def test_small_hand_case(self):
        # Pairwise oracle: sum |x_i - x_j| = 20 over ordered pairs,
        # 2 n^2 mean = 80.
        assert pairwise_gini([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-12)
        assert gini([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-12)

    def test_concentrated_case(self):
        assert gini([0, 0, 0, 0, 100]) == pytest.approx(0.8, abs=1e-12)

    def test_fast_path_matches_pairwise_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 200))
            x = rng.random(n) * rng.integers(1, 100)
            if x.sum() == 0.0:
                continue
            assert gini(x) == pytest.approx(pairwise_gini(x), abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="at least 2"):
            gini([1.0])
        with pytest.raises(ValueError, match="all-zero"):
            gini([0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="non-negative"):
            gini([1.0, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="^Gini value is not finite at index 2$"):
            gini([1.0, 2.0, bad, bad])


def _hand_system():
    """Two banks, single obligation 0 -> 1 of 0.4; creditor equity 0.2."""
    exposures = exposures_from_dense([[0.0, 0.4], [0.0, 0.0]])
    sheets = BalanceSheetSet(
        ba=np.array([0.0, 0.4]),
        bl=np.array([0.4, 0.0]),
        nba=np.array([0.8, 3.0]),
        nbl=np.array([0.36, 3.2]),
        e=np.array([0.04, 0.2]),
        lam=np.array([0.05, 0.0588]),
    )
    return exposures, sheets


class TestLocalIndices:
    def test_hand_values(self):
        exposures, sheets = _hand_system()
        indices = compute_topo_indices(exposures, sheets)
        cs, f = indices.cs, indices.frailty
        assert cs[0] == pytest.approx(0.4 / 0.2)
        assert cs[1] == 0.0  # no creditors
        assert f[0] == pytest.approx((0.4 / 0.2) * 0.0)  # creditor 1 owes no banks
        assert f[1] == 0.0

    def test_frailty_weighting(self):
        # Give the creditor interbank debt of 3: f = (w / E) * BL = 6.
        exposures = exposures_from_dense([
            [0.0, 0.4, 0.0],
            [0.0, 0.0, 3.0],
            [0.0, 0.0, 0.0],
        ])
        sheets = BalanceSheetSet(
            ba=np.array([0.0, 0.4, 3.0]),
            bl=np.array([0.4, 3.0, 0.0]),
            nba=np.array([1.0, 7.0, 6.0]),
            nbl=np.array([0.56, 4.06, 8.55]),
            e=np.array([0.04, 0.2, 0.45]),
            lam=np.array([0.04, 0.027, 0.05]),
        )
        f = compute_topo_indices(exposures, sheets).frailty
        assert f[0] == pytest.approx((0.4 / 0.2) * 3.0)

    @pytest.mark.parametrize("equity", [0.0, -0.5])
    @pytest.mark.parametrize("creditor_bl", [0.0, 2.0])
    def test_creditor_without_positive_equity_makes_both_indices_infinite(
        self, equity, creditor_bl
    ):
        # One obligation 0 -> 1 of weight 1; creditor 1 has equity <= 0.
        exposures = ExposureMatrix(DirectedGraph.from_links(2, [(0, 1)]), [1.0])
        sheets = BalanceSheetSet(
            ba=np.array([0.0, 1.0]),
            bl=np.array([1.0, creditor_bl]),
            nba=np.array([3.0, 3.0]),
            nbl=np.array([1.5, 3.0]),
            e=np.array([0.5, equity]),
            lam=np.array([0.05, 0.05]),
        )
        topo = compute_topo_indices(exposures, sheets)
        assert topo.cs.tolist() == [np.inf, 0.0]
        assert topo.frailty.tolist() == [np.inf, 0.0]

    @pytest.mark.parametrize("creditor_bl, frailty", [(0.0, 0.0), (2.0, np.inf)])
    def test_overflowing_ratio_is_infinite_and_adds_no_frailty_without_bl(
        self, creditor_bl, frailty
    ):
        # w / E = 1 / 1e-310 overflows; with BL = 0 that must not become
        # inf * 0 = NaN (the suite turns any RuntimeWarning into an error).
        exposures = ExposureMatrix(DirectedGraph.from_links(2, [(0, 1)]), [1.0])
        sheets = BalanceSheetSet(
            ba=np.array([0.0, 1.0]),
            bl=np.array([1.0, creditor_bl]),
            nba=np.array([3.0, 3.0]),
            nbl=np.array([1.5, 3.0]),
            e=np.array([0.5, 1e-310]),
            lam=np.array([0.05, 0.05]),
        )
        topo = compute_topo_indices(exposures, sheets)
        assert topo.cs.tolist() == [np.inf, 0.0]
        assert topo.frailty.tolist() == [frailty, 0.0]

    def test_indices_equal_a_dense_double_loop(self):
        # Creditors with equity <= 0, tiny (w / E overflows) or ordinary, and
        # BL zero, negative or positive; banks owing nothing sit between
        # banks that owe.
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(3, 9))
            dense = np.where(rng.random((n, n)) < 0.5, 0.05 + rng.random((n, n)), 0.0)
            np.fill_diagonal(dense, 0.0)
            dense[rng.integers(1, n - 1)] = 0.0
            if not dense.any():
                continue
            e = rng.choice([-0.5, 0.0, 1e-310, 0.3, 2.0], size=n)
            bl = rng.choice([-1.5, 0.0, 0.7, 3.0], size=n)
            sheets = BalanceSheetSet(
                ba=np.ones(n), bl=bl, nba=np.ones(n), nbl=np.ones(n), e=e,
                lam=np.full(n, 0.05),
            )
            topo = compute_topo_indices(exposures_from_dense(dense), sheets)
            w, e, bl = dense.tolist(), e.tolist(), bl.tolist()
            cs, frailty = [0.0] * n, [0.0] * n
            for i in range(n):
                for j in range(n):
                    if w[i][j] == 0.0:
                        continue
                    if e[j] <= 0.0:
                        cs[i] = frailty[i] = math.inf
                        continue
                    cs[i] = max(cs[i], w[i][j] / e[j])
                    if bl[j] != 0.0:
                        frailty[i] = max(frailty[i], w[i][j] / e[j] * bl[j])
            assert topo.cs.tolist() == cs
            assert topo.frailty.tolist() == frailty

    def test_frailty_dominates_cs_times_min_bl(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            exposures, sheets = random_small_system(rng)
            topo = compute_topo_indices(exposures, sheets)
            cs, f = topo.cs, topo.frailty
            indptr, indices, _ = exposures.row_arrays()
            for i in range(exposures.n):
                creditors = indices[indptr[i]:indptr[i + 1]]
                if creditors.size == 0:
                    continue
                assert f[i] >= cs[i] * sheets.bl[creditors].min() - 1e-12

    def test_cs_above_one_topples_single_source_creditors(self):
        # When creditor j's only debtor is i and w_ij exceeds j's equity,
        # shocking i (which then pays nothing) must default j.
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(500):
            if checked >= 20:
                break
            exposures, sheets = random_small_system(rng)
            cs = compute_topo_indices(exposures, sheets).cs
            indptr, creditors, weights = exposures.row_arrays()
            in_deg = np.bincount(creditors, minlength=exposures.n)
            debtors = np.repeat(np.arange(exposures.n), np.diff(indptr))
            for i, j, w in zip(debtors, creditors, weights):
                shocked_pays_nothing = in_deg[i] == 0
                if in_deg[j] == 1 and w > sheets.e[j] and shocked_pays_nothing:
                    sol = clear(exposures, sheets, ShockScenario(int(i)))
                    assert int(j) in sol.defaulted
                    assert cs[int(i)] > 1.0
                    checked += 1
        assert checked >= 20

    def test_scaling_invariance(self):
        # Scaling every exposure, equity and liability by c leaves CS
        # unchanged and scales frailty linearly.
        exposures, sheets = random_small_system(np.random.default_rng(41))
        c = 3.7
        scaled_x = exposures_from_dense(dense_exposures(exposures) * c)
        scaled_sheets = BalanceSheetSet(
            ba=sheets.ba * c,
            bl=sheets.bl * c,
            nba=sheets.nba * c,
            nbl=sheets.nbl * c,
            e=sheets.e * c,
            lam=sheets.lam.copy(),
        )
        indices = compute_topo_indices(exposures, sheets)
        scaled = compute_topo_indices(scaled_x, scaled_sheets)
        assert np.allclose(indices.cs, scaled.cs, atol=1e-12)
        assert np.allclose(indices.frailty * c, scaled.frailty, rtol=1e-12)


def _full_run(n=120, seed=5, lam=0.05):
    graph = generate(params_from_delta_in(3.0).with_size(n, seed))
    exposures = build_exposures(graph)
    sheets = build_balance_sheets(exposures, BalanceConfig(lam, 0.01, 2.0, seed))
    a0 = total_initial_assets(sheets)
    results = [
        cascade_metrics(clear(exposures, sheets, ShockScenario(b)), sheets, b, a0)
        for b in range(n)
    ]
    di = np.array([r.di for r in results])
    dc = np.array([r.dc for r in results])
    return graph, exposures, sheets, di, dc


class TestSummarize:
    def test_aggregates_are_sums(self):
        graph, _, sheets, di, dc = _full_run()
        summary = summarize(di, dc, graph, sheets)
        assert summary.di_aggregate == pytest.approx(sum(di.tolist()), abs=1e-9)
        assert summary.dc_aggregate == pytest.approx(sum(dc.tolist()), abs=1e-9)
        # Aggregate over n equals the mean individual impact.
        assert summary.di_aggregate / graph.n == pytest.approx(
            np.mean(di), abs=1e-12
        )

    def test_largest_impacts(self):
        graph, _, sheets, di, dc = _full_run()
        summary = summarize(di, dc, graph, sheets)
        assert summary.di_max == di.max()
        assert summary.dc_max == dc.max()

    def test_permutation_stability(self):
        graph, _, sheets, di, dc = _full_run(n=60, seed=9)
        summary = summarize(di, dc, graph, sheets)

        rng = np.random.default_rng(1)
        perm = rng.permutation(graph.n)
        relabeled = DirectedGraph.from_links(graph.n, perm[graph.links])
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(graph.n)
        sheets_p = BalanceSheetSet(
            ba=sheets.ba[inverse],
            bl=sheets.bl[inverse],
            nba=sheets.nba[inverse],
            nbl=sheets.nbl[inverse],
            e=sheets.e[inverse],
            lam=sheets.lam[inverse],
        )
        di_p = np.empty_like(di)
        dc_p = np.empty_like(dc)
        di_p[perm] = di
        dc_p[perm] = dc
        summary_p = summarize(di_p, dc_p, relabeled, sheets_p)
        for name in ("di_aggregate", "dc_aggregate", "di_max", "dc_max"):
            assert getattr(summary_p, name) == pytest.approx(
                getattr(summary, name), abs=1e-12
            ), name
        assert summary.gini_total == pytest.approx(summary_p.gini_total, abs=1e-12)

    def test_missing_and_duplicate_results_rejected(self):
        # Bank-aligned arrays cannot name an unknown or duplicate bank; a
        # wrong length or a non-finite impact is what remains to reject.
        graph, _, sheets, di, dc = _full_run(n=60, seed=9)
        with pytest.raises(ValueError, match="expected 60 di values"):
            summarize(di[:-1], dc, graph, sheets)
        with pytest.raises(ValueError, match="expected 60 dc values"):
            summarize(di, dc[:-1], graph, sheets)
        broken = dc.copy()
        broken[7] = np.nan
        with pytest.raises(ValueError, match="dc is not finite at bank 7"):
            summarize(di, broken, graph, sheets)

    @pytest.mark.parametrize("banks", [40, 80])
    def test_sheets_of_other_banks_rejected(self, banks):
        graph, _, _, di, dc = _full_run(n=60, seed=9)
        other = generate(params_from_delta_in(3.0).with_size(banks, 9))
        sheets = build_balance_sheets(build_exposures(other), BalanceConfig(0.05))
        message = f"^graph covers 60 banks but sheets cover {banks}$"
        with pytest.raises(ValueError, match=message):
            summarize(di, dc, graph, sheets)

    def test_single_bank_network_rejected(self):
        g = DirectedGraph.from_links(1, [])
        sheets = BalanceSheetSet(
            ba=np.zeros(1), bl=np.zeros(1), nba=np.zeros(1),
            nbl=np.zeros(1), e=np.zeros(1), lam=np.full(1, 0.05),
        )
        with pytest.raises(ValueError, match="at least 2"):
            summarize([], [], g, sheets)


class TestRankingStatistics:
    def test_hand_computed_example(self):
        # Each replication's impacts are sorted into a descending curve.
        stats = ranking_statistics([np.array([0.1, 0.2]), np.array([0.4, 0.1])])
        assert stats.mean[0] == pytest.approx(0.3)
        assert stats.std[0] == pytest.approx(np.sqrt(0.02), abs=1e-12)
        assert stats.cv[0] == pytest.approx(np.sqrt(0.02) / 0.3, abs=1e-12)
        assert stats.mean[1] == pytest.approx(0.1)
        assert stats.cv[1] == 0.0

    def test_identical_replications_have_zero_cv(self):
        a = np.array([0.25, 0.0, 0.5])
        stats = ranking_statistics([a, a[::-1]])
        assert np.allclose(stats.mean, [0.5, 0.25, 0.0])
        assert np.allclose(stats.cv, 0.0)

    def test_single_replication_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            ranking_statistics([np.array([0.5])])

    @pytest.mark.parametrize(
        "second, message",
        [
            ([0.1, np.nan, 0.3], r"^replication 1 is not finite at bank 1$"),
            ([0.1, 0.2, np.inf], r"^replication 1 is not finite at bank 2$"),
            ([0.1, 0.2], r"^replication 1 has shape \(2,\), replication 0 \(3,\)$"),
        ],
        ids=["nan", "inf", "ragged"],
    )
    def test_malformed_replication_rejected(self, second, message):
        with pytest.raises(ValueError, match=message):
            ranking_statistics([np.array([0.5, 0.2, 0.1]), np.array(second)])


class TestIndexImpactCorrelation:
    def test_perfect_correlation_with_itself(self):
        values = np.array([0.1, 0.5, 0.3, 0.9])
        indices = TopoIndices(cs=values.copy(), frailty=values.copy())
        corr = index_impact_correlation(indices, values, values)
        assert corr.pearson_cs_di == pytest.approx(1.0, abs=1e-12)
        assert corr.spearman_f_dc == pytest.approx(1.0, abs=1e-12)

    def test_constant_index_is_undefined_not_zero(self):
        values = np.array([0.1, 0.5, 0.3, 0.9])
        indices = TopoIndices(cs=np.full(4, 2.0), frailty=values.copy())
        corr = index_impact_correlation(indices, values, values)
        assert corr.pearson_cs_di is None
        assert corr.spearman_cs_di is None
        assert corr.pearson_f_dc is not None

    def test_needs_three_banks(self):
        # Two points correlate at +-1 by construction: undefined, like a
        # constant input.
        values = np.array([0.1, 0.2])
        indices = TopoIndices(cs=values, frailty=values)
        corr = index_impact_correlation(indices, values, values)
        assert corr == IndexImpactCorrelation(None, None, None, None)
        one = np.array([0.5])
        corr = index_impact_correlation(TopoIndices(one, one), one, one)
        assert corr == IndexImpactCorrelation(None, None, None, None)

    def test_pearson_over_an_infinite_index_is_undefined(self):
        # Creditor 1 has negative equity, so its debtors 0 and 2 score inf on
        # both indices; bank 3 owes bank 0, whose equity is positive.
        dense = np.zeros((4, 4))
        dense[0, 1], dense[2, 1], dense[3, 0] = 0.4, 0.7, 0.3
        exposures = exposures_from_dense(dense)
        sheets = BalanceSheetSet(
            ba=dense.sum(axis=0),
            bl=dense.sum(axis=1),
            nba=np.full(4, 2.0),
            nbl=np.full(4, 1.0),
            e=np.array([0.5, -0.1, 0.5, 0.5]),
            lam=np.full(4, 0.05),
        )
        topo = compute_topo_indices(exposures, sheets)
        assert topo.cs.tolist() == [np.inf, 0.0, np.inf, 0.6]
        assert topo.frailty.tolist() == [np.inf, 0.0, np.inf, 0.6 * 0.4]
        di, dc = np.array([0.3, 0.1, 0.2, 0.05]), np.array([0.2, 0.0, 0.4, 0.1])
        corr = index_impact_correlation(topo, di, dc)
        assert corr.pearson_cs_di is None
        assert corr.pearson_f_dc is None
        assert corr.spearman_cs_di == pytest.approx(
            stats.spearmanr(topo.cs, di).statistic, abs=1e-12, rel=0
        )
        assert corr.spearman_f_dc == pytest.approx(
            stats.spearmanr(topo.frailty, dc).statistic, abs=1e-12, rel=0
        )

    def test_pearson_over_an_index_whose_sum_overflows_is_undefined(self):
        # Every value is finite, but the mean of two near-largest doubles is not.
        x = np.array([1e308, 1.5e308, 0.0, 1.0])
        di = np.array([0.3, 0.1, 0.2, 0.05])
        corr = index_impact_correlation(TopoIndices(x, x), di, di)
        assert corr.pearson_cs_di is None
        assert corr.spearman_cs_di == pytest.approx(
            stats.spearmanr(x, di).statistic, abs=1e-12, rel=0
        )

    def test_results_must_cover_every_bank(self):
        values = np.array([0.1, 0.2, 0.3])
        indices = TopoIndices(cs=values, frailty=values)
        with pytest.raises(ValueError, match="expected 3"):
            index_impact_correlation(indices, values[:2], values)
        with pytest.raises(ValueError, match="di is not finite at bank 1"):
            index_impact_correlation(indices, np.array([0.1, np.inf, 0.3]), values)


def scipy_correlations(x, y):
    """``(pearson, spearman)`` from scipy.stats, NaN for a constant input."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", stats.ConstantInputWarning)
        return (
            float(stats.pearsonr(x, y).statistic),
            float(stats.spearmanr(x, y).statistic),
        )


def assert_matches_scipy(x, y):
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    corr = index_impact_correlation(TopoIndices(x, x), y, y)
    ours = (corr.pearson_cs_di, corr.spearman_cs_di)
    assert (corr.pearson_f_dc, corr.spearman_f_dc) == ours
    if x.min() == x.max() or y.min() == y.max():
        assert ours == (None, None)
        assert np.isnan(scipy_correlations(x, y)).all()
    else:
        assert ours == pytest.approx(scipy_correlations(x, y), abs=1e-12, rel=0)


class TestCorrelationsAgainstScipy:
    """The numpy Pearson and Spearman, with scipy.stats as the oracle."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_vectors(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.lognormal(size=200)
        assert_matches_scipy(x, 0.3 * x + rng.normal(size=200))

    @pytest.mark.parametrize("seed", range(5))
    def test_heavy_ties(self, seed):
        rng = np.random.default_rng(seed)
        assert_matches_scipy(rng.integers(0, 3, 100), rng.integers(0, 4, 100))

    def test_three_banks(self):
        assert_matches_scipy([0.2, 0.1, 0.7], [1.0, 3.0, 2.0])
        assert_matches_scipy([0.2, 0.2, 0.7], [1.0, 3.0, 3.0])

    def test_perfect_and_negative_correlation(self):
        x = np.array([0.5, 0.1, 0.9, 0.3, 0.7])
        assert_matches_scipy(x, 3.0 * x)
        assert_matches_scipy(x, 1.0 - 2.0 * x)
        corr = index_impact_correlation(TopoIndices(x, x), 1.0 - 2.0 * x, x**3)
        assert corr.pearson_cs_di == corr.spearman_cs_di == -1.0
        assert corr.spearman_f_dc == 1.0

    def test_constant_ranks_are_undefined(self):
        # np.std of three 0.1s is not 0, but the ranks are constant.
        assert_matches_scipy([0.1, 0.1, 0.1], [1.0, 2.0, 3.0])
        assert_matches_scipy([1.0, 2.0, 3.0], [0.7] * 3)
        assert_matches_scipy(np.zeros(4), np.zeros(4))

    @pytest.mark.parametrize("seed", range(3))
    def test_average_ranks_equal_rankdata(self, seed):
        # The order among tied values never reaches the ranks, so an
        # unstable sort gives scipy's ranks exactly.
        rng = np.random.default_rng(seed)
        inputs = [
            rng.integers(0, 5, 5000).astype(np.float64),
            np.round(rng.lognormal(size=20000), 1),
            np.tile([0.0, -0.0, 1.5], 700),
            np.full(3000, 0.25),
        ]
        for x in inputs:
            assert np.array_equal(_average_ranks(x), stats.rankdata(x, "average"))

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(st.data())
    def test_property(self, data):
        n = data.draw(st.integers(3, 40))
        values = st.one_of(
            st.sampled_from([0.0, 0.1, 1.0, 2.5]),
            st.floats(-1e6, 1e6, allow_nan=False),
        )
        x = data.draw(st.lists(values, min_size=n, max_size=n))
        y = data.draw(st.lists(values, min_size=n, max_size=n))
        assert_matches_scipy(x, y)


@st.composite
def indexed_systems(draw):
    """3 to 8 banks with positive link weights and hand-set equities.

    BL and BA are the exposure matrix's row and column sums, so a bank that
    lends but owes nothing has BL 0. Each equity is <= 0, tiny and
    positive (down to subnormal, where ``w / E`` overflows or comes near
    the largest double), or ordinary. Impacts are any values in [0, 1].
    """
    n = draw(st.integers(3, 8))
    cells = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    dense = np.array(draw(st.lists(cells, min_size=n * n, max_size=n * n)))
    dense = dense.reshape(n, n)
    np.fill_diagonal(dense, 0.0)
    assume(dense.any())
    equities = st.one_of(
        st.floats(-10.0, 0.0), st.floats(5e-324, 1e-295), st.floats(1e-3, 1e3)
    )
    impacts = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    sheets = BalanceSheetSet(
        ba=dense.sum(axis=0),
        bl=dense.sum(axis=1),
        nba=np.ones(n),
        nbl=np.ones(n),
        e=np.array(draw(st.lists(equities, min_size=n, max_size=n))),
        lam=np.full(n, 0.05),
    )
    di, dc = np.array(draw(impacts)), np.array(draw(impacts))
    return exposures_from_dense(dense), sheets, di, dc


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(indexed_systems())
def test_indices_are_never_nan_and_correlations_are_none_or_in_range(system):
    exposures, sheets, di, dc = system
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        topo = compute_topo_indices(exposures, sheets)
        corr = index_impact_correlation(topo, di, dc)
    assert not np.isnan(topo.cs).any()
    assert not np.isnan(topo.frailty).any()
    for value in asdict(corr).values():
        assert value is None or (math.isfinite(value) and -1.0 <= value <= 1.0)


def test_import_loads_no_scipy_stats_or_optimize():
    # No scipy module at all: scipy is only a test and benchmark oracle.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "import contagion, contagion.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=os.environ | {"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
