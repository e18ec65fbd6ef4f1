import numpy as np
import pytest
import scipy.sparse as sp

from contagion import balance
from contagion.balance import (
    BalanceConfig,
    BalanceSheetSet,
    ExposureMatrix,
    build_balance_sheets,
    build_exposures,
    nonbank_ratios,
)
from contagion.harness import ExperimentSpec, run_experiment, write_run_directory
from contagion.netgen import DirectedGraph, generate, params_from_delta_in

from conftest import dense_exposures, exposures_from_dense


def _sheets(graph_seed=0, n=300, lambda_min=0.05, xi=2.0, sheet_seed=1):
    graph = generate(params_from_delta_in(2.0).with_size(n, graph_seed))
    exposures = build_exposures(graph)
    sheets = build_balance_sheets(
        exposures, BalanceConfig(lambda_min, 0.01, xi, sheet_seed)
    )
    return graph, exposures, sheets


class TestBuildExposures:
    def test_hand_computed_three_node(self):
        g = DirectedGraph.from_links(3, [(0, 1), (1, 2), (0, 2)])
        w = dense_exposures(build_exposures(g))
        # k_out = (2, 1, 0), k_in = (0, 1, 2); scale = 2 * 2.
        assert w[0, 1] == pytest.approx(0.5)
        assert w[1, 2] == pytest.approx(0.5)
        assert w[0, 2] == pytest.approx(1.0)

    def test_max_degree_link_has_unit_weight(self):
        g = generate(params_from_delta_in(3.0).with_size(300, 2))
        x = build_exposures(g)
        io_max = np.argmax(g.out_degree)
        ii_max = np.argmax(g.in_degree)
        assert x.data.max() <= 1.0 + 1e-15
        if [int(io_max), int(ii_max)] in g.links.tolist():
            assert dense_exposures(x)[io_max, ii_max] == pytest.approx(1.0)

    def test_linkless_graph_rejected(self):
        lonely = DirectedGraph.from_links(3, [])
        with pytest.raises(ValueError, match="no links"):
            build_exposures(lonely)

    def test_interbank_assets_match_summation_oracle(self):
        # BA_j must equal the sum of w_ij over j's debtors, recomputed from
        # scratch off the link list.
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(3, 40))
            links = set()
            while not links:
                for s in range(n):
                    for t in range(n):
                        if s != t and rng.random() < 0.2:
                            links.add((s, t))
            g = DirectedGraph.from_links(n, links)
            x = build_exposures(g)
            kout, kin = g.out_degree, g.in_degree
            scale = kout.max() * kin.max()
            ba = np.zeros(n)
            for s, t in g.links.tolist():
                ba[t] += kout[s] * kin[t] / scale
            sheets = build_balance_sheets(x, BalanceConfig(0.05))
            assert np.allclose(ba, sheets.ba, atol=1e-12)

    def test_weight_monotone_in_debtor_degree(self):
        # For links pointing at one creditor, the weight grows with the
        # debtor's out-degree.
        g = generate(params_from_delta_in(2.0).with_size(300, 5))
        x = build_exposures(g)
        indices = x.indices
        debtors = np.repeat(np.arange(x.n), np.diff(x.indptr))
        dense = dense_exposures(x)
        for j in np.unique(indices)[:50]:
            rows = debtors[indices == j]
            weights = dense[rows, j]
            order = np.argsort(g.out_degree[rows], kind="stable")
            assert (np.diff(weights[order]) >= -1e-15).all()

    def test_self_exposure_rejected(self):
        with pytest.raises(ValueError, match="self-link at node 0"):
            exposures_from_dense(np.array([[0.5, 0.2], [0.0, 0.0]]))


def assert_matches_scipy_csr(x, n, debtors, creditors, weights):
    """CSR arrays and the sheets' margins equal scipy's, bit for bit."""
    m = sp.csr_matrix((weights, (debtors, creditors)), shape=(n, n))
    assert np.array_equal(x.indptr, m.indptr)
    assert np.array_equal(x.indices, m.indices)
    assert np.array_equal(x.data, m.data)
    sheets = build_balance_sheets(x, BalanceConfig(0.05))
    assert np.array_equal(sheets.bl, np.asarray(m.sum(axis=1)).ravel())
    assert np.array_equal(sheets.ba, np.asarray(m.sum(axis=0)).ravel())
    assert x.nnz == m.nnz


class TestExposureMatrix:
    def test_matches_scipy_csr_on_random_systems(self):
        # Pairs in random order (scipy gets them unsorted too), weights
        # over 12 decades and rows long enough that summation order shows
        # in the last bits. The matrix takes the weights in link order.
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 80))
            mask = rng.random((n, n)) < rng.uniform(0.05, 0.9)
            np.fill_diagonal(mask, False)
            if not mask.any():
                continue
            debtors, creditors = np.nonzero(mask)
            order = rng.permutation(debtors.size)
            debtors, creditors = debtors[order], creditors[order]
            weights = 10.0 ** rng.uniform(-6, 6, debtors.size)
            g = DirectedGraph.from_links(n, np.column_stack((debtors, creditors)))
            dense = np.zeros((n, n))
            dense[debtors, creditors] = weights
            x = ExposureMatrix(g, dense[g.links[:, 0], g.links[:, 1]])
            assert_matches_scipy_csr(x, n, debtors, creditors, weights)

    def test_matches_scipy_csr_on_generated_exposures(self):
        for delta_in, n in ((3.0, 2000), (1.0, 500)):
            g = generate(params_from_delta_in(delta_in).with_size(n, 3))
            src, dst = g.links.T
            kout, kin = g.out_degree.astype(float), g.in_degree.astype(float)
            weights = kout[src] * kin[dst] / (kout.max() * kin.max())
            assert kout.max() > 8
            assert_matches_scipy_csr(build_exposures(g), n, src, dst, weights)

    def test_arrays_are_read_only(self):
        weights = np.array([0.4, 0.3])
        x = ExposureMatrix(DirectedGraph.from_links(2, [(0, 1), (1, 0)]), weights)
        for a in (x.indptr, x.indices, x.data):
            assert not a.flags.writeable
        assert weights.flags.writeable  # the matrix keeps its own copy

    @pytest.mark.parametrize(
        "n, debtors, creditors, weights, message",
        [
            # Weights follow graph.links, which sorts (1, 0) after (0, 1).
            (2, [1, 0], [0, 1], [0.5, np.nan], r"^exposure \(1, 0\) has non-finite weight nan$"),
            (2, [0, 1], [1, 0], [np.inf, 0.5], r"^exposure \(0, 1\) has non-finite weight inf$"),
            (2, [0, 1], [1, 0], [0.5, -np.inf], r"^exposure \(1, 0\) has non-finite weight -inf$"),
            (2, [0, 1], [1, 0], [0.5, 0.0], r"^exposure \(1, 0\) has non-positive weight 0.0$"),
            (2, [0, 1], [1, 0], [-0.5, 0.5], r"^exposure \(0, 1\) has non-positive weight -0.5$"),
            (3, [0, 1, 2], [1, 1, 2], [0.5, 0.5, np.nan], r"^self-link at node 1$"),
            (2, [0, 2], [1, 0], [0.5, 0.5], r"^link \(2, 0\) outside node range \[0, 2\)$"),
            (2, [0, 1], [-1, 0], [0.5, 0.5], r"^link \(0, -1\) outside node range \[0, 2\)$"),
            # The graph keeps one (0, 1) and one (1, 2): two links, four weights.
            (3, [0, 1, 0, 1], [1, 2, 1, 2], [0.5, 0.2, 0.3, 0.1], r"^need one weight per link: 2 links, weights of shape \(4,\)$"),
            (3, [0, 1], [1, 2], [0.5], r"one weight per link"),
            (3, [0, 1], [1, 2], [[0.5, 0.5]], r"one weight per link"),
            (3, [], [], [], r"no entries"),
            (0, [], [], [], r"at least one node"),
        ],
    )
    def test_malformed_triples_name_the_first_offender(
        self, n, debtors, creditors, weights, message
    ):
        with pytest.raises(ValueError, match=message):
            ExposureMatrix(DirectedGraph.from_links(n, list(zip(debtors, creditors))), weights)

    def test_non_finite_dense_cell_rejected(self):
        # A NaN or inf cell used to reach the margins: assets [0.5, nan].
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=r"exposure \(0, 1\) has non-finite"):
                exposures_from_dense([[0.0, bad], [0.5, 0.0]])


class TestBuildBalanceSheets:
    def test_accounting_identity(self):
        _, _, sheets = _sheets()
        lhs = sheets.ba + sheets.nba
        rhs = sheets.bl + sheets.nbl + sheets.e
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_equity_fraction_and_nonbank_scaling(self):
        _, _, sheets = _sheets()
        assert np.abs(sheets.e - sheets.lam * (sheets.ba + sheets.nba)).max() < 1e-9
        assert np.abs(sheets.nba - 2.0 * (sheets.ba + sheets.bl)).max() < 1e-9

    def test_interbank_sides_balance(self):
        _, _, sheets = _sheets()
        assert sheets.ba.sum() == pytest.approx(sheets.bl.sum(), abs=1e-9)

    def test_capital_ratios_above_floor(self):
        _, _, sheets = _sheets(lambda_min=0.05)
        assert (sheets.lam > 0.05).all()
        # Truncated-normal mean sits about sigma * sqrt(2/pi) above the floor.
        assert sheets.lam.mean() == pytest.approx(0.058, abs=0.002)

    def test_deterministic_in_seed(self):
        _, _, a = _sheets(sheet_seed=9)
        _, _, b = _sheets(sheet_seed=9)
        assert np.array_equal(a.lam, b.lam)
        _, _, c = _sheets(sheet_seed=10)
        assert not np.array_equal(a.lam, c.lam)

    def test_negative_nonbank_liabilities_is_an_error(self):
        # A pure debtor with xi small enough drives NBL negative; the error
        # must name the bank and point at xi.
        g = DirectedGraph.from_links(2, [(0, 1)])
        x = build_exposures(g)
        with pytest.raises(ValueError, match=r"bank 0 .*increase xi \(currently 0.3\)"):
            build_balance_sheets(x, BalanceConfig(0.05, 0.01, 0.3, 1))

    def test_capital_ratio_of_one_is_blamed_not_xi(self):
        # A ratio lambda >= 1 leaves NBL negative for any xi: the error must
        # name that bank and its ratio and point at lambda_min and sigma.
        graph = generate(params_from_delta_in(2.0).with_size(50, seed=3))
        config = BalanceConfig(0.99, 0.01, 1e9, seed=0)
        with pytest.raises(ValueError) as info:
            build_balance_sheets(build_exposures(graph), config)
        message = str(info.value)
        assert message.startswith("bank 4 has negative nonbank liabilities")
        assert "(-8.20583e+06); capital ratio 1.00574 >= 1" in message
        assert "lower lambda_min (currently 0.99) or sigma (currently 0.01)" in message
        assert "increase xi" not in message

    def test_isolated_bank_all_zero(self):
        g = DirectedGraph.from_links(3, [(1, 2)])
        x = build_exposures(g)
        sheets = build_balance_sheets(x, BalanceConfig(0.05, 0.01, 2.0, 1))
        assert len(sheets) == 3
        for column in (sheets.ba, sheets.bl, sheets.nba, sheets.nbl, sheets.e):
            assert column[0] == 0.0
        assert np.array_equal(sheets.total_assets, sheets.ba + sheets.nba)

    def test_non_finite_entries_rejected(self):
        _, _, sheets = _sheets(n=20)
        names = ("ba", "bl", "nba", "nbl", "e", "lam")
        for name, bad in zip(names, [np.nan, np.inf, -np.inf] * 2):
            columns = {c: getattr(sheets, c).copy() for c in names}
            columns[name][3] = bad
            with pytest.raises(ValueError, match=f"{name} is not finite at bank 3"):
                BalanceSheetSet(**columns)

    def test_sheets_own_copies_of_their_columns(self):
        _, _, sheets = _sheets(n=20)
        names = ("ba", "bl", "nba", "nbl", "e", "lam")
        columns = {c: getattr(sheets, c).copy() for c in names}
        owned = BalanceSheetSet(**columns)
        for name in names:
            given = columns[name]
            assert given.flags.writeable  # the caller's array is left as it was
            assert not getattr(owned, name).flags.writeable
            given[0] = 2.0
            assert getattr(owned, name)[0] == getattr(sheets, name)[0]
        assert np.array_equal(owned.obligations, sheets.bl + sheets.nbl)

    def test_columns_of_unequal_length_rejected(self):
        _, _, sheets = _sheets(n=20)
        names = ("ba", "bl", "nba", "nbl", "e", "lam")
        columns = {c: getattr(sheets, c) for c in names} | {"nbl": sheets.nbl[:-1]}
        with pytest.raises(ValueError, match="^balance-sheet columns must share one length$"):
            BalanceSheetSet(**columns)

    def test_capital_ratio_sampling_gives_up_naming_the_floor(self, monkeypatch):
        monkeypatch.setattr(balance, "_LAMBDA_RETRY_CAP", 0)
        # About half of the first 20 draws fall below the floor.
        chain = DirectedGraph.from_links(20, [(i, i + 1) for i in range(19)])
        exposures = build_exposures(chain)
        message = (
            "^capital-ratio sampling failed to clear the floor 0.05 within 0 rounds$"
        )
        with pytest.raises(RuntimeError, match=message):
            build_balance_sheets(exposures, BalanceConfig(0.05, 0.01, 2.0, 1))

    def test_nonbank_share_exceeds_half_at_xi_two(self):
        _, _, sheets = _sheets(n=1000)
        active = sheets.total_assets > 0
        nba_share = sheets.nba[active] / sheets.total_assets[active]
        nbl_share = sheets.nbl[active] / (sheets.bl + sheets.nbl)[active]
        assert nba_share.mean() > 0.5
        assert nbl_share.mean() > 0.5


class TestNonbankRatios:
    def test_balanced_book(self):
        nba_a, nbl_l = nonbank_ratios(10.0, 10.0, 0.05, 2.0)
        assert nba_a == pytest.approx(0.8)
        assert nbl_l == pytest.approx(3.75 / 4.75)

    def test_creditor_dominated_limit(self):
        nba_a, nbl_l = nonbank_ratios(1.0, 1e-12, 0.05, 2.0)
        assert nba_a == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert nbl_l == pytest.approx(1.0, abs=1e-9)

    def test_debtor_dominated_limit(self):
        nba_a, nbl_l = nonbank_ratios(1e-12, 1.0, 0.05, 2.0)
        assert nba_a == pytest.approx(1.0, abs=1e-9)
        assert nbl_l == pytest.approx(0.9 / 1.9, abs=1e-9)

    def test_inactive_bank_rejected(self):
        with pytest.raises(ValueError, match="no interbank activity"):
            nonbank_ratios(0.0, 0.0, 0.05, 2.0)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda_min": 0.0},
            {"lambda_min": 1.0},
            {"sigma": 0.0},
            {"xi": 0.0},
            {"sigma": float("nan")},
            {"sigma": float("inf")},
            {"xi": float("nan")},
            {"xi": float("inf")},
            {"seed": -1},
            {"seed": 1.5},
            {"seed": True},
            {"seed": "0"},
            {"lambda_min": "0.05"},
            {"sigma": None},
            {"xi": "2"},
        ],
    )
    def test_bad_configs(self, kwargs):
        base = {"lambda_min": 0.05, "sigma": 0.01, "xi": 2.0, "seed": 0}
        base.update(kwargs)
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"^{name} must "):
            BalanceConfig(**base)


class TestExports:
    def test_balance_csv_format(self, tmp_path):
        report = run_experiment(ExperimentSpec("S", 0, 50, 1), workers=1)
        out = write_run_directory(report, tmp_path / "run")
        lines = (out / "balances_0.csv").read_text().splitlines()
        assert lines[0] == "bank,ba,bl,nba,nbl,e,lambda"
        assert len(lines) == 51
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[6]) > 0.05
