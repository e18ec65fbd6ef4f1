"""Property-based checks of the clearing engine on random small systems.

Systems have at most 10 banks, model-valid balance sheets and any shock
recovery in [0, 1]; defaulted banks' nonbank estates are pooled (1),
half-fenced (0.5) or fenced off (0). The acceptance runs only use total
write-offs with pooled estates, so these are the only checks of the other
settings. Examples are derandomized, so the suite is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_matches_per_bank_loop,
    dense_exposures,
    exposures_from_dense,
    lp_clearing,
    payment_ratios,
    per_bank_loop,
    picard_clearing,
    receipts,
)
from contagion.balance import BalanceConfig, build_balance_sheets
from contagion.clearing import (
    ShockScenario,
    clear,
    clear_all,
    gross_system_volume,
    total_initial_assets,
)

PROPERTY_SETTINGS = settings(
    derandomize=True, deadline=None, max_examples=100, database=None
)

recoveries = st.floats(0.0, 1.0)
defaulted_recoveries = st.sampled_from((0.0, 0.5, 1.0))


@st.composite
def systems(draw):
    """Exposures of 2 to 10 banks with sheets from ``build_balance_sheets``."""
    n = draw(st.integers(2, 10))
    cells = st.one_of(st.just(0.0), st.floats(0.05, 1.05))
    dense = np.array(draw(st.lists(cells, min_size=n * n, max_size=n * n)))
    dense = dense.reshape(n, n)
    np.fill_diagonal(dense, 0.0)
    assume(dense.any())
    exposures = exposures_from_dense(dense)
    # (1 - lambda) * xi >= 1 keeps nonbank liabilities feasible.
    config = BalanceConfig(
        lambda_min=draw(st.floats(0.01, 0.2)),
        sigma=0.01,
        xi=draw(st.floats(1.3, 3.0)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    return exposures, build_balance_sheets(exposures, config)


def _shocked(system, data):
    return data.draw(st.integers(0, system[0].n - 1), label="shocked bank")


@PROPERTY_SETTINGS
@given(systems(), recoveries, st.data())
def test_pooled_estates_match_the_picard_oracle(system, recovery, data):
    exposures, sheets = system
    s = _shocked(system, data)
    sol = clear(exposures, sheets, ShockScenario(s, recovery_on_nonbank=recovery))
    external = sheets.nba.copy()
    external[s] = recovery * sheets.nba[s]
    oracle = picard_clearing(
        dense_exposures(exposures), external, sheets.bl + sheets.nbl
    )
    assert np.abs(sol.payments - oracle).max() <= 1e-10


@PROPERTY_SETTINGS
@given(systems(), recoveries, defaulted_recoveries, st.data())
def test_payments_and_receipts_are_conserved(system, recovery, defaulted_recovery, data):
    exposures, sheets = system
    s = _shocked(system, data)
    sol = clear(exposures, sheets, ShockScenario(s, recovery, defaulted_recovery))
    ratio = payment_ratios(sheets, sol.payments)
    received = receipts(exposures, sheets, sol.payments)
    writeoff = sol.initial_writeoff
    # What debtors pay on interbank claims is what creditors receive.
    assert abs((ratio * sheets.bl).sum() - received.sum()) <= 1e-10
    # Asset side: initial assets minus marked assets equals the write-off
    # plus interbank shortfalls.
    marked = sheets.nba.sum() - writeoff + received.sum()
    assert total_initial_assets(sheets) - marked == pytest.approx(
        writeoff + (sheets.ba - received).sum(), abs=1e-8
    )
    # Gross side: the volume falls by the write-off plus every unpaid
    # obligation, interbank and nonbank, with claims marked to payments.
    marked += (ratio * sheets.nbl).sum()
    assert gross_system_volume(sheets) - marked == pytest.approx(
        writeoff + (sheets.bl + sheets.nbl - sol.payments).sum(), abs=1e-8
    )


@PROPERTY_SETTINGS
@given(systems(), recoveries, st.data())
def test_pooled_estates_match_the_linear_program(system, recovery, data):
    exposures, sheets = system
    s = _shocked(system, data)
    sol = clear(exposures, sheets, ShockScenario(s, recovery_on_nonbank=recovery))
    external = sheets.nba.copy()
    external[s] = recovery * sheets.nba[s]
    lp = lp_clearing(dense_exposures(exposures), external, sheets.bl + sheets.nbl)
    # No tighter than HiGHS's own primal feasibility tolerance.
    assert np.abs(sol.payments - lp).max() <= 1e-7


@PROPERTY_SETTINGS
@given(systems(), recoveries, defaulted_recoveries, st.data())
def test_limited_liability_and_pro_rata(system, recovery, defaulted_recovery, data):
    exposures, sheets = system
    s = _shocked(system, data)
    sol = clear(exposures, sheets, ShockScenario(s, recovery, defaulted_recovery))
    pbar = sheets.bl + sheets.nbl
    p = sol.payments
    # Nobody pays more than it owes, or less than nothing.
    assert (p >= 0.0).all() and (p <= pbar).all()
    # Solvent banks pay in full.
    solvent = np.ones(exposures.n, dtype=bool)
    solvent[list(sol.defaulted)] = False
    assert np.array_equal(p[solvent], pbar[solvent])
    # A defaulted bank pays all it can reach: its recoverable nonbank
    # assets plus its receipts, every creditor of a bank receiving the same
    # fraction of its claim, capped at what it owes.
    reach = defaulted_recovery * sheets.nba
    reach[s] = recovery * sheets.nba[s]
    owed = np.clip(reach + receipts(exposures, sheets, p), 0.0, pbar)
    defaulted = ~solvent
    assert np.abs(p[defaulted] - owed[defaulted]).max(initial=0.0) <= 1e-10


@PROPERTY_SETTINGS
@given(systems(), recoveries, defaulted_recoveries)
def test_clear_all_equals_the_per_bank_loop(system, recovery, defaulted_recovery):
    exposures, sheets = system
    solutions, results = per_bank_loop(exposures, sheets, recovery, defaulted_recovery)
    out = clear_all(exposures, sheets, recovery, defaulted_recovery)
    assert_matches_per_bank_loop(out, solutions, results)


@PROPERTY_SETTINGS
@given(systems(), recoveries, recoveries, defaulted_recoveries)
def test_total_impact_never_rises_with_recovery(system, r1, r2, defaulted_recovery):
    exposures, sheets = system
    low, high = sorted((r1, r2))
    ti_low = clear_all(exposures, sheets, low, defaulted_recovery).ti
    ti_high = clear_all(exposures, sheets, high, defaulted_recovery).ti
    assert (ti_high <= ti_low + 1e-12).all()


@PROPERTY_SETTINGS
@given(systems(), recoveries, defaulted_recoveries, defaulted_recoveries, st.data())
def test_default_set_never_shrinks_as_estates_are_fenced(
    system, recovery, d1, d2, data
):
    exposures, sheets = system
    s = _shocked(system, data)
    fenced, pooled = sorted((d1, d2))
    more = clear(exposures, sheets, ShockScenario(s, recovery, fenced))
    fewer = clear(exposures, sheets, ShockScenario(s, recovery, pooled))
    assert fewer.defaulted <= more.defaulted


@PROPERTY_SETTINGS
@given(
    systems(),
    st.floats(0.01, 0.2),
    st.floats(0.01, 0.2),
    st.floats(1.5, 3.0),
    st.integers(0, 2**31 - 1),
    recoveries,
    defaulted_recoveries,
)
def test_impacts_never_rise_with_the_capital_floor(
    system, l1, l2, xi, seed, recovery, defaulted_recovery
):
    # One seed draws the same standard normals at every floor, and a ratio
    # at or below the floor is redrawn whatever the floor, so raising the
    # floor raises every bank's capital ratio by the same amount. With
    # xi >= 1.5 nonbank liabilities stay feasible up to ratios of 1/3.
    exposures = system[0]
    low, high = (
        clear_all(
            exposures,
            build_balance_sheets(exposures, BalanceConfig(lam, 0.01, xi, seed)),
            recovery,
            defaulted_recovery,
        )
        for lam in sorted((l1, l2))
    )
    assert (high.di <= low.di + 1e-12).all()
    assert (high.dc <= low.dc).all()
