"""
From topology to balance sheets
===============================

Builds the exposure matrix of a generated network (link weights grow with
both endpoint degrees), then closes every bank's balance sheet around it:
equity is a sampled fraction of assets, nonbank assets are a multiple of
interbank activity, and nonbank funding balances the books. The
composition ratios interpolate between three closed-form limits.
"""

import numpy as np

from contagion import (
    BalanceConfig,
    build_balance_sheets,
    build_exposures,
    generate,
    nonbank_ratios,
    params_from_delta_in,
)

graph = generate(params_from_delta_in(2.0).with_size(1000, 11))
exposures = build_exposures(graph)
sheets = build_balance_sheets(
    exposures, BalanceConfig(lambda_min=0.05, sigma=0.01, xi=2.0, seed=11)
)

print(f"network: {graph.n} banks, {graph.link_count} exposures")
print(f"largest single exposure: {exposures.data.max():.3f} "
      f"(the max-debtor -> max-creditor link is 1 by construction)")

# Interbank positions cancel in aggregate: one side's asset is the other's
# liability.
print(f"sum BA = {sheets.ba.sum():.6f}  vs  sum BL = {sheets.bl.sum():.6f}")

active = sheets.total_assets > 0
print("\nbalance-sheet composition (population means)")
print(f"  nonbank assets / assets      : "
      f"{(sheets.nba[active] / sheets.total_assets[active]).mean():.3f}")
print(f"  nonbank liabilities / liabs  : "
      f"{(sheets.nbl[active] / (sheets.bl + sheets.nbl)[active]).mean():.3f}")
print(f"  capital ratio (floor 0.05)   : {sheets.lam.mean():.4f}")

# ---------------------------------------------------------------------
# The composition ratios against their closed-form limits.
# ---------------------------------------------------------------------
print("\nnonbank-share limits at xi=2, lambda=0.05")
cases = [
    ("debtor-dominated  (BA << BL)", 1e-9, 1.0),
    ("balanced          (BA  = BL)", 1.0, 1.0),
    ("creditor-dominated(BA >> BL)", 1.0, 1e-9),
]
for label, ba, bl in cases:
    nba_share, nbl_share = nonbank_ratios(ba, bl, 0.05, 2.0)
    print(f"  {label}: NBA/A = {nba_share:.4f}   NBL/L = {nbl_share:.4f}")

print("\nsweep of NBA/A over the book ratio BA/BL")
for ratio in (0.1, 0.5, 1.0, 2.0, 10.0):
    nba_share, nbl_share = nonbank_ratios(ratio, 1.0, 0.05, 2.0)
    print(f"  BA/BL = {ratio:5.1f}: NBA/A = {nba_share:.4f}  NBL/L = {nbl_share:.4f}")
