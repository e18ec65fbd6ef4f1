"""
Anatomy of one default cascade
==============================

Shocks the biggest debtor of a debt-concentrated network (its nonbank
assets are written off), clears all mutual obligations simultaneously,
and walks through the rounds of the resulting cascade: who fails, what
fraction of obligations gets paid, and how much system value evaporates.
"""

import io
import json

import numpy as np

from contagion import (
    BalanceConfig,
    ShockScenario,
    build_balance_sheets,
    build_exposures,
    cascade_metrics,
    clear,
    compute_topo_indices,
    generate,
    params_from_delta_in,
    total_initial_assets,
)

graph = generate(params_from_delta_in(3.0).with_size(1000, 23))
exposures = build_exposures(graph)
sheets = build_balance_sheets(
    exposures, BalanceConfig(lambda_min=0.05, sigma=0.01, xi=2.0, seed=23)
)
a0 = total_initial_assets(sheets)

shocked = int(np.argmax(graph.out_degree))
print(f"shocking bank {shocked}: out-degree {graph.out_degree[shocked]}, "
      f"interbank debt {sheets.bl[shocked]:.2f}, "
      f"nonbank assets {sheets.nba[shocked]:.2f}")

trace = io.StringIO()
solution = clear(exposures, sheets, ShockScenario(shocked), trace=trace)

print("\ncascade rounds")
for line in trace.getvalue().splitlines():
    record = json.loads(line)
    fresh = record["new_defaults"]
    print(f"  round {record['round']}: {len(fresh):3d} new defaults "
          f"(max payment change {record['max_delta']:.3e})")

# Every bank owes its interbank plus its nonbank liabilities.
obligations = sheets.bl + sheets.nbl
defaulted = sorted(solution.defaulted)
print(f"\n{len(defaulted)} banks insolvent; payment ratios of the first few:")
for bank in defaulted[:8]:
    ratio = solution.payments[bank] / obligations[bank]
    print(f"  bank {bank:4d}: pays fraction {ratio:.3f} of its "
          f"obligations ({obligations[bank]:.3f})")

result = cascade_metrics(solution, sheets, shocked, a0)
print(f"\nimpact: DI = {result.di:.4f}  TI = {result.ti:.4f}  "
      f"DC = {result.dc:.4f}")

# The local vulnerability indices flag this bank's creditors in advance.
indices = compute_topo_indices(exposures, sheets)
print(f"counterparty susceptibility CS({shocked}) = {indices.cs[shocked]:.2f}")
print(f"local network frailty        f({shocked}) = {indices.frailty[shocked]:.2f}")

# A solvent benchmark: full recovery on the nonbank book means no shock.
benign = clear(exposures, sheets, ShockScenario(shocked, recovery_on_nonbank=1.0))
print(f"\nwith full nonbank recovery: {len(benign.defaulted)} defaults, "
      f"all obligations paid: {np.allclose(benign.payments, obligations)}")
