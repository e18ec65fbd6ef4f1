"""Interbank contagion simulation toolkit.

Generates directed scale-free interbank networks by preferential
attachment, derives exposure weights and balance sheets from the topology,
propagates single-bank default shocks through a clearing-payment fixed
point, and aggregates systemic-risk measures across Monte-Carlo ensembles.

Modules:
    netgen    -- network growth, limit exponents, random densification
    powerlaw  -- discrete power-law tail fitting by maximum likelihood
    balance   -- exposure matrices and balance-sheet construction
    clearing  -- shock scenarios, clearing fixed point, impact metrics
    metrics   -- Gini, rankings, local vulnerability indices, correlations
    harness   -- ensemble experiments, sweeps, artifact persistence
    cli       -- the ``contagion`` command-line tool
"""

from .balance import (
    BalanceConfig,
    BalanceSheetSet,
    ExposureMatrix,
    build_balance_sheets,
    build_exposures,
    nonbank_ratios,
)
from .clearing import (
    AllBanksClearing,
    CascadeResult,
    ClearingError,
    ClearingSolution,
    ShockScenario,
    cascade_metrics,
    clear,
    clear_all,
    gross_system_volume,
    total_initial_assets,
)
from .harness import (
    ExperimentReport,
    ExperimentSpec,
    run_experiment,
    sweep,
    write_run_directory,
)
from .metrics import (
    IndexImpactCorrelation,
    NetworkRiskSummary,
    TopoIndices,
    compute_topo_indices,
    gini,
    index_impact_correlation,
    ranking_statistics,
    summarize,
)
from .netgen import (
    CurvePoint,
    DirectedGraph,
    ExponentPair,
    GenParams,
    augment_random_links,
    constraint_curve,
    generate,
    limit_exponents,
    params_from_delta_in,
)
from .powerlaw import DegenerateSequenceError, PowerLawFit, fit_discrete

__version__ = "0.1.0"

__all__ = [
    "AllBanksClearing",
    "BalanceConfig",
    "BalanceSheetSet",
    "CascadeResult",
    "ClearingError",
    "ClearingSolution",
    "CurvePoint",
    "DegenerateSequenceError",
    "DirectedGraph",
    "ExperimentReport",
    "ExperimentSpec",
    "ExponentPair",
    "ExposureMatrix",
    "GenParams",
    "IndexImpactCorrelation",
    "NetworkRiskSummary",
    "PowerLawFit",
    "ShockScenario",
    "TopoIndices",
    "augment_random_links",
    "build_balance_sheets",
    "build_exposures",
    "cascade_metrics",
    "clear",
    "clear_all",
    "compute_topo_indices",
    "constraint_curve",
    "fit_discrete",
    "generate",
    "gini",
    "gross_system_volume",
    "index_impact_correlation",
    "limit_exponents",
    "nonbank_ratios",
    "params_from_delta_in",
    "ranking_statistics",
    "run_experiment",
    "summarize",
    "sweep",
    "total_initial_assets",
    "write_run_directory",
]
