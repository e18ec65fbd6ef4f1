"""
Comparing network families under stress
=======================================

Runs small Monte-Carlo ensembles for the three reference families and
their denser variants, shocking every bank of every replication, and
tabulates the two aggregate systemic-risk measures: summed Default Impact
(value destroyed via contagion) and summed Default Cascade (banks toppled).
Finishes with a capital sweep showing how loss-absorbing buffers tame the
cascade channel much faster than the value channel.

Scaled down for a quick run; raise N_NODES/REPS to approach the reference
ensemble statistics (n=1000, 20 replications).
"""

from contagion import ExperimentSpec, run_experiment, sweep

N_NODES = 400
REPS = 5
SEED = 2718

# ---------------------------------------------------------------------
# Families x density variants.
# ---------------------------------------------------------------------
print(f"{'network':>8} {'<k>':>6} {'G':>6} {'DI':>7} {'DC':>7} {'maxDC':>7}")
for variant in (0, 1):
    for family in ("GC", "S", "GD"):
        spec = ExperimentSpec(family, variant, N_NODES, REPS, master_seed=SEED)
        report = run_experiment(spec, workers=1)
        m = report.means
        print(
            f"{family + str(variant):>8} {m['mean_degree']:6.2f} "
            f"{m['gini_total']:6.3f} {m['di_aggregate']:7.3f} "
            f"{m['dc_aggregate']:7.3f} {m['dc_max']:7.4f}"
        )
    print()

print("reading: cascades (DC) grow with debt concentration (GC < S < GD)")
print("and a denser credit-concentrated network (GC1) is the most resilient;")
print("value impact (DI) moves far less, ordered the same way.\n")

# ---------------------------------------------------------------------
# Ranking-curve dispersion: the top systemic bank varies a lot by draw.
# ---------------------------------------------------------------------
report = run_experiment(
    ExperimentSpec("GD", 0, N_NODES, REPS, master_seed=SEED), workers=1
)
stats = report.ranking_di
print("GD0 impact-ranking curve (top positions, mean +/- std across reps)")
for pos in range(5):
    print(
        f"  position {pos + 1}: {stats.mean[pos]:.4f} +/- {stats.std[pos]:.4f} "
        f"(cv {stats.cv[pos]:.2f})"
    )

# ---------------------------------------------------------------------
# Capital sweep: same topologies, fatter equity buffers.
# ---------------------------------------------------------------------
print("\ncapital sweep on GD0 (identical networks across floors)")
reports = sweep(
    ExperimentSpec("GD", 0, N_NODES, REPS, master_seed=SEED),
    "lambda_min",
    (0.01, 0.05, 0.10),
    workers=1,
)
print(f"{'lambda':>7} {'DI':>7} {'DC':>7}")
for point in reports:
    m = point.means
    print(
        f"{point.spec.lambda_min:7.2f} {m['di_aggregate']:7.3f} "
        f"{m['dc_aggregate']:7.3f}"
    )
low, high = reports[0].means, reports[-1].means
print(
    f"relative drop 0.01 -> 0.10: "
    f"DI {1 - high['di_aggregate'] / low['di_aggregate']:.0%}, "
    f"DC {1 - high['dc_aggregate'] / low['dc_aggregate']:.0%}"
)
