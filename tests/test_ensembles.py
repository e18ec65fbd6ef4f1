"""Ensemble-level checks beyond the numbered acceptance criteria.

These pin the remaining reported comparative statistics: asset
concentration, ranking-curve dispersion, index-impact correlations, and
the denser/less-concentrated network variants.
"""

import numpy as np
import pytest

from contagion.metrics import ranking_statistics


class TestTypeZeroAnchors:
    def test_asset_concentration_ordering(self, ensembles):
        # Reported asset Ginis: about 0.83 (GC), 0.80 (GD), 0.78 (S).
        g = {f: ensembles(f, 0).means["gini_assets"] for f in ("GC", "S", "GD")}
        assert g["GC"] > g["GD"] > g["S"], g
        assert g["GC"] == pytest.approx(0.83, abs=0.03)
        assert g["GD"] == pytest.approx(0.80, abs=0.03)
        assert g["S"] == pytest.approx(0.78, abs=0.03)

    def test_first_position_dispersion(self, ensembles):
        # The top-ranking-position impact varies by roughly 40% of its mean
        # across replications.
        for family in ("GC", "S", "GD"):
            report = ensembles(family, 0)
            stats = ranking_statistics([r.di for r in report.records])
            assert 0.15 <= stats.cv[0] <= 0.75, (family, stats.cv[0])

    def test_table1_concentration_values(self, ensembles):
        expected = {
            "GD": (0.457, 0.418, 0.746),
            "S": (0.429, 0.578, 0.576),
            "GC": (0.456, 0.748, 0.410),
        }
        for family, (g, g_in, g_out) in expected.items():
            means = ensembles(family, 0).means
            assert means["gini_total"] == pytest.approx(g, abs=0.02)
            assert means["gini_in"] == pytest.approx(g_in, abs=0.02)
            assert means["gini_out"] == pytest.approx(g_out, abs=0.02)

    def test_frailty_correlates_with_cascades(self, ensembles):
        # Positive frailty-to-cascade correlation, stronger for the
        # debt-concentrated family than for the resilient credit one.
        gd = ensembles("GD", 0).correlation_means["pearson_f_dc"]
        gc = ensembles("GC", 0).correlation_means["pearson_f_dc"]
        assert gd is not None and gc is not None
        assert gd > 0.0
        assert gd > gc


class TestVariantEnsembles:
    def test_type2_density_with_type0_concentration(self, ensembles):
        for family in ("GC", "S", "GD"):
            means = ensembles(family, 2, reps=10).means
            assert means["mean_degree"] == pytest.approx(7.81, abs=0.25)
            assert means["gini_total"] == pytest.approx(0.475, abs=0.03)

    def test_type3_random_densification(self, ensembles):
        for family, g_ref in (("GC", 0.245), ("S", 0.233), ("GD", 0.256)):
            means = ensembles(family, 3, reps=10).means
            assert means["mean_degree"] == pytest.approx(7.8, abs=0.01)
            assert means["gini_total"] == pytest.approx(g_ref, abs=0.03)

    def test_type4_lower_concentration_same_density(self, ensembles):
        for family in ("GC", "S", "GD"):
            means = ensembles(family, 4, reps=10).means
            assert means["mean_degree"] == pytest.approx(2.65, abs=0.1)
            assert means["gini_total"] == pytest.approx(0.39, abs=0.03)

    def test_credit_networks_suffer_when_spread_out(self, ensembles):
        # Spreading a credit-concentrated network's links (variants 2-4)
        # raises its cascade aggregate relative to the original.
        base = ensembles("GC", 0).means["dc_aggregate"]
        for variant in (2, 3, 4):
            spread = ensembles("GC", variant, reps=10).means["dc_aggregate"]
            assert spread > base, (variant, spread, base)
