import hashlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import cumsum_generate_links, scalar_augment_links
from contagion import netgen
from contagion.harness import TYPE3_TARGET_MEAN_DEGREE, TYPE_PARAMS
from contagion.netgen import (
    CurvePoint,
    DirectedGraph,
    GenParams,
    augment_random_links,
    constraint_curve,
    generate,
    limit_exponents,
    params_from_delta_in,
    read_edge_list,
    write_edge_list,
)

GD0 = params_from_delta_in(3.0)
S0 = params_from_delta_in(2.0)
GC0 = params_from_delta_in(1.0)


class TestGenParams:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="equal 1"):
            GenParams(0.5, 0.5, 0.1, 1.0, 1.0, 10, 0)

    def test_probability_range(self):
        with pytest.raises(ValueError):
            GenParams(-0.1, 0.6, 0.5, 1.0, 1.0, 10, 0)

    def test_negative_offsets_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GenParams(0.25, 0.5, 0.25, -1.0, 1.0, 10, 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_offsets_rejected(self, bad):
        for offsets in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                GenParams(0.25, 0.5, 0.25, *offsets, 10, 0)

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="n_target"):
            GenParams(0.25, 0.5, 0.25, 1.0, 1.0, 1, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            GenParams(0.25, 0.5, 0.25, 1.0, 1.0, 10, -1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_target", 100.0),
            ("n_target", 100.5),
            ("n_target", True),
            ("n_target", "100"),
            ("seed", 1.5),
            ("seed", False),
            ("seed", "0"),
        ],
    )
    def test_integer_fields_refuse_non_integers(self, field, value):
        kwargs = {"n_target": 10, "seed": 0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            GenParams(0.25, 0.5, 0.25, 1.0, 1.0, **kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha", "0.25"),
            ("beta", None),
            ("gamma", True),
            ("delta_in", "1"),
            ("delta_out", [1.0]),
        ],
    )
    def test_float_fields_refuse_non_numbers(self, field, value):
        kwargs = dict(alpha=0.25, beta=0.5, gamma=0.25, delta_in=1.0, delta_out=1.0)
        with pytest.raises(ValueError, match=f"^{field} must be a number, got {re.escape(repr(value))}$"):
            GenParams(**(kwargs | {field: value}), n_target=10, seed=0)

    def test_numpy_numbers_are_accepted(self):
        p = GenParams(np.float32(0.25), np.float64(0.5), 0.25, np.float32(1.0), 1, 10, 0)
        assert (p.alpha, p.delta_out) == (0.25, 1)

    def test_numpy_integers_grow_the_same_graph(self):
        plain = generate(GD0.with_size(100, 3))
        numpy_ints = generate(GD0.with_size(np.int64(100), np.uint32(3)))
        assert numpy_ints.n == 100
        assert np.array_equal(plain.links, numpy_ints.links)


class TestParamsFromDeltaIn:
    @pytest.mark.parametrize(
        "delta_in,expected",
        [
            (2.0, (0.375, 0.25, 0.375, 2.0)),
            (1.0, (0.5625, 0.25, 0.1875, 3.0)),
            (3.0, (0.1875, 0.25, 0.5625, 1.0)),
        ],
    )
    def test_reference_points(self, delta_in, expected):
        p = params_from_delta_in(delta_in)
        assert (p.alpha, p.beta, p.gamma, p.delta_out) == pytest.approx(expected)
        assert p.delta_in == delta_in

    @pytest.mark.parametrize("bad", [0.0, 4.0, -1.0, 5.0])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            params_from_delta_in(bad)

    def test_constraints_hold_across_range(self):
        for delta_in in np.linspace(0.05, 3.95, 79):
            p = params_from_delta_in(delta_in)
            assert p.alpha + p.gamma == pytest.approx(0.75, abs=1e-12)
            assert p.delta_in + p.delta_out == pytest.approx(4.0, abs=1e-12)


class TestLimitExponents:
    def test_reference_pairs(self):
        assert limit_exponents(GD0).x_in == pytest.approx(8.4286, abs=5e-5)
        assert limit_exponents(GD0).x_out == pytest.approx(3.1538, abs=5e-5)
        assert limit_exponents(S0).x_in == pytest.approx(5.0, abs=1e-12)
        assert limit_exponents(S0).x_out == pytest.approx(5.0, abs=1e-12)
        assert limit_exponents(GC0).x_in == pytest.approx(3.1538, abs=5e-5)
        assert limit_exponents(GC0).x_out == pytest.approx(8.4286, abs=5e-5)

    def test_curve_identity(self):
        # x_out = (x_in + 15) / (x_in - 1) along the constrained family.
        for delta_in in np.linspace(0.05, 3.95, 79):
            pair = limit_exponents(params_from_delta_in(delta_in))
            assert pair.x_out == pytest.approx(
                constraint_curve(pair.x_in), abs=1e-9
            )
        assert constraint_curve(5.0) == pytest.approx(5.0, abs=1e-12)

    def test_constraint_curve_needs_x_in_above_one(self):
        with pytest.raises(ValueError, match="^x_in must exceed 1$"):
            constraint_curve(1.0)

    @pytest.mark.parametrize(
        "delta_out, message",
        [(float("inf"), "^exponents must be finite$"), (-3.0, "^exponents must exceed 1$")],
    )
    def test_exponents_are_checked(self, delta_out, message):
        # A CurvePoint is not validated, so its offsets reach ExponentPair.
        point = CurvePoint(0.375, 0.25, 0.375, 2.0, delta_out)
        with pytest.raises(ValueError, match=message):
            limit_exponents(point)

    def test_degenerate_combinations_rejected(self):
        with pytest.raises(ValueError):
            limit_exponents(GenParams(0.0, 0.0, 1.0, 1.0, 1.0, 2, 0))
        with pytest.raises(ValueError):
            limit_exponents(GenParams(1.0, 0.0, 0.0, 1.0, 1.0, 2, 0))


class TestGenerate:
    def test_reaches_target_exactly(self):
        g = generate(GD0.with_size(500, 1))
        assert g.n == 500

    def test_simple_graph(self):
        g = generate(S0.with_size(400, 2))
        pairs = g.links.tolist()
        assert len(set(map(tuple, pairs))) == len(pairs)
        assert all(s != t for s, t in pairs)

    def test_degree_tallies_match_links(self):
        g = generate(GC0.with_size(300, 3))
        kin = np.zeros(g.n, dtype=int)
        kout = np.zeros(g.n, dtype=int)
        for s, t in g.links.tolist():
            kout[s] += 1
            kin[t] += 1
        assert np.array_equal(kin, g.in_degree)
        assert np.array_equal(kout, g.out_degree)

    def test_deterministic_in_seed(self):
        a = generate(GD0.with_size(300, 42))
        b = generate(GD0.with_size(300, 42))
        assert np.array_equal(a.links, b.links)
        c = generate(GD0.with_size(300, 43))
        assert not np.array_equal(a.links, c.links)

    def test_beta_one_cannot_grow(self):
        params = GenParams(0.0, 1.0, 0.0, 1.0, 1.0, 10, 0)
        with pytest.raises(ValueError, match="never reach"):
            generate(params)

    def test_beta_one_at_seed_size_is_fine(self):
        g = generate(GenParams(0.0, 1.0, 0.0, 1.0, 1.0, 2, 0))
        assert g.n == 2
        assert g.links.tolist() == [[0, 1], [1, 0]]

    def test_mean_degree_matches_growth_rate(self):
        # One link per step, one node per (alpha + gamma) steps: mean total
        # degree converges to 2 / 0.75; 50-seed empirical mean within 3%.
        ks = [generate(S0.with_size(1000, s)).mean_degree for s in range(50)]
        assert np.mean(ks) == pytest.approx(2.0 / 0.75, rel=0.03)

    def test_mean_degree_within_5pct_for_quarter_beta(self):
        for point in (GD0, S0, GC0):
            ks = [
                generate(point.with_size(1000, s)).mean_degree
                for s in range(20)
            ]
            assert np.mean(ks) == pytest.approx(
                2.0 / (1.0 - point.beta), rel=0.05
            )

    def test_raising_beta_raises_mean_degree(self):
        low = generate(GD0.with_size(600, 5)).mean_degree
        dense = GenParams(0.0625, 0.75, 0.1875, 3.0, 1.0, 600, 5)
        high = generate(dense).mean_degree
        assert high > low + 2.0


class TestLinkArray:
    def test_sorted_deduplicated_and_read_only(self):
        g = DirectedGraph.from_links(12, [(10, 2), (2, 11), (0, 3), (10, 2), (2, 0)])
        assert g.links.dtype == np.int64
        assert g.links.tolist() == [[0, 3], [2, 0], [2, 11], [10, 2]]
        with pytest.raises(ValueError, match="read-only"):
            g.links[0, 0] = 1

    def test_generated_links_strictly_increase(self):
        for g in (
            generate(GD0.with_size(500, 1)),
            augment_random_links(generate(GC0.with_size(300, 2)), 6.0, seed=4),
        ):
            pairs = g.links.tolist()
            assert all(a < b for a, b in zip(pairs, pairs[1:]))
            assert not g.links.flags.writeable


# One SHA-256 over the links of the graphs that test_pinned_graph_digest
# grows. A faster sampler keeps it; a sampler that changes the law or the
# random stream changes every graph, and must update it and say why.
PINNED_GRAPHS_SHA256 = "79063eca0fdeb9cf88f39d27b1514accad0fe906b528bfcff93ecfeb5e5a9fd0"


def test_pinned_graph_digest():
    cases = [
        GenParams(*TYPE_PARAMS[key], n_target=1000, seed=seed)
        for key in sorted(TYPE_PARAMS)
        for seed in (0, 1, 5)
    ]
    cases += [
        params_from_delta_in(delta_in).with_size(3000, seed)
        for delta_in in (0.1, 0.5, 1.3, 2.7)
        for seed in (0, 1, 2)
    ]
    digest = hashlib.sha256()
    for params in cases:
        digest.update(generate(params).links.astype("<i8").tobytes())
    assert digest.hexdigest() == PINNED_GRAPHS_SHA256


class TestAgainstCumsumOracle:
    """The frontier-tree sampler and block draws reproduce the scalar code."""

    @pytest.mark.parametrize(
        "key", sorted(TYPE_PARAMS), ids=lambda key: f"{key[0]}{key[1]}"
    )
    @pytest.mark.parametrize("seed", [5, 1234])
    def test_type_params_rows(self, key, seed):
        params = GenParams(*TYPE_PARAMS[key], n_target=1000, seed=seed)
        assert generate(params).links.tolist() == cumsum_generate_links(params)

    @pytest.mark.parametrize(
        "row",
        [(0.4, 0.2, 0.4, 0.0, 1.0), (0.4, 0.2, 0.4, 1.0, 0.0)],
        ids=["delta_in=0", "delta_out=0"],
    )
    def test_zero_weight_plateaus(self, row):
        # Zero-degree nodes carry zero weight and must never be drawn.
        for seed in (0, 1):
            params = GenParams(*row, n_target=600, seed=seed)
            assert generate(params).links.tolist() == cumsum_generate_links(params)

    @pytest.mark.parametrize("n_target", [2, 3, 4, 5, 1023, 1024, 1025])
    @pytest.mark.parametrize("key", [("GC", 0), ("GD", 1), ("S", 4)], ids=["GC0", "GD1", "S4"])
    def test_sizes_around_powers_of_two(self, key, n_target):
        # The slot lists are padded to the next power of two.
        for seed in (3, 11):
            params = GenParams(*TYPE_PARAMS[key], n_target=n_target, seed=seed)
            assert generate(params).links.tolist() == cumsum_generate_links(params)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_non_dyadic_offsets(self, seed):
        # delta_in = 1.3, delta_out = 2.7: weights and sums round, so the
        # two samplers may only differ where rounding moves a boundary;
        # at these seeds no draw lands that close.
        params = params_from_delta_in(1.3).with_size(1500, seed)
        assert generate(params).links.tolist() == cumsum_generate_links(params)

    def test_descent_is_searchsorted_right(self, monkeypatch):
        # x on a prefix sum, inside a zero-weight plateau, and between sums:
        # the descent counts the prefix sums <= x, as side="right" does.
        # Every step adds a node: a new lender (u = 0.25) links to a target
        # drawn by in-weight, a new borrower (u = 0.75) to a source drawn by
        # out-weight. New borrowers have out-degree 0 and new lenders
        # in-degree 0, so with zero offsets both trees have plateaus.
        for offsets in ((0.0, 0.0), (0.25, 0.5)):
            for seed in range(4):
                on_sum = descend_scripted(monkeypatch, offsets, seed)
                assert on_sum >= 10

    def test_pick_is_clamped_below_n(self, monkeypatch):
        # With delta = 1.3 the weights round: the scale m + n * delta, times
        # a uniform just below 1, can land at or above the tree's sum of the
        # first n weights, and the descent then ends past the last node. The
        # pick must still be the last node n - 1, never the new node n (a
        # self-link, which would consume another draw). Every step adds a
        # new lender (or borrower) whose target (source) takes that uniform,
        # so the graph is a chain; at n = 9, 18, 23, ... x reaches even the
        # weight sum rounded once.
        n_target = 50
        below_one = float(np.nextafter(1.0, 0.0))
        for lender in (True, False):
            row = (1.0, 0.0, 0.0) if lender else (0.0, 0.0, 1.0)
            params = GenParams(*row, 1.3, 1.3, n_target, 0)
            links = generate_scripted(monkeypatch, params, [0.5, below_one] * (n_target - 2))
            chain = [[k, k - 1] if lender else [k - 1, k] for k in range(2, n_target)]
            assert links == sorted([[0, 1], [1, 0]] + chain)
        weight = 1 + Fraction(1.3)
        reached = [
            n
            for n in range(2, n_target)
            if below_one * (n + n * 1.3) >= float(n * weight)
        ]
        assert reached[:3] == [9, 18, 23]

    @pytest.mark.parametrize("lender", [True, False], ids=["target", "source"])
    def test_clamped_pick_bumps_the_last_node(self, monkeypatch, lender):
        # The chain above up to its first clamp: at n = 9 the pick is clamped
        # to node 8, whose new link must land in its one grown slot. Then
        # x = 21.2 lies half a unit below the weight sum 21.7 of nodes 0..8
        # (degrees 1, 2, 1, ..., 1 plus 9 * 1.3) in a scale of 10 + 10 * 1.3:
        # it picks node 8, or node 9 if node 8's slot missed the link.
        row = (1.0, 0.0, 0.0) if lender else (0.0, 0.0, 1.0)
        params = GenParams(*row, 1.3, 1.3, 11, 0)
        below_one = float(np.nextafter(1.0, 0.0))
        script = [0.5, below_one] * 8 + [0.5, 21.2 / 23.0]
        chain = [[k, k - 1] for k in range(2, 10)] + [[10, 8]]
        if not lender:
            chain = [[t, s] for s, t in chain]
        expected = sorted([[0, 1], [1, 0]] + chain)
        assert generate_scripted(monkeypatch, params, script) == expected
        assert cumsum_generate_links(params, iter(script)) == expected

    def test_self_link_retry_takes_its_draw_back(self, monkeypatch):
        # delta = 1: every scaled uniform lies at least half a unit from
        # every prefix sum.
        params = GenParams(0.25, 0.5, 0.25, 1.0, 1.0, 4, 0)
        script = [
            0.1, 0.75,  # new node 2 -> 1 (x = 3 of 4)
            0.5, 0.125, 0.125,  # source 0, target 0: a self-link, redrawn
            # in-weights 2, 3, 1: x = 5.5 picks node 2, but node 1 if the
            # self-link draw's 1 stayed on node 0 (the link 0 -> 1 exists).
            5.5 / 6.0,
            0.1, 0.5,  # new node 3 -> 1 (x = 3.5 of 7)
        ]
        expected = [[0, 1], [0, 2], [1, 0], [2, 1], [3, 1]]
        assert generate_scripted(monkeypatch, params, script) == expected
        assert cumsum_generate_links(params, iter(script)) == expected

    @pytest.mark.parametrize("discarded", ["parallel", "self-link"])
    def test_discarded_step_takes_both_draws_back(self, monkeypatch, discarded):
        # delta = 1: every scaled uniform is exact.
        params = GenParams(0.25, 0.5, 0.25, 1.0, 1.0, 5, 0)
        grow = [0.9, 0.75]  # node 1 -> new node 2 (x = 3 of 4)
        # Source node 0 (x = 0.75 of 6), then target node 1 (x = 3): the
        # link 0 -> 1 exists; or target node 0 on all 17 draws.
        step = [0.5, 0.125] + ([0.5] if discarded == "parallel" else [0.125] * 17)
        probe = [
            # in-weights 2, 2, 2: x = 4.5 picks node 2, but node 1 or 0
            # if the discarded target's 1 stayed.
            0.1, 0.75,
            # out-weights 2, 3, 1, 2: x = 2.5 picks node 1, but node 0 if
            # the discarded source's 1 stayed.
            0.9, 0.3125,
        ]
        script = grow + step + probe
        expected = [[0, 1], [1, 0], [1, 2], [1, 4], [3, 2]]
        assert generate_scripted(monkeypatch, params, script) == expected
        assert cumsum_generate_links(params, iter(script)) == expected

    def test_augment_sparse(self):
        base = generate(GD0.with_size(400, 9))
        links, fallback = scalar_augment_links(
            base, TYPE3_TARGET_MEAN_DEGREE, 10
        )
        assert fallback == 0
        g = augment_random_links(base, TYPE3_TARGET_MEAN_DEGREE, seed=10)
        assert g.links.tolist() == links

    @pytest.mark.parametrize("block", [2, 7, 150])
    def test_augment_in_small_blocks(self, monkeypatch, block):
        # Misses and draws carry across blocks as across scalar draws.
        monkeypatch.setattr(netgen, "_AUGMENT_BLOCK", block)
        cases = [(400, TYPE3_TARGET_MEAN_DEGREE, 10), (40, 70.0, 0)]
        cases += [(40, 77.5, seed) for seed in range(1, 7)]
        for n, target, seed in cases:
            base = generate(GD0.with_size(n, 9))
            links, _ = scalar_augment_links(base, target, seed)
            assert augment_random_links(base, target, seed).links.tolist() == links

    def test_augment_linkless_graph(self):
        base = DirectedGraph.from_links(6, [])
        for target, seed in ((1.0, 0), (9.5, 1)):
            links, _ = scalar_augment_links(base, target, seed)
            assert augment_random_links(base, target, seed).links.tolist() == links

    def test_augment_dense_fallback(self):
        base = generate(GD0.with_size(40, 3))
        complete = 2.0 * (base.n - 1)
        for target, seed in ((complete, 0), (complete - 0.1, 1)):
            links, fallback = scalar_augment_links(base, target, seed)
            assert fallback > 0
            assert augment_random_links(base, target, seed).links.tolist() == links


def generate_scripted(monkeypatch, params, script):
    """Links of ``generate(params)`` drawing ``script`` as its uniforms, all of them."""
    stream = iter(script)
    monkeypatch.setattr(netgen, "_uniforms", lambda rng: stream)
    links = generate(params).links.tolist()
    assert next(stream, None) is None
    return links


def descend_scripted(monkeypatch, offsets, seed, n_target=70):
    """Grow a graph from scripted uniforms; check every draw; count exact hits.

    Each step is a new lender or a new borrower, chosen at random, and its
    draw's uniform is aimed at a prefix sum, half a unit below one, zero, or
    a random point. The expected pick is ``searchsorted(cumsum(weights), x,
    side="right")`` with x scaled as ``generate`` scales it, so integer and
    dyadic weights make every comparison exact.
    """
    d_in, d_out = offsets
    rng = np.random.default_rng(seed)
    kin, kout = np.zeros(n_target), np.zeros(n_target)
    kin[:2] = kout[:2] = 1.0
    links = [[0, 1], [1, 0]]
    script = []
    on_sum = 0
    for n in range(2, n_target):
        m = len(links)
        lender = bool(rng.random() < 0.5)
        degrees, delta = (kin, d_in) if lender else (kout, d_out)
        cum = np.cumsum(degrees[:n] + delta)
        scale = m + n * delta
        aim = rng.integers(4)
        inner = cum[cum < scale]
        if aim == 0 and inner.size:
            goal = inner[rng.integers(inner.size)]
        elif aim == 1:
            goal = max(cum[rng.integers(n)] - 0.5, 0.0)
        else:
            goal = 0.0 if aim == 2 else rng.random() * scale
        v = float(goal / scale)
        for _ in range(2):
            if v * scale < goal:
                v = float(np.nextafter(v, 1.0))
            elif v * scale > goal:
                v = float(np.nextafter(v, 0.0))
        x = v * scale
        on_sum += bool(x > 0.0 and x in cum)
        pick = min(int(np.searchsorted(cum, x, side="right")), n - 1)
        assert degrees[pick] + delta > 0.0
        script += [0.25 if lender else 0.75, v]
        source, target = (n, pick) if lender else (pick, n)
        links.append([source, target])
        kout[source] += 1.0
        kin[target] += 1.0
    params = GenParams(0.5, 0.0, 0.5, d_in, d_out, n_target, 0)
    assert generate_scripted(monkeypatch, params, script) == sorted(links)
    return on_sum


class TestAugmentRandomLinks:
    def _tiny(self):
        return DirectedGraph.from_links(3, [(0, 1)])

    def test_noop_when_target_met(self):
        g = self._tiny()
        assert augment_random_links(g, g.mean_degree, seed=0) is g

    def test_target_below_current_rejected(self):
        g = self._tiny()
        with pytest.raises(ValueError, match="below current"):
            augment_random_links(g, 0.1, seed=0)

    def test_complete_three_node_digraph(self):
        g = augment_random_links(self._tiny(), 4.0, seed=0)
        assert g.link_count == 6
        assert g.mean_degree == pytest.approx(4.0)

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValueError, match="unreachable"):
            augment_random_links(self._tiny(), 4.5, seed=0)

    @pytest.mark.parametrize("target", [float("inf"), float("nan")])
    def test_non_finite_target_rejected(self, target):
        with pytest.raises(ValueError, match=f"^target mean degree {target} is not finite$"):
            augment_random_links(self._tiny(), target, seed=0)

    def test_reaches_target_within_one_link(self):
        base = generate(GD0.with_size(400, 9))
        g = augment_random_links(base, 7.8, seed=10)
        assert g.mean_degree >= 7.8 - 1e-9
        assert g.mean_degree <= 7.8 + 2.0 / g.n
        assert set(map(tuple, base.links.tolist())) <= set(map(tuple, g.links.tolist()))

    def test_deterministic(self):
        base = generate(GD0.with_size(200, 9))
        a = augment_random_links(base, 6.0, seed=3)
        b = augment_random_links(base, 6.0, seed=3)
        assert np.array_equal(a.links, b.links)


class TestEdgeListRoundTrip:
    def test_round_trip(self, tmp_path):
        g = generate(GC0.with_size(150, 4))
        path = tmp_path / "edges.csv"
        write_edge_list(g, path, seed=4)
        back = read_edge_list(path)
        assert back.n == g.n
        assert np.array_equal(back.links, g.links)
        header = path.read_text().splitlines()[0]
        assert header == "# nodes=150 seed=4"

    def test_golden_bytes(self, tmp_path):
        # Numeric (source, target) order: 2,11 precedes 10,2.
        g = DirectedGraph.from_links(12, [(10, 2), (2, 11), (0, 3), (2, 0)])
        path = tmp_path / "edges.csv"
        write_edge_list(g, path, seed=17)
        assert path.read_bytes() == b"# nodes=12 seed=17\n0,3\n2,0\n2,11\n10,2\n"

    def test_read_without_header_takes_max_id_plus_one(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("0,3\n\n2,5\n   \n5,0\n")
        g = read_edge_list(path)
        assert g.n == 6
        assert g.links.tolist() == [[0, 3], [2, 5], [5, 0]]

    def test_read_loads_no_masked_arrays(self, tmp_path):
        # np.unique would import numpy.ma; the sort-based unique does not.
        path = tmp_path / "edges.csv"
        path.write_text("# nodes=4 seed=0\n3,1\n0,2\n3,1\n0,1\n")
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys\n"
            "from contagion.netgen import read_edge_list\n"
            f"print(read_edge_list({str(path)!r}).links.tolist())\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=os.environ | {"PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[[0, 1], [0, 2], [3, 1]]\n[]\n"

    def test_rejects_self_link(self):
        with pytest.raises(ValueError, match="self-link"):
            DirectedGraph.from_links(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            DirectedGraph.from_links(2, [(0, 5)])

    @pytest.mark.parametrize(
        "links,message",
        [
            ([(0, 1), (0, 5), (1, 1)], r"link \(0, 5\) outside node range \[0, 3\)"),
            ([(0, 1), (2, 2), (-1, 0)], r"self-link at node 2"),
            ([(4, 4), (0, 1)], r"self-link at node 4"),
            ([(0, 1, 2)], r"\(source, target\) pairs"),
        ],
    )
    def test_names_first_offender(self, links, message):
        with pytest.raises(ValueError, match=message):
            DirectedGraph.from_links(3, links)
