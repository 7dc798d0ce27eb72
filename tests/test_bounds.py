"""Single-seed upper bounds: frozen values, dominance, and tree tightness."""

import time

import numpy as np
import pytest

from conftest import random_ic_graph, random_lt_graph
from hopspread import bounds
from hopspread._segments import segment_sum
from hopspread.bounds import upper_bounds
from hopspread.generate import power_law_graph
from hopspread.graph import Graph, WeightModel, apply_weight_model
from hopspread.hop_estimator import eval_gain, init_state
from hopspread.oracle import exact_spread
from hopspread.selection import greedy_celf


class TestChainValues:
    def test_one_hop_exact(self, chain_graph):
        ub = upper_bounds(chain_graph, 1)
        assert np.allclose(ub, [1.5, 1.5, 1.0])

    def test_two_hop_recursion(self, chain_graph):
        ub = upper_bounds(chain_graph, 2)
        assert np.allclose(ub, [1.75, 1.5, 1.0])

    def test_isolated_node_is_one(self):
        g = Graph(3, [0], [1], [0.4])
        for h in (1, 2):
            assert upper_bounds(g, h)[2] == 1.0

    def test_levels_equal_the_all_ones_recursion(self):
        # Level 1 sums out_prob itself; a product with an all-ones gather is
        # the same bits.
        rng = np.random.default_rng(64)
        for _ in range(20):
            g = random_ic_graph(rng, n_max=40, m_max=150, n_min=2)
            values = np.ones(g.node_count)
            for h in (1, 2, 3):
                values = 1.0 + segment_sum(g.out_prob * values[g.out_dst], g.out_indptr)
                assert np.array_equal(upper_bounds(g, h), values)


class TestLevelCap:
    # At most n levels run: a shortest live path has at most n - 1 edges, so
    # the h-hop spread is constant from h = n - 1 on, and the recursion does
    # not fall with h.
    def test_levels_up_to_n_equal_the_plain_recursion(self):
        rng = np.random.default_rng(65)
        for _ in range(20):
            g = random_ic_graph(rng, n_max=12, m_max=60, p_one_frac=0.2)
            n = g.node_count
            values = np.ones(n)
            for h in range(1, n + 1):
                values = 1.0 + segment_sum(g.out_prob * values[g.out_dst], g.out_indptr)
                assert np.array_equal(upper_bounds(g, h), values)
            for h in (n + 1, 2 * n, 50):
                assert np.array_equal(upper_bounds(g, h), values)

    def test_capped_bound_dominates_exact_spread(self):
        rng = np.random.default_rng(66)
        cycle = Graph(3, [0, 1, 2], [1, 2, 0], [1.0] * 3)
        path = Graph(4, [0, 1, 2], [1, 2, 3], [1.0] * 3)
        cases = [("ic", cycle), ("lt", cycle), ("ic", path), ("lt", path)]
        for _ in range(8):
            cases.append(("ic", random_ic_graph(rng, n_max=5, m_max=8, p_one_frac=0.3)))
            cases.append(("lt", random_lt_graph(rng, n_max=5, m_max=8, p_one_frac=0.3)))
        for model, g in cases:
            n = g.node_count
            for h in (n, n + 1, 2 * n, 50):
                ub = upper_bounds(g, h)
                for v in range(n):
                    assert ub[v] >= exact_spread(g, [v], model=model, hop_limit=h) - 1e-9

    def test_huge_hop_count_runs_n_levels(self, monkeypatch):
        g = Graph(3, [0, 1], [1, 2], [0.5, 0.5])
        expected = upper_bounds(g, 3)
        levels = []

        def counted(values, indptr):
            levels.append(1)
            assert len(levels) <= g.node_count, "more levels than nodes"
            return segment_sum(values, indptr)

        monkeypatch.setattr(bounds, "segment_sum", counted)
        t0 = time.perf_counter()
        ub = upper_bounds(g, 100_000_000)
        assert time.perf_counter() - t0 < 1.0 and len(levels) == 3
        assert np.array_equal(ub, expected)


class TestDominance:
    def test_one_hop_bound_is_exact_spread(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            g = random_ic_graph(rng, n_max=25, m_max=80)
            ub = upper_bounds(g, 1)
            state = init_state(g, "ic", 1)
            for v in range(g.node_count):
                assert abs(ub[v] - eval_gain(state, v).gain) < 1e-12

    def test_two_hop_bound_dominates(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            g = random_ic_graph(rng, n_max=25, m_max=80, p_one_frac=0.2)
            ub = upper_bounds(g, 2)
            state = init_state(g, "ic", 2)
            for v in range(g.node_count):
                assert ub[v] >= eval_gain(state, v).gain - 1e-9

    def test_values_at_least_one(self):
        rng = np.random.default_rng(33)
        g = random_ic_graph(rng, n_max=30, m_max=90)
        for h in (1, 2):
            assert (upper_bounds(g, h) >= 1.0).all()


class TestTreeTightness:
    def test_bound_exact_on_out_trees(self):
        rng = np.random.default_rng(34)
        for _ in range(15):
            n = int(rng.integers(3, 20))
            parents = [int(rng.integers(0, v)) for v in range(1, n)]
            src = np.array(parents)
            dst = np.arange(1, n)
            g = Graph(n, src, dst, rng.random(n - 1))
            ub = upper_bounds(g, 2)
            state = init_state(g, "ic", 2)
            for v in range(n):
                assert abs(ub[v] - eval_gain(state, v).gain) < 1e-9


class TestCalls:
    def test_mutating_returned_bounds_leaves_selection_unchanged(self):
        g = apply_weight_model(power_law_graph(2000, 10000, rng_seed=3), WeightModel("wc"))
        before = greedy_celf(g, 5)
        upper_bounds(g, 2)[0] = 0.0
        after = greedy_celf(g, 5)
        assert (after.seeds, after.spread) == (before.seeds, before.spread)

    def test_negative_hops_rejected(self, chain_graph):
        with pytest.raises(ValueError):
            upper_bounds(chain_graph, -1)
