"""Simulation and enumeration oracles: trivial cases, self-consistency."""

import numpy as np
import pytest

from conftest import random_ic_graph, random_lt_graph
from hopspread import oracle
from hopspread.generate import power_law_graph
from hopspread.graph import Graph, GraphError, WeightModel, apply_weight_model
from hopspread.oracle import (
    ExactSpreadTable,
    brute_force_optimal,
    estimate_hop_profile,
    estimate_spread,
    exact_spread,
    simulate_once,
)


def certain_chain():
    return Graph(3, [0, 1], [1, 2], [1.0, 1.0])


class TestSimulateOnce:
    def test_certain_chain_full(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            assert simulate_once(certain_chain(), [0], "ic", None, rng) == 3

    def test_certain_chain_hop_limited(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            assert simulate_once(certain_chain(), [0], "ic", 1, rng) == 2

    def test_zero_probability_stays_at_seeds(self):
        g = Graph(4, [0, 1, 2], [1, 2, 3], [0.0, 0.0, 0.0])
        rng = np.random.default_rng(2)
        assert simulate_once(g, [0, 2], "ic", None, rng) == 2
        assert simulate_once(g, [0, 2], "lt", None, rng) == 2

    def test_lt_certain_chain(self):
        rng = np.random.default_rng(3)
        assert simulate_once(certain_chain(), [0], "lt", None, rng) == 3
        assert simulate_once(certain_chain(), [0], "lt", 1, rng) == 2

    def test_invalid_seed(self):
        with pytest.raises(GraphError):
            simulate_once(certain_chain(), [99], "ic")

    def test_invalid_seed_message_names_the_bad_id(self):
        with pytest.raises(GraphError, match="invalid seed id -1$"):
            simulate_once(certain_chain(), [-1, 2], "ic")

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            simulate_once(certain_chain(), [0], "sir")


class TestEstimateSpread:
    def test_reproducible_for_fixed_seed(self, chain_graph):
        a = estimate_spread(chain_graph, [0], "ic", None, 500, rng_seed=5)
        b = estimate_spread(chain_graph, [0], "ic", None, 500, rng_seed=5)
        assert a == b

    def test_workers_do_not_change_result(self, chain_graph):
        a = estimate_spread(chain_graph, [0], "ic", None, 400, rng_seed=5, workers=1)
        b = estimate_spread(chain_graph, [0], "ic", None, 400, rng_seed=5, workers=2)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_all_nodes_seeded(self, chain_graph):
        est = estimate_spread(chain_graph, [0, 1, 2], "ic", None, 50, rng_seed=1)
        assert est.mean == 3.0 and est.std_error == 0.0

    def test_single_simulation_has_zero_std_error(self, chain_graph):
        est = estimate_spread(chain_graph, [0], "ic", None, 1, rng_seed=1)
        assert est.simulations == 1 and est.std_error == 0.0

    def test_mean_near_exact(self, chain_graph):
        est = estimate_spread(chain_graph, [0], "ic", None, 10000, rng_seed=9)
        assert abs(est.mean - 1.75) <= 4.0 * est.std_error

    def test_nsims_validation(self, chain_graph):
        with pytest.raises(ValueError):
            estimate_spread(chain_graph, [0], n_sims=0)
        with pytest.raises(ValueError, match="hop_limit"):
            estimate_spread(chain_graph, [0], hop_limit=-1, n_sims=10)

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: estimate_spread(g, [0], hop_limit=-1, n_sims=10),
            lambda g: simulate_once(g, [0], "ic", -1, np.random.default_rng(0)),
            lambda g: exact_spread(g, [0], "ic", -1),
            lambda g: ExactSpreadTable(g, "lt", hop_limit=-1),
            lambda g: brute_force_optimal(g, 1, "ic", hop_limit=-1),
        ],
        ids=["estimate_spread", "simulate_once", "exact_spread", "ExactSpreadTable", "brute_force_optimal"],
    )
    def test_negative_hop_limit_rejected(self, call):
        with pytest.raises(ValueError, match=r"^hop_limit must be >= 0, got -1$"):
            call(certain_chain())

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_sort_dedup_matches_np_unique(self, model, monkeypatch):
        # The cascades' sort-based dedup must keep frontiers, hence RNG draws
        # and estimates, bit-identical to deduplicating with np.unique.
        g = apply_weight_model(power_law_graph(2000, 10000, rng_seed=5), WeightModel("wc"))
        seeds = [0, 1, 2, 7]

        def run():
            return [
                estimate_spread(g, seeds, model, None, 30, rng_seed=11),
                estimate_spread(g, seeds, model, 2, 30, rng_seed=12),
                [m.tolist() for m in estimate_hop_profile(g, seeds, model, n_sims=30, rng_seed=13)],
            ]

        fast = run()
        monkeypatch.setattr(oracle, "sorted_unique", np.unique)
        assert run() == fast


class TestHopProfile:
    def test_cumulative_and_monotone(self):
        g = certain_chain()
        means, ses = estimate_hop_profile(g, [0], "ic", n_sims=20, rng_seed=4)
        assert means[0] == 1.0
        assert (np.diff(means) >= 0).all()
        assert means[-1] == 3.0

    def test_rejects_unknown_model_and_no_sims(self, chain_graph):
        with pytest.raises(ValueError, match="unknown diffusion model"):
            estimate_hop_profile(chain_graph, [0], "sir", n_sims=5)
        with pytest.raises(ValueError, match="n_sims"):
            estimate_hop_profile(chain_graph, [0], "ic", n_sims=0)


class TestExactSpread:
    def test_chain_values(self, chain_graph):
        assert exact_spread(chain_graph, [0], "ic", 2) == pytest.approx(1.75, abs=1e-12)
        assert exact_spread(chain_graph, [0], "ic", 1) == pytest.approx(1.5, abs=1e-12)
        assert exact_spread(chain_graph, [0], "ic", None) == pytest.approx(1.75, abs=1e-12)

    def test_empty_seed_set(self, chain_graph):
        assert exact_spread(chain_graph, [], "ic") == 0.0

    def test_hop_monotonicity(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            g = random_ic_graph(rng, n_max=6, m_max=10)
            seeds = [int(rng.integers(0, g.node_count))]
            s1 = exact_spread(g, seeds, "ic", 1)
            s2 = exact_spread(g, seeds, "ic", 2)
            sinf = exact_spread(g, seeds, "ic", None)
            assert s1 <= s2 + 1e-12 <= sinf + 2e-12

    def test_ic_edge_limit(self):
        n = 24
        g = Graph(n, list(range(23)), list(range(1, 24)), [0.5] * 23)
        with pytest.raises(ValueError, match="too large"):
            exact_spread(g, [0], "ic")

    def test_lt_matches_threshold_simulation(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            g = random_lt_graph(rng, n_max=5, m_max=7)
            seeds = [int(rng.integers(0, g.node_count))]
            exact = exact_spread(g, seeds, "lt", None)
            est = estimate_spread(g, seeds, "lt", None, 20000, rng_seed=6)
            tol = max(4.0 * est.std_error, 1e-9)
            assert abs(est.mean - exact) <= tol

    def test_lt_rejects_overweight_graph(self):
        g = Graph(3, [0, 1], [2, 2], [0.7, 0.7])
        with pytest.raises(GraphError):
            exact_spread(g, [0], "lt")

    def test_ic_matches_cascade_simulation(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            g = random_ic_graph(rng, n_max=5, m_max=8)
            seeds = rng.choice(g.node_count, size=min(2, g.node_count), replace=False)
            exact = exact_spread(g, seeds, "ic", None)
            est = estimate_spread(g, seeds, "ic", None, 20000, rng_seed=7)
            tol = max(4.0 * est.std_error, 1e-9)
            assert abs(est.mean - exact) <= tol


class TestSpreadTable:
    @pytest.mark.parametrize("model", ["ic", "lt"])
    @pytest.mark.parametrize("hop_limit", [1, 2, None])
    def test_matches_direct_enumeration(self, model, hop_limit):
        rng = np.random.default_rng(24)
        for _ in range(10):
            g = random_ic_graph(rng, n_max=5, m_max=8) if model == "ic" else random_lt_graph(rng, n_max=5, m_max=7)
            table = ExactSpreadTable(g, model=model, hop_limit=hop_limit)
            for _ in range(5):
                k = int(rng.integers(1, g.node_count + 1))
                seeds = rng.choice(g.node_count, size=k, replace=False)
                assert table.spread(seeds) == pytest.approx(
                    exact_spread(g, seeds, model, hop_limit), abs=1e-9
                )

    def test_empty_seed_set_is_zero(self, chain_graph):
        assert ExactSpreadTable(chain_graph, "ic", None).spread([]) == 0.0

    def test_invalid_seeds_are_graph_errors(self, chain_graph):
        table = ExactSpreadTable(chain_graph, "ic", None)
        for seeds, bad in (([3], 3), ([-1], -1), ([0, 5], 5)):
            with pytest.raises(GraphError, match=f"invalid seed id {bad}$"):
                table.spread(seeds)


class TestBruteForceOptimal:
    def test_two_components(self):
        g = Graph(4, [0, 2], [1, 3], [1.0, 1.0])
        seeds, best = brute_force_optimal(g, 2, "ic", None)
        assert seeds == (0, 2) and best == pytest.approx(4.0, abs=1e-12)

    def test_chain(self, chain_graph):
        seeds, best = brute_force_optimal(chain_graph, 1, "ic", None)
        assert seeds == (0,) and best == pytest.approx(1.75, abs=1e-12)

    def test_k_equals_node_count(self, chain_graph):
        seeds, best = brute_force_optimal(chain_graph, 3, "ic", None)
        assert seeds == (0, 1, 2) and best == pytest.approx(3.0, abs=1e-12)

    def test_lexicographic_tie_break(self):
        # Symmetric pair: {0} and {1} both spread 1; the smaller set wins.
        g = Graph(2, [0], [1], [0.0])
        seeds, _ = brute_force_optimal(g, 1, "ic", None)
        assert seeds == (0,)

    def test_k_out_of_range(self, chain_graph):
        with pytest.raises(ValueError):
            brute_force_optimal(chain_graph, 0)
