"""Incremental hop-limited estimator against oracles and closed forms.

Expected values on the chain graph were computed with the live-edge
enumeration oracle (4 equally likely edge outcomes for the cascade model,
4 in-edge-choice outcomes for the threshold model) and are frozen here; the
same oracle is also invoked directly in the cross-check tests.
"""

import numpy as np
import pytest

from conftest import (
    lt_admissible,
    random_graph_with_cycles,
    random_ic_graph,
    random_lt_graph,
    reference_activation,
)
from hopspread import hop_estimator
from hopspread.bounds import upper_bounds
from hopspread.graph import Graph, GraphError
from hopspread.hop_estimator import BOUND_SLACK, StaleReportError, commit, eval_gain, gain_bound, init_state, spread
from hopspread.oracle import exact_spread


class TestChainExamples:
    def test_ic_one_hop_gain(self, chain_graph):
        s = init_state(chain_graph, "ic", 1)
        assert eval_gain(s, 0).gain == pytest.approx(1.5, abs=1e-12)

    def test_ic_two_hop_gain(self, chain_graph):
        s = init_state(chain_graph, "ic", 2)
        assert eval_gain(s, 0).gain == pytest.approx(1.75, abs=1e-12)

    def test_ic_two_hop_gain_after_first_seed(self, chain_graph):
        s = init_state(chain_graph, "ic", 2)
        commit(s, eval_gain(s, 0))
        assert spread(s) == pytest.approx(1.75, abs=1e-12)
        assert np.allclose(s.activation(), [1.0, 0.5, 0.25])
        r = eval_gain(s, 1)
        assert r.gain == pytest.approx(0.75, abs=1e-12)
        commit(s, r)
        assert spread(s) == pytest.approx(2.5, abs=1e-12)
        assert np.allclose(s.activation(), [1.0, 1.0, 0.5])

    def test_lt_two_hop_gain(self, chain_graph):
        s = init_state(chain_graph, "lt", 2)
        assert eval_gain(s, 0).gain == pytest.approx(1.75, abs=1e-12)

    def test_isolated_node_gain_is_one(self):
        g = Graph(4, [0], [1], [0.5])
        for model in ("ic", "lt"):
            for hops in (1, 2):
                s = init_state(g, model, hops)
                assert eval_gain(s, 3).gain == pytest.approx(1.0, abs=1e-12)


class TestStateContracts:
    def test_init_empty(self, chain_graph):
        s = init_state(chain_graph, "ic", 2)
        assert spread(s) == 0.0
        assert np.allclose(s.q1, 1.0) and np.allclose(s.q2, 1.0)

    def test_empty_graph_state(self):
        from hopspread.graph import load_edge_list

        s = init_state(load_edge_list(b""), "ic", 2)
        assert spread(s) == 0.0

    def test_bad_model_and_hops(self, chain_graph):
        with pytest.raises(ValueError):
            init_state(chain_graph, "sir", 1)
        with pytest.raises(ValueError):
            init_state(chain_graph, "ic", 3)

    def test_lt_requires_admissible_weights(self):
        g = Graph(3, [0, 1], [2, 2], [0.7, 0.7])
        with pytest.raises(GraphError):
            init_state(g, "lt", 1)

    def test_eval_rejects_seed(self, chain_graph):
        s = init_state(chain_graph, "ic", 2)
        commit(s, eval_gain(s, 0))
        with pytest.raises(ValueError, match="already a seed"):
            eval_gain(s, 0)

    def test_commit_rejects_stale_report(self, chain_graph):
        s = init_state(chain_graph, "ic", 2)
        r1 = eval_gain(s, 1)
        commit(s, eval_gain(s, 0))
        with pytest.raises(StaleReportError):
            commit(s, r1)

    def test_eval_is_read_only(self, chain_graph, monkeypatch):
        s = init_state(chain_graph, "ic", 2)
        q1, q2 = s.q1.copy(), s.q2.copy()
        eval_gain(s, 0)
        assert np.array_equal(s.q1, q1) and np.array_equal(s.q2, q2)
        assert spread(s) == 0.0

        def snapshot(state):
            q2 = None if state.q2 is None else state.q2.copy()
            x1 = None if state.x1 is None else state.x1.copy()
            return state.q1.copy(), q2, x1, state.seed_mask.copy(), state.sigma, state.version

        def assert_unchanged(state, snap):
            q1, q2, x1, mask, sigma, version = snap
            assert np.array_equal(state.q1, q1) and np.array_equal(state.seed_mask, mask)
            assert q2 is None if state.q2 is None else np.array_equal(state.q2, q2)
            assert x1 is None if state.x1 is None else np.array_equal(state.x1, x1)
            assert state.sigma == sigma and state.version == version

        def failing_reduction(*args):
            raise RuntimeError("injected")

        rng = np.random.default_rng(31)
        g = random_graph_with_cycles(rng, n=40)
        for model in ("ic", "lt"):
            graph = g if model == "ic" else lt_admissible(g)
            for hops in (1, 2):
                s = init_state(graph, model, hops)
                for u in rng.permutation(40)[:6]:
                    commit(s, eval_gain(s, int(u)))
                snap = snapshot(s)
                for v in np.flatnonzero(~s.seed_mask):
                    eval_gain(s, int(v))
                assert_unchanged(s, snap)
                for bad in (s.seeds[0], -1, 40):
                    with pytest.raises(ValueError):
                        eval_gain(s, bad)
                if hops == 2:
                    with monkeypatch.context() as mp:
                        mp.setattr(hop_estimator, "_survival", failing_reduction)
                        for v in np.flatnonzero(~s.seed_mask):
                            with pytest.raises(RuntimeError, match="injected"):
                                eval_gain(s, int(v))
                assert_unchanged(s, snap)

    def test_commit_rejects_report_of_other_hop_count_and_model(self, chain_graph):
        one_hop = init_state(chain_graph, "ic", 1)
        two_hop = init_state(chain_graph, "lt", 2)
        with pytest.raises(StaleReportError, match="another state"):
            commit(two_hop, eval_gain(one_hop, 0))
        assert np.array_equal(two_hop.q2, np.ones(3)) and spread(two_hop) == 0.0

    def test_commit_rejects_report_of_other_graph(self):
        a = init_state(Graph(3, [0, 1], [1, 2], [0.5, 0.5]), "ic", 2)
        b = init_state(Graph(3, [0, 1], [1, 2], [0.9, 0.9]), "ic", 2)
        with pytest.raises(StaleReportError, match="another state"):
            commit(b, eval_gain(a, 0))
        commit(b, eval_gain(b, 0))
        assert spread(b) == pytest.approx(2.71, abs=1e-12)

    def test_all_seeded_spread_equals_node_count(self, chain_graph):
        for model in ("ic", "lt"):
            s = init_state(chain_graph, model, 2)
            for u in range(3):
                commit(s, eval_gain(s, u))
            assert spread(s) == pytest.approx(3.0, abs=1e-9)


class TestAgainstOracle:
    @pytest.mark.parametrize("model", ["ic", "lt"])
    @pytest.mark.parametrize("hops", [1, 2])
    def test_spread_matches_enumeration(self, model, hops):
        rng = np.random.default_rng(202)
        # The second pass adds weight-1 edges and 2-cycles (saturated nodes under LT).
        for p_one_frac in (0.0, 0.15):
            for _ in range(60):
                if model == "ic":
                    g = random_ic_graph(rng, n_max=7, m_max=10, p_one_frac=p_one_frac)
                else:
                    g = random_lt_graph(rng, n_max=6, m_max=8, p_one_frac=p_one_frac)
                k = int(rng.integers(1, g.node_count + 1))
                seeds = rng.choice(g.node_count, size=k, replace=False)
                s = init_state(g, model, hops)
                for u in seeds:
                    commit(s, eval_gain(s, int(u)))
                assert spread(s) == pytest.approx(exact_spread(g, seeds, model, hops), abs=1e-9)


class TestClosedFormEquivalence:
    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_incremental_matches_direct_recompute(self, model):
        rng = np.random.default_rng(77)
        for _ in range(15):
            if model == "ic":
                g = random_graph_with_cycles(rng, n=int(rng.integers(20, 120)))
            else:
                g = random_lt_graph(rng, n_max=40, m_max=120, n_min=10)
            order = rng.permutation(g.node_count)[: int(rng.integers(1, g.node_count))]
            s = init_state(g, model, 2)
            for u in order:
                commit(s, eval_gain(s, int(u)))
            assert np.abs((1.0 - s.q1) - reference_activation(g, order, 1, model)).max() < 1e-9
            assert np.abs((1.0 - s.q2) - reference_activation(g, order, 2, model)).max() < 1e-9

    def test_order_independence(self):
        rng = np.random.default_rng(88)
        for _ in range(10):
            g = random_graph_with_cycles(rng, n=30)
            seeds = rng.permutation(30)[:10]
            states = []
            for perm_seed in (1, 2):
                order = np.random.default_rng(perm_seed).permutation(seeds)
                s = init_state(g, "ic", 2)
                for u in order:
                    commit(s, eval_gain(s, int(u)))
                states.append(s)
            assert np.abs(states[0].q1 - states[1].q1).max() < 1e-9
            assert np.abs(states[0].q2 - states[1].q2).max() < 1e-9


class TestInvariants:
    def test_two_hops_dominate_one_hop(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            g = random_graph_with_cycles(rng, n=25)
            s = init_state(g, "ic", 2)
            for u in rng.permutation(25)[:8]:
                commit(s, eval_gain(s, int(u)))
                assert (s.q2 <= s.q1 + 1e-9).all()

    def test_gain_nonnegative_and_submodular(self):
        rng = np.random.default_rng(123)
        for model in ("ic", "lt"):
            for hops in (1, 2):
                for _ in range(25):
                    g = random_ic_graph(rng, n_max=10, m_max=16) if model == "ic" else random_lt_graph(rng, n_max=8, m_max=12)
                    n = g.node_count
                    t_size = int(rng.integers(1, n))
                    t_set = rng.permutation(n)[:t_size]
                    s_size = int(rng.integers(0, t_size))
                    rest = [v for v in range(n) if v not in set(t_set.tolist())]
                    if not rest:
                        continue
                    u = int(rng.choice(rest))
                    state = init_state(g, model, hops)
                    for v in t_set[:s_size]:
                        commit(state, eval_gain(state, int(v)))
                    gain_small = eval_gain(state, u).gain
                    for v in t_set[s_size:]:
                        commit(state, eval_gain(state, int(v)))
                    gain_large = eval_gain(state, u).gain
                    assert gain_small >= 0.0 and gain_large >= 0.0
                    assert gain_small >= gain_large - 1e-9

    def test_lt_one_hop_additivity(self):
        rng = np.random.default_rng(321)
        for _ in range(20):
            g = random_lt_graph(rng, n_max=8, m_max=12)
            s = init_state(g, "lt", 1)
            first = int(rng.integers(0, g.node_count))
            commit(s, eval_gain(s, first))
            u = int(rng.choice([v for v in range(g.node_count) if v != first]))
            before = 1.0 - s.q1.copy()
            commit(s, eval_gain(s, u))
            after = 1.0 - s.q1
            nbrs, bs = g.out_edges(u)
            for v, b in zip(nbrs, bs):
                if int(v) != first:
                    assert after[v] - before[v] == pytest.approx(b, abs=1e-12)

    def test_sigma_tracks_survival_sum(self):
        rng = np.random.default_rng(55)
        g = random_graph_with_cycles(rng, n=40)
        s = init_state(g, "ic", 2)
        for u in rng.permutation(40)[:20]:
            commit(s, eval_gain(s, int(u)))
            assert abs(spread(s) - (1.0 - s.q2).sum()) < 1e-6 * g.node_count


class TestDivisionGuard:
    def test_probability_one_chain(self):
        g = Graph(4, [0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0])
        s = init_state(g, "ic", 2)
        commit(s, eval_gain(s, 0))
        assert np.allclose(s.activation(), [1.0, 1.0, 1.0, 0.0])
        r = eval_gain(s, 1)
        assert r.gain == pytest.approx(1.0, abs=1e-12)
        commit(s, r)
        assert np.allclose(s.activation(), [1.0, 1.0, 1.0, 1.0])

    def test_saturated_two_cycle(self):
        g = Graph(3, [0, 1, 1, 2], [1, 0, 2, 1], [1.0, 1.0, 1.0, 1.0])
        s = init_state(g, "ic", 2)
        commit(s, eval_gain(s, 0))
        commit(s, eval_gain(s, 1))
        ref = reference_activation(g, [0, 1], 2, "ic")
        assert np.abs(s.activation() - ref).max() < 1e-12


class TestLocalRecomputation:
    """Every report against the seed-set reference, on hostile cyclic graphs."""

    @pytest.mark.parametrize("model", ["ic", "lt"])
    @pytest.mark.parametrize("hops", [1, 2])
    def test_reports_match_reference(self, model, hops):
        rng = np.random.default_rng(404)
        for _ in range(4):
            g = random_graph_with_cycles(rng, n=int(rng.integers(15, 40)))
            if model == "lt":
                g = lt_admissible(g)
            n = g.node_count
            for k in (0, 1, 3, n // 3, n - 2):
                seeds = [int(v) for v in rng.permutation(n)[:k]]
                s = init_state(g, model, hops)
                for v in seeds:
                    commit(s, eval_gain(s, v))
                before = reference_activation(g, seeds, hops, model)
                for u in np.flatnonzero(~s.seed_mask):
                    r = eval_gain(s, int(u))
                    after1 = reference_activation(g, seeds + [int(u)], 1, model)
                    assert r.q1_nodes[0] == u
                    assert r.q2_nodes is None if hops == 1 else r.q2_nodes[0] == u
                    assert np.abs((1.0 - r.q1_values) - after1[r.q1_nodes]).max() < 1e-12
                    nodes, values = (r.q1_nodes, r.q1_values) if hops == 1 else (r.q2_nodes, r.q2_values)
                    after = after1 if hops == 1 else reference_activation(g, seeds + [int(u)], 2, model)
                    assert np.abs((1.0 - values) - after[nodes]).max() < 1e-12
                    changed = np.flatnonzero(after != before)
                    assert np.isin(changed, nodes).all()
                    assert r.gain == pytest.approx(after.sum() - before.sum(), abs=1e-12)


class TestStateIsItsSeedSet:
    """The state is a pure function of its seed set: probes never write, commits never drift."""

    @pytest.mark.parametrize("model", ["ic", "lt"])
    @pytest.mark.parametrize("hops", [1, 2])
    def test_eval_gain_writes_nothing(self, model, hops):
        rng = np.random.default_rng(31)
        g = random_graph_with_cycles(rng, n=60)
        if model == "lt":
            g = lt_admissible(g)
        s = init_state(g, model, hops)
        for v in rng.permutation(g.node_count)[:20]:
            commit(s, eval_gain(s, int(v)))
        for arr in (s.q1, s.q2, s.x1, s.seed_mask):
            if arr is not None:
                arr.flags.writeable = False
        sigma, version = s.sigma, s.version
        for u in np.flatnonzero(~s.seed_mask):
            eval_gain(s, int(u))
            if hops == 2:
                gain_bound(s, int(u))
        assert (s.sigma, s.version, len(s.seeds)) == (sigma, version, 20)

    @pytest.mark.parametrize("model", ["ic", "lt"])
    @pytest.mark.parametrize("hops", [1, 2])
    def test_no_drift_over_long_seed_sequences(self, model, hops):
        rng = np.random.default_rng(8)
        g = random_graph_with_cycles(rng, n=320)
        if model == "lt":
            g = lt_admissible(g)
        n = g.node_count
        s = init_state(g, model, hops)
        order = [int(v) for v in rng.permutation(n)[: n // 2]]
        for i, u in enumerate(order):
            commit(s, eval_gain(s, u))
            ref = reference_activation(g, order[: i + 1], hops, model)
            assert np.abs(s.activation() - ref).max() < 1e-12
            assert abs(spread(s) - ref.sum()) < 1e-12 * n
            if hops == 2:
                # The per-edge transmission is the closed form of q1, bit for bit.
                x1 = np.empty(g.edge_count)
                x1[g.out_to_in] = g.out_prob * (1.0 - s.q1[np.repeat(np.arange(n), g.out_degrees())])
                assert s.x1.tobytes() == x1.tobytes()


class TestGainBound:
    """`gain_bound` dominates the two-hop gain at every seed set."""

    @staticmethod
    def graphs(rng):
        for _ in range(12):
            yield "ic", random_ic_graph(rng, n_max=25, m_max=60, n_min=5, p_one_frac=0.2)
            yield "lt", random_lt_graph(rng, n_max=25, m_max=60, n_min=5, p_one_frac=0.2)
        for n in (30, 60):
            g = random_graph_with_cycles(rng, n=n)
            yield "ic", g
            yield "lt", lt_admissible(g)

    def test_bound_dominates_gain_after_every_commit(self):
        rng = np.random.default_rng(77)
        sinks = 0
        for model, g in self.graphs(rng):
            sinks += int((g.out_degrees() == 0).sum())
            s = init_state(g, model, 2)
            for v in rng.permutation(g.node_count)[: g.node_count - 1]:
                commit(s, eval_gain(s, int(v)))
                for u in np.flatnonzero(~s.seed_mask):
                    assert eval_gain(s, int(u)).gain <= gain_bound(s, int(u))
        assert sinks > 0

    def test_empty_seed_set_bound_is_upper_bounds(self):
        rng = np.random.default_rng(78)
        for model, g in self.graphs(rng):
            s = init_state(g, model, 2)
            bound = np.array([gain_bound(s, u) for u in range(g.node_count)])
            # At S = {} every bound is at least 1, so the slack is BOUND_SLACK * bound.
            np.testing.assert_allclose(bound / (1.0 + BOUND_SLACK), upper_bounds(g, 2).values, rtol=1e-12, atol=0)

    def test_rejects_seed_and_out_of_range(self, chain_graph):
        s = init_state(chain_graph, "ic", 2)
        commit(s, eval_gain(s, 0))
        for bad in (0, -1, 3):
            with pytest.raises(ValueError):
                gain_bound(s, bad)
