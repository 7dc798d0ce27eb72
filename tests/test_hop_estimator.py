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
from hopspread.graph import LT_WEIGHT_TOLERANCE, Graph, GraphError, validate_lt
from hopspread.hop_estimator import (
    BOUND_SLACK,
    HopState,
    StaleReportError,
    commit,
    eval_gain,
    init_state,
    probe_gain,
    spread,
)
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

    # HopState is public, so it checks its own inputs. Node 2 of this graph
    # takes in-weight 1.8, and unchecked threshold math would give node 0 a
    # gain of 2.9 under either model name.
    HEAVY = Graph(3, [0, 1, 0], [1, 2, 2], [0.9] * 3)

    def test_hop_state_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="unknown diffusion model 'sir'"):
            HopState(self.HEAVY, "sir", 2)

    def test_hop_state_rejects_inadmissible_lt_weights(self):
        with pytest.raises(GraphError, match=r"1 nodes exceed unit incoming weight \(first: 2\)"):
            HopState(self.HEAVY, "lt", 2)

    def test_hop_state_rejects_three_hops(self):
        with pytest.raises(ValueError, match="hops must be 1 or 2, got 3"):
            HopState(self.HEAVY, "ic", 3)

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
            return state.q1.copy(), q2, state.seed_mask.copy(), state.sigma, len(state.seeds)

        def assert_unchanged(state, snap):
            q1, q2, mask, sigma, seed_count = snap
            assert np.array_equal(state.q1, q1) and np.array_equal(state.seed_mask, mask)
            assert q2 is None if state.q2 is None else np.array_equal(state.q2, q2)
            assert state.sigma == sigma and len(state.seeds) == seed_count

        def failing_gather(*args):
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
                        mp.setattr(hop_estimator, "gather_rows", failing_gather)
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
                    assert r.gain >= 0.0


def grouped_q2(state, report):
    """Two-hop (q2_nodes, q2_values) of `report` by a Python loop over C's
    out-edges in C-edge order (C = report.q1_nodes, each row in CSR order),
    multiplying (IC) or adding (LT) each target's changes in that order.
    Also returns the number of edges with f_old = 0 and the largest number
    of C's edges into one target."""
    g, s = state.graph, state
    new_q1 = dict(zip(report.q1_nodes.tolist(), report.q1_values.tolist()))
    acc = {}
    group = {}
    zero_f_old = 0
    for c in report.q1_nodes.tolist():
        old, new = float(s.q1[c]), new_q1[c]
        for e in range(int(g.out_indptr[c]), int(g.out_indptr[c + 1])):
            t, p = int(g.out_dst[e]), float(g.out_prob[e])
            group[t] = group.get(t, 0) + 1
            if s.model == "ic":
                f_old = 1.0 - p * (1.0 - old)
                zero_f_old += f_old == 0.0
                change = (1.0 - p * (1.0 - new)) / f_old if f_old > 0.0 else 0.0
                acc[t] = acc[t] * change if t in acc else change
            else:
                change = p * (old - new)
                acc[t] = acc[t] + change if t in acc else change
    u = report.candidate
    targets = sorted(t for t in acc if not s.seed_mask[t] and t != u)
    if s.model == "ic":
        values = [float(s.q2[t]) * acc[t] for t in targets]
    else:
        values = [max(float(s.q2[t]) - acc[t], 0.0) for t in targets]
    return [u] + targets, [0.0] + values, zero_f_old, max(group.values(), default=0)


def hub_graph(rng, n=40):
    """Random digraph with 2-cycles and probability-1 edges, two hub targets
    that most nodes point to, and a few broadcasters whose out-neighbours
    all reach the hubs, so one target collects up to ~20 of C's edges."""
    pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, (3 * n, 2)) if a != b}
    for v in range(2, n):
        pairs.add((v, 1))
        if v % 3:
            pairs.add((v, 0))
    for b in (2, 3, 4):
        pairs.update((b, int(w)) for w in rng.choice(np.arange(5, n), 20, replace=False))
    for a, b in [(5, 6), (6, 5), (7, 8), (8, 7)]:
        pairs.add((a, b))
    chosen = sorted(pairs)
    prob = rng.random(len(chosen))
    prob[rng.random(len(chosen)) < 0.25] = 1.0
    return Graph(n, [a for a, _ in chosen], [b for _, b in chosen], prob)


class TestGroupingOrder:
    """Two-hop q2 values are each target's product or sum in ascending C-edge
    order, bit for bit, whatever order the sort leaves equal targets in."""

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_q2_values_match_ordered_loop(self, model):
        rng = np.random.default_rng(505)
        zero_f_old = 0
        longest = 0
        for _ in range(3):
            g = hub_graph(rng)
            if model == "lt":
                g = lt_admissible(g)
            s = init_state(g, model, 2)
            for seeds in ([], [9, 5], [2, 11, 7, 13]):
                for v in seeds:
                    commit(s, eval_gain(s, v))
                for u in np.flatnonzero(~s.seed_mask).tolist():
                    r = eval_gain(s, u)
                    nodes, values, zeros, group = grouped_q2(s, r)
                    assert r.q2_nodes.tolist() == nodes
                    assert r.q2_values.tolist() == values
                    zero_f_old += zeros
                    longest = max(longest, group)
        # Hubs gather groups long enough for pairwise summation to differ
        # from the ordered loop; IC meets edges with f_old = 0.
        assert longest > 16
        assert model == "lt" or zero_f_old > 0


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
        for arr in (s.q1, s.q2, s.seed_mask):
            if arr is not None:
                arr.flags.writeable = False
        sigma = s.sigma
        for u in np.flatnonzero(~s.seed_mask):
            eval_gain(s, probe_gain(s, int(u)))
        assert (s.sigma, len(s.seeds)) == (sigma, 20)

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


class TestAdversarialDrift:
    """Running q2 updates against the seed-set reference where they are most
    fragile: long products near underflow, factors that are exactly 0, and
    LT in-sums at the admissibility limit."""

    @staticmethod
    def assert_tracks_reference(g, model, seeds):
        """Commit `seeds` one at a time against the reference; return the
        final state and each seed's q1 just before its commit."""
        s = init_state(g, model, 2)
        q1_before = []
        for i, u in enumerate(seeds):
            q1_before.append(s.q1[u])
            commit(s, eval_gain(s, u))
            ref = reference_activation(g, seeds[: i + 1], 2, model)
            assert np.abs(s.activation() - ref).max() < 1e-12
            assert abs(spread(s) - ref.sum()) < 1e-12 * g.node_count
        return s, q1_before

    @staticmethod
    def hub_graph(rng, mids=2000, sources=10, fanout=400):
        """Hub 0 with an in-edge from each of `mids` middle nodes, which the
        sources reach with probability near 1."""
        mid = np.arange(1, mids + 1)
        src = [mid]
        dst = [np.zeros(mids, dtype=np.int64)]
        prob = [rng.uniform(0.3, 0.6, mids)]
        for j in range(sources):
            src.append(np.full(fanout, mids + 1 + j))
            dst.append(rng.choice(mid, size=fanout, replace=False))
            prob.append(rng.uniform(0.9, 1.0, fanout))
        return Graph(mids + 1 + sources, np.concatenate(src), np.concatenate(dst), np.concatenate(prob))

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_hub_with_thousands_of_in_edges(self, model):
        rng = np.random.default_rng(61)
        g = self.hub_graph(rng)
        if model == "lt":
            g = lt_admissible(g)
        n = g.node_count
        seeds = list(range(n - 10, n)) + [int(v) for v in rng.choice(np.arange(1, n - 10), size=10, replace=False)]
        s, _ = self.assert_tracks_reference(g, model, seeds)
        if model == "ic":
            # The hub's two-hop survival has run past the normal range.
            assert s.q2[0] < np.finfo(float).tiny

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_probability_one_chains_and_cycles(self, model):
        rng = np.random.default_rng(62)
        forced = {(u, u + 1) for u in range(11)}  # chain 0 -> ... -> 11
        forced |= {(12 + i, 12 + (i + 1) % 6) for i in range(6)}  # 6-cycle
        forced |= {(18, 19), (19, 18), (11, 12), (17, 0)}
        pairs = set(forced)
        while len(pairs) < len(forced) + 40:
            u, v = (int(x) for x in rng.integers(0, 24, 2))
            if u != v:
                pairs.add((u, v))
        edges = sorted(pairs)
        prob = rng.random(len(edges))
        prob[[e in forced for e in edges]] = 1.0
        g = Graph(24, [u for u, _ in edges], [v for _, v in edges], prob)
        if model == "lt":
            g = lt_admissible(g)
        zero_factors = 0
        for order_seed in range(6):
            seeds = [int(v) for v in np.random.default_rng(order_seed).permutation(24)[:20]]
            _, q1_before = self.assert_tracks_reference(g, model, seeds)
            # A seed already certain to be active with a probability-1 out-edge: f_old = 0.
            zero_factors += sum(q == 0.0 and (g.out_edges(u)[1] == 1.0).any() for u, q in zip(seeds, q1_before))
        assert zero_factors > 0

    def test_lt_in_sums_at_the_admissibility_limit(self):
        rng = np.random.default_rng(63)
        g = random_graph_with_cycles(rng, n=80, p_one_frac=0.0)
        limit = 1.0 + LT_WEIGHT_TOLERANCE
        dst = g.out_dst
        p = g.out_prob / np.bincount(dst, weights=g.out_prob, minlength=g.node_count)[dst] * limit
        # Each node's last in-edge (highest source) takes the remainder, so
        # the in-sum bincount adds up lands on the limit exactly.
        last = np.zeros(g.node_count, dtype=np.int64)
        last[dst] = np.arange(g.edge_count)
        head = np.ones(g.edge_count, dtype=bool)
        head[last[np.bincount(dst, minlength=g.node_count) > 0]] = False
        rest = np.bincount(dst[head], weights=p[head], minlength=g.node_count)
        p[~head] = limit - rest[dst[~head]]
        g = g._with_probs(p)
        sums = np.bincount(dst, weights=p, minlength=g.node_count)
        assert validate_lt(g) == [] and (sums == limit).sum() > g.node_count // 2
        for order_seed in range(3):
            seeds = [int(v) for v in np.random.default_rng(order_seed).permutation(g.node_count)[:40]]
            self.assert_tracks_reference(g, "lt", seeds)


class TestProbe:
    """`probe_gain` bounds the gain from above, and `eval_gain` finishes a
    probe into the report it would give a node."""

    @staticmethod
    def graphs(rng):
        """IC and LT graphs with sinks, p = 1 edges and 2-cycles."""
        for _ in range(12):
            yield "ic", random_ic_graph(rng, n_max=25, m_max=60, n_min=5, p_one_frac=0.2)
            yield "lt", random_lt_graph(rng, n_max=25, m_max=60, n_min=5, p_one_frac=0.2)
        for n in (30, 60):
            g = random_graph_with_cycles(rng, n=n)
            yield "ic", g
            yield "lt", lt_admissible(g)

    @staticmethod
    def states(rng, hops=2):
        """IC and LT states on graphs with p = 1 edges and 2-cycles, at
        several seed-set sizes."""
        for n in (30, 60):
            g = random_graph_with_cycles(rng, n=n)
            for model, graph in (("ic", g), ("lt", lt_admissible(g))):
                order = [int(v) for v in rng.permutation(n)]
                for size in (0, 1, 3, n // 4, n // 2, n - 2):
                    s = init_state(graph, model, hops)
                    for v in order[:size]:
                        commit(s, eval_gain(s, v))
                    yield s

    def test_bound_dominates_gain_after_every_commit(self):
        rng = np.random.default_rng(77)
        sinks = 0
        for model, g in self.graphs(rng):
            sinks += int((g.out_degrees() == 0).sum())
            s = init_state(g, model, 2)
            src = np.repeat(np.arange(g.node_count), g.out_degrees())
            for v in rng.permutation(g.node_count)[: g.node_count - 1]:
                commit(s, eval_gain(s, int(v)))
                for u in np.flatnonzero(~s.seed_mask):
                    assert eval_gain(s, int(u)).gain <= probe_gain(s, int(u)).bound
                if model == "ic":
                    # The premise of the f_old = 0 case in probes and
                    # evaluations: a non-seed target's q2 has each in-edge's
                    # f = 1 - p (1 - q1[source]) as a factor, up to the
                    # rounding of the incremental updates.
                    f = 1.0 - g.out_prob * (1.0 - s.q1[src])
                    into = ~s.seed_mask[g.out_dst]
                    assert (s.q2[g.out_dst][into] <= f[into] * (1.0 + 1e-12)).all()
        assert sinks > 0

    def test_ic_edge_with_zero_f_from_a_certain_node(self):
        # Seed 0 activates 1 with p = 1, so q1[1] = 0 and 1's p = 1 edge to 2
        # has f = 0: the bound must skip 0 / 0, not turn it into a nan.
        g = Graph(5, [0, 1, 1, 2], [1, 2, 3, 4], [1.0, 1.0, 0.5, 0.5])
        s = init_state(g, "ic", 2)
        commit(s, eval_gain(s, 0))
        assert s.q1[1] == 0.0 and s.q2[2] == 0.0
        with np.errstate(all="raise"):
            b = probe_gain(s, 1).bound
        assert np.isfinite(b) and eval_gain(s, 1).gain <= b

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_empty_seed_set_probe_is_upper_bounds(self, model):
        rng = np.random.default_rng(92)
        for _ in range(10):
            g = random_graph_with_cycles(rng, n=int(rng.integers(10, 50)))
            if model == "lt":
                g = lt_admissible(g)
            s = init_state(g, model, 2)
            bound = np.array([probe_gain(s, u).bound for u in range(g.node_count)])
            # At S = {} every bound is at least 1, so the slack is BOUND_SLACK * bound.
            np.testing.assert_allclose(bound / (1.0 + BOUND_SLACK), upper_bounds(g, 2), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("hops", [1, 2])
    def test_probe_evaluates_to_the_node_report(self, hops):
        rng = np.random.default_rng(93)
        fields = ("candidate", "gain", "state_version", "q1_nodes", "q1_values", "q2_nodes", "q2_values")
        for s in self.states(rng, hops):
            for u in np.flatnonzero(~s.seed_mask)[:12]:
                probe = probe_gain(s, int(u))
                direct = eval_gain(s, int(u))
                # Twice: the first call completes the probe, and the second
                # returns the completed record as is.
                for report in (eval_gain(s, probe), eval_gain(s, probe)):
                    assert report is probe and report.state is s
                    for name in fields:
                        a, b = getattr(report, name), getattr(direct, name)
                        assert type(a) is type(b)
                        if isinstance(a, np.ndarray):
                            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                        else:
                            assert a == b
                if hops == 1:
                    assert probe.bound == direct.gain

    def test_commit_refuses_a_probe_without_gain(self):
        rng = np.random.default_rng(94)
        for s in self.states(rng):
            u = int(np.flatnonzero(~s.seed_mask)[0])
            before = (s.q1.tobytes(), s.q2.tobytes(), s.seed_mask.tobytes(), list(s.seeds), s.sigma)
            with pytest.raises(ValueError, match=f"report for node {u} has no gain"):
                commit(s, probe_gain(s, u))
            assert (s.q1.tobytes(), s.q2.tobytes(), s.seed_mask.tobytes(), list(s.seeds), s.sigma) == before

    def test_one_hop_probe_commits_as_its_evaluation(self):
        rng = np.random.default_rng(95)
        for s in self.states(rng, hops=1):
            twin = init_state(s.graph, s.model, 1)
            for v in s.seeds:
                commit(twin, eval_gain(twin, v))
            u = int(np.flatnonzero(~s.seed_mask)[-1])
            commit(s, probe_gain(s, u))
            commit(twin, eval_gain(twin, u))
            assert s.q1.tobytes() == twin.q1.tobytes() and s.seed_mask.tobytes() == twin.seed_mask.tobytes()
            assert (s.seeds, s.sigma) == (twin.seeds, twin.sigma)

    @pytest.mark.parametrize("hops", [1, 2])
    def test_stale_probe_and_seed_are_refused(self, chain_graph, hops):
        s = init_state(chain_graph, "ic", hops)
        probe = probe_gain(s, 1)
        commit(s, eval_gain(s, 0))
        with pytest.raises(StaleReportError, match="probe for node 1 was evaluated at version 0"):
            eval_gain(s, probe)
        with pytest.raises(StaleReportError, match="another state"):
            eval_gain(init_state(chain_graph, "ic", hops), probe_gain(s, 1))
        for bad in (0, -1, 3):
            with pytest.raises(ValueError):
                probe_gain(s, bad)
