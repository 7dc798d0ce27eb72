"""Lazy greedy vs naive greedy, bootstrap equivalence, and the heuristics."""

import heapq
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import in_edges, lt_admissible, random_ic_graph, random_lt_graph, reference_celf
from hopspread import selection
from hopspread.bounds import upper_bounds
from hopspread.graph import Graph, WeightModel, apply_weight_model
from hopspread.generate import power_law_graph
from hopspread.oracle import ExactSpreadTable
from hopspread.selection import degree_discount, greedy_celf, greedy_naive, high_degree


class TestCelfMatchesNaive:
    @pytest.mark.parametrize("model", ["ic", "lt"])
    @pytest.mark.parametrize("hops", [1, 2])
    def test_same_seed_sequence_and_gains(self, model, hops):
        rng = np.random.default_rng(41)
        for _ in range(20):
            g = random_ic_graph(rng, n_max=20, m_max=60, n_min=5) if model == "ic" else random_lt_graph(rng, n_max=15, m_max=40, n_min=5)
            k = int(rng.integers(1, min(5, g.node_count) + 1))
            naive = greedy_naive(g, k, model=model, hops=hops)
            for bootstrap in ("upper_bounds", "none"):
                lazy = greedy_celf(g, k, model=model, hops=hops, bootstrap=bootstrap)
                assert lazy.seeds == naive.seeds
                assert np.allclose(lazy.marginal_gains, naive.marginal_gains, atol=1e-12)

    def test_bootstrap_modes_agree(self):
        rng = np.random.default_rng(42)
        for model, hops in (("ic", 2), ("lt", 1), ("lt", 2)):
            for _ in range(20):
                if model == "ic":
                    g = random_ic_graph(rng, n_max=20, m_max=60, n_min=5)
                else:
                    g = random_lt_graph(rng, n_max=20, m_max=60, n_min=5, p_one_frac=0.15)
                k = int(rng.integers(1, min(5, g.node_count) + 1))
                with_ub = greedy_celf(g, k, model=model, hops=hops, bootstrap="upper_bounds")
                without = greedy_celf(g, k, model=model, hops=hops, bootstrap="none")
                assert with_ub.seeds == without.seeds
                assert np.allclose(with_ub.marginal_gains, without.marginal_gains, atol=1e-12)

    def test_bootstrap_saves_evaluations_on_larger_graph(self):
        g = apply_weight_model(power_law_graph(1200, 5000, rng_seed=3), WeightModel("wc"))
        with_ub = greedy_celf(g, 10, model="ic", hops=2, bootstrap="upper_bounds")
        without = greedy_celf(g, 10, model="ic", hops=2, bootstrap="none")
        assert with_ub.seeds == without.seeds
        assert with_ub.evaluations < without.evaluations

    def test_lt_bootstrap_saves_evaluations_on_larger_graph(self):
        # WC weights sum to exactly 1 per node with in-edges: admissible for LT.
        g = apply_weight_model(power_law_graph(1200, 5000, rng_seed=3), WeightModel("wc"))
        for hops in (1, 2):
            with_ub = greedy_celf(g, 10, model="lt", hops=hops)
            without = greedy_celf(g, 10, model="lt", hops=hops, bootstrap="none")
            assert with_ub.seeds == without.seeds
            assert np.allclose(with_ub.marginal_gains, without.marginal_gains, atol=1e-12)
            assert with_ub.evaluations < without.evaluations // 10

    @pytest.mark.parametrize("model", ["ic", "lt"])
    @pytest.mark.parametrize("hops", [1, 2])
    @pytest.mark.parametrize("bootstrap", ["upper_bounds", "none"])
    def test_no_candidate_evaluated_twice_at_one_state_version(self, monkeypatch, model, hops, bootstrap):
        g = apply_weight_model(power_law_graph(1200, 5000, rng_seed=3), WeightModel("wc"))
        calls = []
        eval_gain = selection.eval_gain

        # A node or a waiting probe: record the candidate it stands for.
        def recording_eval_gain(state, node):
            report = eval_gain(state, node)
            calls.append((report.candidate, state.version))
            return report

        monkeypatch.setattr(selection, "eval_gain", recording_eval_gain)
        res = greedy_celf(g, 10, model=model, hops=hops, bootstrap=bootstrap)
        assert len(calls) == res.evaluations
        assert len(set(calls)) == len(calls)


class TestStateAwareBounds:
    """Two-hop CELF probes stale keys against the current seed set before evaluating."""

    # Two-hop IC/LT evaluations on the pinned graph below, k=20, before stale
    # keys were re-bounded (every stale pop was fully evaluated).
    PARENT_EVALUATIONS = {"ic": 88, "lt": 42}

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_every_evaluated_gain_is_at_most_its_key(self, monkeypatch, model):
        g = apply_weight_model(power_law_graph(20000, 200000), WeightModel("wc"))
        popped = {}
        pairs = []
        probe_stamps = []
        pops = []
        heappop, eval_gain, probe_gain = selection.heapq.heappop, selection.eval_gain, selection.probe_gain

        # The frontier's head waits in the heap, so every pop, from the
        # frontier or of a re-keyed node, passes through heappop.
        def recording_heappop(heap):
            entry = heappop(heap)
            popped[entry[1]] = (-entry[0], entry[2])
            pops.append(entry[2] == 0)
            return entry

        def recording_eval_gain(state, node):
            report = eval_gain(state, node)
            pairs.append((report.gain, *popped[report.candidate]))
            return report

        def recording_probe_gain(state, node):
            probe_stamps.append((popped[node][1], 2 * len(state.seeds)))
            return probe_gain(state, node)

        monkeypatch.setattr(selection.heapq, "heappop", recording_heappop)
        monkeypatch.setattr(selection, "eval_gain", recording_eval_gain)
        monkeypatch.setattr(selection, "probe_gain", recording_probe_gain)
        res = greedy_celf(g, 100, model=model, hops=2)
        assert len(pops) == res.evaluations + res.probes + len(res.seeds)
        assert any(pops) and not all(pops)
        assert len(pairs) == res.evaluations and len(probe_stamps) == res.probes > 0
        assert all(gain <= key for gain, key, _ in pairs)
        # Keys at stamp 2 * round with round >= 1 are probe bounds.
        assert any(stamp > 1 for _, _, stamp in pairs)
        # Only keys of earlier rounds are probed, frontier keys among them.
        assert all(stamp < now for stamp, now in probe_stamps)
        assert any(stamp == 0 for stamp, _ in probe_stamps)

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_same_seeds_and_gains_as_naive(self, model):
        g = apply_weight_model(power_law_graph(1200, 5000, rng_seed=3), WeightModel("wc"))
        # Greedy is prefix-consistent: naive k=10 is the first ten picks of naive k=20.
        naive = greedy_naive(g, 20, model=model, hops=2)
        for k in (10, 20):
            lazy = greedy_celf(g, k, model=model, hops=2)
            assert lazy.seeds == naive.seeds[:k]
            assert lazy.marginal_gains == naive.marginal_gains[:k]

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_fewer_evaluations_than_without_bounds(self, model):
        g = apply_weight_model(power_law_graph(1200, 5000, rng_seed=3), WeightModel("wc"))
        res = greedy_celf(g, 20, model=model, hops=2)
        assert res.evaluations < self.PARENT_EVALUATIONS[model]
        assert res.probes > 0
        one_hop = greedy_celf(g, 20, model=model, hops=1)
        assert one_hop.probes == 0

    # Full evaluations of `power_law_graph(2000, 20000, rng_seed=7)` with WC
    # weights, k=50, two hops: (bootstrap="upper_bounds", bootstrap="none").
    EVALUATIONS = {"ic": (53, 2052), "lt": (50, 2049)}

    @pytest.mark.parametrize("model", ["ic", "lt"])
    @pytest.mark.parametrize("bootstrap", ["upper_bounds", "none"])
    def test_pinned_evaluation_counts(self, model, bootstrap):
        g = apply_weight_model(power_law_graph(2000, 20000, rng_seed=7), WeightModel("wc"))
        res = greedy_celf(g, 50, model=model, hops=2, bootstrap=bootstrap)
        assert res.evaluations == self.EVALUATIONS[model][bootstrap == "none"]

    # On the same runs: probes, and the out-edges of C = {u} + u's non-seed
    # out-neighbours summed over every gather of a node u.
    PROBES = {"ic": (364, 364), "lt": (171, 171)}
    C_EDGES = {"ic": (191_753, 401_918), "lt": (116_492, 326_657)}

    @pytest.mark.parametrize("model", ["ic", "lt"])
    @pytest.mark.parametrize("bootstrap", ["upper_bounds", "none"])
    def test_pinned_gather_counts(self, monkeypatch, model, bootstrap):
        g = apply_weight_model(power_law_graph(2000, 20000, rng_seed=7), WeightModel("wc"))
        degree = g.out_degrees()
        gathered = []

        # Counted from the state and the graph, not from what the call returns.
        def counting(fn):
            def wrapped(state, u):
                if isinstance(u, (int, np.integer)):
                    nbrs, _ = g.out_edges(int(u))
                    gathered.append(int(degree[u] + degree[nbrs[~state.seed_mask[nbrs]]].sum()))
                return fn(state, u)

            return wrapped

        monkeypatch.setattr(selection, "probe_gain", counting(selection.probe_gain))
        monkeypatch.setattr(selection, "eval_gain", counting(selection.eval_gain))
        res = greedy_celf(g, 50, model=model, hops=2, bootstrap=bootstrap)
        assert res.probes == self.PROBES[model][bootstrap == "none"]
        assert sum(gathered) == self.C_EDGES[model][bootstrap == "none"]
        assert greedy_celf(g, 50, model=model, hops=1, bootstrap=bootstrap).probes == 0

    @pytest.mark.parametrize("hops", [1, 2])
    def test_round_zero_keeps_one_report(self, hops):
        # bootstrap="none" evaluates every node before the first commit. Only
        # the round's best report is kept: ~160 (one hop) and ~250 (two hops)
        # B/node here, against ~730 and ~2,400 if every report were kept.
        g = apply_weight_model(power_law_graph(2000, 20000, rng_seed=7), WeightModel("wc"))
        tracemalloc.start()
        try:
            res = greedy_celf(g, 1, model="ic", hops=hops, bootstrap="none")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.evaluations == g.node_count
        assert peak / g.node_count <= 500


def tied_graph(copies=4, isolated=3):
    """Disjoint copies of one 4-node motif (a 3-cycle through a p = 1 edge
    plus a sink with no out-edges) and some isolated nodes, so that many
    nodes share each bootstrap bound. Every in-weight sum is at most 1."""
    src, dst, prob = [0, 1, 2, 0], [1, 2, 0, 3], [0.5, 1.0, 0.3, 0.5]
    offsets = np.repeat(4 * np.arange(copies), 4)
    return Graph(4 * copies + isolated, np.tile(src, copies) + offsets, np.tile(dst, copies) + offsets,
                 np.tile(prob, copies))


class TestFrontierMatchesAllNodeHeap:
    """The sorted frontier pops in the order of the all-node heap it replaced."""

    @staticmethod
    def graphs(model):
        rng = np.random.default_rng(47)
        wc = apply_weight_model(power_law_graph(60, 200, rng_seed=5), WeightModel("wc"))
        yield tied_graph()
        yield wc
        for _ in range(3):
            if model == "ic":
                yield random_ic_graph(rng, n_max=25, m_max=70, n_min=10, p_one_frac=0.2)
            else:
                yield lt_admissible(random_ic_graph(rng, n_max=25, m_max=70, n_min=10, p_one_frac=0.2))

    @pytest.mark.parametrize("model", ["ic", "lt"])
    @pytest.mark.parametrize("hops", [1, 2])
    @pytest.mark.parametrize("bootstrap", ["upper_bounds", "none"])
    def test_same_seeds_gains_and_counts(self, monkeypatch, model, hops, bootstrap):
        # Both loops pop through heapq.heappop, so the pop sequences compare too.
        pops = []
        heappop = heapq.heappop

        def recording_heappop(heap):
            pops.append(heappop(heap))
            return pops[-1]

        monkeypatch.setattr(heapq, "heappop", recording_heappop)
        for g in self.graphs(model):
            for k in (1, 10, g.node_count):
                ref = reference_celf(g, k, model=model, hops=hops, bootstrap=bootstrap)
                ref_pops = pops.copy()
                pops.clear()
                res = greedy_celf(g, k, model=model, hops=hops, bootstrap=bootstrap)
                assert pops == ref_pops
                pops.clear()
                assert res.seeds == ref.seeds
                assert res.marginal_gains == ref.marginal_gains
                assert res.evaluations == ref.evaluations
                assert res.probes == ref.probes

    def test_tied_graph_ties_bounds(self):
        g = tied_graph()
        for hops in (1, 2):
            ub = upper_bounds(g, hops)
            assert len(np.unique(ub)) <= 4
            # The four sinks and three isolated nodes share the smallest bound.
            assert np.count_nonzero(ub == ub.min()) == 4 + 3


class TestSelectionContracts:
    def test_tie_break_on_symmetric_components(self):
        g = Graph(4, [0, 2], [1, 3], [1.0, 1.0])
        for bootstrap in ("upper_bounds", "none"):
            res = greedy_celf(g, 2, model="ic", hops=2, bootstrap=bootstrap)
            assert res.seeds == [0, 2]
            assert res.spread == pytest.approx(4.0, abs=1e-12)

    def test_chain_first_seed(self, chain_graph):
        for bootstrap in ("upper_bounds", "none"):
            res = greedy_celf(chain_graph, 1, model="ic", hops=2, bootstrap=bootstrap)
            assert res.seeds == [0]
            assert res.marginal_gains[0] == pytest.approx(1.75, abs=1e-12)

    def test_gains_non_increasing_and_sum_to_spread(self):
        rng = np.random.default_rng(43)
        for model in ("ic", "lt"):
            g = random_ic_graph(rng, n_max=25, m_max=80, n_min=10) if model == "ic" else random_lt_graph(rng, n_max=20, m_max=50, n_min=10)
            res = greedy_celf(g, min(8, g.node_count), model=model, hops=2)
            gains = res.marginal_gains
            assert all(gains[i] >= gains[i + 1] - 1e-9 for i in range(len(gains) - 1))
            assert abs(sum(gains) - res.spread) < 1e-6 * g.node_count
            assert len(set(res.seeds)) == len(res.seeds)

    def test_k_out_of_range(self, chain_graph):
        with pytest.raises(ValueError):
            greedy_celf(chain_graph, 0)
        with pytest.raises(ValueError):
            greedy_celf(chain_graph, 4)

    def test_hop_limited_greedy_near_optimal_for_its_objective(self):
        # Guarantee factor (1 - 1/e) against the best hop-limited seed set.
        rng = np.random.default_rng(44)
        factor = 1.0 - 1.0 / np.e
        for _ in range(15):
            g = random_ic_graph(rng, n_max=7, m_max=10, n_min=4)
            k = int(rng.integers(1, 3))
            for hops in (1, 2):
                table = ExactSpreadTable(g, model="ic", hop_limit=hops)
                res = greedy_celf(g, k, model="ic", hops=hops)
                best = max(table.spread(c) for c in itertools.combinations(range(g.node_count), k))
                assert table.spread(res.seeds) >= factor * best - 1e-9


class TestHighDegree:
    def test_star_center_first(self):
        g = Graph(4, [0, 0, 0], [1, 2, 3], [0.1, 0.1, 0.1])
        assert high_degree(g, 1).seeds == [0]

    def test_chain_tie_break(self, chain_graph):
        assert high_degree(chain_graph, 2).seeds == [0, 1]
        # Tie-heavy: 50 nodes with out-degree 1 or 2 share a handful of
        # degree values, so nearly every rank is decided by id.
        rng = np.random.default_rng(47)
        n = 50
        src = np.repeat(np.arange(n), rng.integers(1, 3, size=n))
        dst = (src + rng.integers(1, n, size=len(src))) % n
        keep = np.unique(src * n + dst)
        g = Graph(n, keep // n, keep % n, [0.0] * len(keep))
        deg = g.out_degrees()
        assert high_degree(g, n).seeds == sorted(range(n), key=lambda v: (-int(deg[v]), v))

    def test_k_equals_node_count(self, chain_graph):
        assert sorted(high_degree(chain_graph, 3).seeds) == [0, 1, 2]

    def test_no_gains_reported(self, chain_graph):
        assert high_degree(chain_graph, 2).marginal_gains == []


class TestDegreeDiscount:
    def test_first_pick_is_max_out_degree(self):
        g = Graph(4, [0, 0, 0, 1], [1, 2, 3, 2], [0.0] * 4)
        assert degree_discount(g, 1).seeds == [0]

    def test_path_discount_trace(self):
        # 0 -> 1 -> 2: after picking 0, node 1's priority drops to -1 and
        # node 2 (priority 0) is picked next.
        g = Graph(3, [0, 1], [1, 2], [0.0, 0.0])
        assert degree_discount(g, 2, p=0.01).seeds == [0, 2]

    def test_k_equals_node_count_all_distinct(self):
        rng = np.random.default_rng(45)
        g = random_ic_graph(rng, n_max=12, m_max=30, n_min=6)
        seeds = degree_discount(g, g.node_count).seeds
        assert sorted(seeds) == list(range(g.node_count))

    @staticmethod
    def full_recompute(g, k, p):
        # Oracle: recompute every node's discounted degree from scratch each
        # round and pick the max with the same tie-break.
        expected = []
        chosen = set()
        d = g.out_degrees().astype(float)
        for _ in range(k):
            best, best_dd = None, None
            for v in range(g.node_count):
                if v in chosen:
                    continue
                srcs, _ = in_edges(g, v)
                t = sum(1 for u in srcs if int(u) in chosen)
                dd = d[v] - 2 * t - (d[v] - t) * t * p
                if best_dd is None or dd > best_dd:
                    best, best_dd = v, dd
            chosen.add(best)
            expected.append(best)
        return expected

    def test_matches_full_recompute(self):
        rng = np.random.default_rng(46)
        for _ in range(15):
            g = random_ic_graph(rng, n_max=15, m_max=50, n_min=5)
            p = float(rng.choice([0.0, 0.01, 0.1]))
            k = int(rng.integers(1, g.node_count + 1))
            assert degree_discount(g, k, p=p).seeds == self.full_recompute(g, k, p)
        # Tie-heavy: every node has out-degree 2 (or 2 and 3), so nearly every
        # pick breaks a tie by id, among untouched and discounted priorities
        # alike; with p = 1 a priority rises again once t passes (d + 1) / 2.
        for n, degrees in [(40, (2,)), (60, (2, 3)), (70, (2,))]:
            src, dst = [], []
            for u in range(n):
                targets = rng.choice(np.delete(np.arange(n), u), size=int(rng.choice(degrees)), replace=False)
                src += [u] * len(targets)
                dst += targets.tolist()
            g = Graph(n, src, dst, [0.0] * len(src))
            for p in (0.0, 0.1, 1.0):
                assert degree_discount(g, n, p=p).seeds == self.full_recompute(g, n, p)

    def test_p_validation(self, chain_graph):
        with pytest.raises(ValueError):
            degree_discount(chain_graph, 1, p=1.5)

    def test_traced_peak_per_node(self):
        # d, t and priority (8 B each) come to 24 B/node, and a hub's
        # out-row transients to ~6 more. A heap entry per updated
        # out-neighbor would peak near 220 B/node here.
        g = power_law_graph(100_000, 1_000_000, rng_seed=7)
        tracemalloc.start()
        try:
            degree_discount(g, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / g.node_count <= 48
