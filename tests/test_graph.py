"""Edge-list parsing, weight models, and graph invariants."""

import numpy as np
import pytest

from conftest import random_ic_graph
from hopspread.graph import (
    Graph,
    GraphError,
    WeightModel,
    apply_weight_model,
    load_edge_list,
    validate_lt,
)


class TestLoadEdgeList:
    def test_basic_parse(self):
        g = load_edge_list(b"0 1\n1 2\n")
        assert g.node_count == 3
        assert g.edge_count == 2
        assert list(g.out_prob) == [0.0, 0.0]

    def test_parse_with_probabilities(self):
        g = load_edge_list(b"0 1 0.5\n1 2 0.5\n")
        assert g.node_count == 3
        nbrs, ps = g.out_edges(0)
        assert list(nbrs) == [1] and list(ps) == [0.5]

    def test_comments_and_blank_lines(self):
        g = load_edge_list(b"# header\n\n0 1\n  # indented comment\n1 2\n")
        assert g.edge_count == 2

    def test_self_loop_reports_line(self):
        with pytest.raises(GraphError, match="line 1"):
            load_edge_list(b"0 0\n")
        with pytest.raises(GraphError, match="line 3"):
            load_edge_list(b"0 1\n# c\n5 5\n")

    def test_malformed_line_reports_line(self):
        with pytest.raises(GraphError, match="line 2"):
            load_edge_list(b"0 1\n0\n")
        with pytest.raises(GraphError, match="line 1"):
            load_edge_list(b"a b\n")

    def test_probability_out_of_range(self):
        with pytest.raises(GraphError, match="line 1"):
            load_edge_list(b"0 1 1.5\n")
        with pytest.raises(GraphError, match="line 1"):
            load_edge_list(b"0 1 -0.1\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            load_edge_list(b"0 1\n0 1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"10 50\n50 90\n10 50\n", "duplicate edge 10->50$"),
            (b"4294967296 4294967297\n4294967296 4294967297\n", "duplicate edge 4294967296->4294967297$"),
        ],
        ids=["small-ids", "ids-beyond-2^32"],
    )
    def test_duplicate_edge_reported_in_original_ids(self, text, message):
        with pytest.raises(GraphError, match=message):
            load_edge_list(text)

    def test_negative_id_rejected(self):
        with pytest.raises(GraphError, match="line 1"):
            load_edge_list(b"-1 2\n")

    def test_sparse_ids_densified_with_remap(self):
        g = load_edge_list(b"10 50\n50 90\n")
        assert g.node_count == 3
        assert list(g.original_ids) == [10, 50, 90]
        assert list(g.to_internal([10, 90])) == [0, 2]
        with pytest.raises(GraphError, match="unknown node id 11"):
            g.to_internal([11])

    def test_num_nodes_forces_isolated_vertices(self):
        g = load_edge_list(b"0 1\n", num_nodes=5)
        assert g.node_count == 5
        assert g.edge_count == 1
        assert list(g.original_ids) == [0, 1, 2, 3, 4]

    def test_num_nodes_too_small(self):
        with pytest.raises(GraphError, match="exceeds"):
            load_edge_list(b"0 7\n", num_nodes=5)

    def test_empty_input(self):
        g = load_edge_list(b"")
        assert g.node_count == 0 and g.edge_count == 0


class TestGraphConstruction:
    def test_builder_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(3, [0, 1], [0, 2], [0.5, 0.5])

    def test_builder_rejects_duplicate(self):
        with pytest.raises(GraphError, match="duplicate edge 0->1"):
            Graph(3, [0, 0], [1, 1], [0.5, 0.5])

    def test_builder_rejects_bad_probability(self):
        with pytest.raises(GraphError, match="probability"):
            Graph(2, [0], [1], [1.5])

    def test_transpose_consistency_random(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            g = random_ic_graph(rng, n_max=12, m_max=30)
            out_edges = set()
            for u in range(g.node_count):
                nbrs, ps = g.out_edges(u)
                out_edges.update((u, int(v), float(p)) for v, p in zip(nbrs, ps))
            in_edges = set()
            for v in range(g.node_count):
                srcs, ps = g.in_edges(v)
                in_edges.update((int(u), v, float(p)) for u, p in zip(srcs, ps))
            assert out_edges == in_edges

    def test_out_to_in_maps_each_out_edge_to_its_in_edge(self):
        rng = np.random.default_rng(12)
        for i in range(40):
            g = random_ic_graph(rng, n_max=12, m_max=30)
            if i % 2:
                g = apply_weight_model(g, WeightModel("trivalency", rng_seed=i))
            out_src = np.repeat(np.arange(g.node_count), g.out_degrees())
            in_dst = np.repeat(np.arange(g.node_count), g.in_degrees())
            assert np.array_equal(np.sort(g.out_to_in), np.arange(g.edge_count))
            assert np.array_equal(g.in_src[g.out_to_in], out_src)
            assert np.array_equal(in_dst[g.out_to_in], g.out_dst)
            assert np.array_equal(g.in_prob[g.out_to_in], g.out_prob)


class TestWeightModels:
    def test_wc_star(self):
        g = Graph(4, [0, 1, 2], [3, 3, 3], [0.0, 0.0, 0.0])
        gw = apply_weight_model(g, WeightModel("wc"))
        assert np.allclose(gw.out_prob, 1 / 3)
        assert np.allclose(gw.in_prob, 1 / 3)

    def test_wc_then_lt_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = apply_weight_model(random_ic_graph(rng, n_max=15, m_max=40), WeightModel("wc"))
            assert validate_lt(g) == []

    def test_wc_idempotent(self):
        rng = np.random.default_rng(6)
        g = random_ic_graph(rng, n_max=10, m_max=25)
        g1 = apply_weight_model(g, WeightModel("wc"))
        g2 = apply_weight_model(g1, WeightModel("wc"))
        assert np.array_equal(g1.out_prob, g2.out_prob)

    def test_uniform_scaled(self):
        g = Graph(3, [0, 1], [1, 2], [0.0, 0.0])
        gw = apply_weight_model(g, WeightModel("uniform", p=0.1, scale_factor=1.2))
        assert np.allclose(gw.out_prob, 0.12)

    def test_uniform_idempotent(self):
        g = Graph(3, [0, 1], [1, 2], [0.0, 0.0])
        m = WeightModel("uniform", p=0.3)
        g1 = apply_weight_model(g, m)
        g2 = apply_weight_model(g1, m)
        assert np.array_equal(g1.out_prob, g2.out_prob)

    def test_scale_clamps_to_one(self):
        g = Graph(3, [0, 1], [1, 2], [0.0, 0.0])
        gw = apply_weight_model(g, WeightModel("uniform", p=0.9, scale_factor=2.0))
        assert np.allclose(gw.out_prob, 1.0)

    def test_trivalency_deterministic(self):
        rng = np.random.default_rng(7)
        g = random_ic_graph(rng, n_max=12, m_max=40)
        a = apply_weight_model(g, WeightModel("trivalency", rng_seed=99))
        b = apply_weight_model(g, WeightModel("trivalency", rng_seed=99))
        assert np.array_equal(a.out_prob, b.out_prob)
        assert set(np.unique(a.out_prob)) <= {0.1, 0.01, 0.001}

    def test_trivalency_seed_matters(self):
        g = Graph(10, list(range(9)), list(range(1, 10)), [0.0] * 9)
        a = apply_weight_model(g, WeightModel("trivalency", rng_seed=1))
        b = apply_weight_model(g, WeightModel("trivalency", rng_seed=2))
        assert not np.array_equal(a.out_prob, b.out_prob)

    def test_from_file_keeps_parsed_probabilities(self):
        g = load_edge_list(b"0 1 0.25\n1 2 0.75\n")
        gw = apply_weight_model(g, WeightModel("from_file", scale_factor=1.0))
        assert np.array_equal(np.sort(gw.out_prob), [0.25, 0.75])

    def test_views_stay_consistent(self):
        rng = np.random.default_rng(8)
        g = apply_weight_model(random_ic_graph(rng, n_max=10, m_max=30), WeightModel("trivalency", rng_seed=3))
        for v in range(g.node_count):
            srcs, ps = g.in_edges(v)
            for u, p in zip(srcs, ps):
                nbrs, pouts = g.out_edges(int(u))
                assert p == pouts[list(nbrs).index(v)]

    def test_parse_syntax(self):
        assert WeightModel.parse("wc").variant == "wc"
        assert WeightModel.parse("tri:5").rng_seed == 5
        assert WeightModel.parse("uniform:0.2").p == 0.2
        assert WeightModel.parse("file").variant == "from_file"
        for bad in ("bogus", "tri:abc", "uniform:x"):
            with pytest.raises(GraphError, match="cannot parse weight model"):
                WeightModel.parse(bad)

    def test_model_validation(self):
        with pytest.raises(GraphError):
            WeightModel("uniform", p=1.5)
        with pytest.raises(GraphError):
            WeightModel("trivalency")
        for scale in (0.0, float("inf"), float("nan")):
            with pytest.raises(GraphError, match="scale factor"):
                WeightModel("wc", scale_factor=scale)


class TestValidateLt:
    def test_overweight_node_flagged(self):
        g = Graph(3, [0, 1], [2, 2], [0.7, 0.7])
        assert validate_lt(g) == [2]

    def test_empty_graph_ok(self):
        assert validate_lt(load_edge_list(b"")) == []

    def test_wc_always_ok(self):
        rng = np.random.default_rng(9)
        g = apply_weight_model(random_ic_graph(rng, n_max=20, m_max=60), WeightModel("wc"))
        assert validate_lt(g) == []
