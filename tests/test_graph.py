"""Edge-list parsing, weight models, and graph invariants."""

import io
import warnings

import numpy as np
import pytest

from conftest import random_ic_graph
from hopspread import graph as graph_module
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


# Mutations of an edge list's lines (bytes without line endings): each one
# gives input that the loader must either accept or reject with a message.
MUTATIONS = ["comment", "inline-comment", "blank", "odd-id", "odd-prob", "drop-prob", "add-prob", "one-field",
             "four-fields", "duplicate", "self-loop", "not-utf8", "separator", "lone-cr", "empty"]
ODD_IDS = [b"+5", b"1_0", b"-1", b"-0", b"007", b"4294967296", b"4294967297",
           b"9223372036854775807", b"9223372036854775808", b"x", b"\xef\xbc\x91",
           b"1.0", b"1e3", b"-0.5", b"2.7", b"nan", b"inf"]
ODD_PROBS = [b"nan", b"inf", b"-inf", b"1.5", b"-0.1", b".5", b"-0.0", b"1e-3", b"1", b"0_5", b"p"]
ODD_SEPARATORS = [b"\t", b"\x0c", b"\xc2\xa0", b"\x1c", b" \t "]


def mutate(rng, lines, kind):
    def pick(choices):
        return choices[int(rng.integers(len(choices)))]

    def edit_field(column, choices):
        rows = [i for i, line in enumerate(lines) if len(line.split()) > column]
        if rows:
            i = pick(rows)
            fields = lines[i].split()
            fields[column] = pick(choices)
            lines[i] = b" ".join(fields)

    at = int(rng.integers(len(lines) + 1))
    if kind == "comment":
        lines.insert(at, pick([b"# c", b"   # indented", b"\t#x # y"]))
    elif kind == "inline-comment" and lines:
        lines[-1] += b" # x"
    elif kind == "blank":
        lines.insert(at, pick([b"", b"   ", b"\x0c"]))
    elif kind == "odd-id":
        edit_field(int(rng.integers(2)), ODD_IDS)
    elif kind == "odd-prob":
        edit_field(2, ODD_PROBS)
    elif kind == "drop-prob":
        edit_field(2, [b""])
    elif kind == "add-prob":
        lines.insert(at, b"900 901 0.25")
    elif kind == "one-field":
        lines.insert(at, b"7")
    elif kind == "four-fields":
        lines.insert(at, b"7 8 0.5 1")
    elif kind == "duplicate" and lines:
        lines.append(pick(lines))
    elif kind == "self-loop":
        lines.insert(at, b"3 3")
    elif kind == "not-utf8":
        lines.insert(at, pick([b"1 \xff2", b"# \xfe"]))
    elif kind == "separator" and lines:
        lines[0] = lines[0].replace(b" ", pick(ODD_SEPARATORS), 1)
    elif kind == "lone-cr" and lines:
        lines[0] += b"\r5 6"
    elif kind == "empty":
        lines.clear()


def fuzz_edge_list(rng, mutation):
    """A random edge list with one named mutation and maybe one more."""
    n = int(rng.integers(2, 12))
    offset = [0, 40, 1 << 32][int(rng.integers(3))]
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = [pairs[i] for i in rng.permutation(len(pairs))[: int(rng.integers(1, 20))]]
    three = bool(rng.integers(2))
    lines = []
    for u, v in chosen:
        fields = [str(u + offset).encode(), str(v + offset).encode()]
        if three:
            fields.append([repr(float(rng.random())), "0.5", ".5", "1", "0"][int(rng.integers(5))].encode())
        lines.append(b" ".join(fields))
    mutate(rng, lines, mutation)
    if rng.random() < 0.3:
        mutate(rng, lines, MUTATIONS[int(rng.integers(len(MUTATIONS)))])
    end = [b"\n", b"\r\n", b" \n", b"\t\r\n"][int(rng.integers(4))]
    data = b"".join(line + end for line in lines)
    if lines and rng.random() < 0.2:
        data = data[: -len(end)]  # no final line ending
    num_nodes = None
    if offset == 0 and rng.random() < 0.4:
        num_nodes = n if rng.random() < 0.5 else max(1, n // 3)
    return data, num_nodes


def _load_outcome(source, num_nodes):
    try:
        g = load_edge_list(source, num_nodes=num_nodes)
    except GraphError as e:
        return ("error", str(e))
    slots = [s for s in Graph.__slots__ if s != "__weakref__"]
    return ("graph", [(s, np.asarray(getattr(g, s)).dtype.str, np.asarray(getattr(g, s)).tobytes()) for s in slots])


class TestFastParseMatchesLineLoop:
    def test_differential_fuzz(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(20261018)
        kinds = {"fast": 0, "loop-accepts": 0, "error": 0}
        path = tmp_path / "edges.txt"
        for case in range(600):
            data, num_nodes = fuzz_edge_list(rng, MUTATIONS[case % len(MUTATIONS)])
            path.write_bytes(data)
            sources = [
                lambda: data,
                lambda: io.BytesIO(data),
                lambda: str(path),
                lambda: io.StringIO(data.decode("utf-8", "surrogateescape")),
            ]
            source = sources[case % len(sources)]
            got = _load_outcome(source(), num_nodes)
            with monkeypatch.context() as m:
                m.setattr(graph_module, "_parse_buffer", lambda data: None)
                want = _load_outcome(source(), num_nodes)
            assert got == want, (data, num_nodes)
            if got[0] == "error":
                kinds["error"] += 1
            else:
                kinds["fast" if graph_module._parse_buffer(data) is not None else "loop-accepts"] += 1
        assert min(kinds.values()) >= 50, kinds

    def test_fast_path_takes_clean_inputs(self):
        for text in (b"0 1\n1 2\n", b"# h\n  # i\n0 1 0.5\r\n\n1 2 1e-1 \n", b"0\t1\n+5 2\n"):
            assert graph_module._parse_buffer(text) is not None
        for text in (b"0 1 # x\n", b"0 1\n1 2 0.5\n", b"1_0 2\n", b"0\xc2\xa01\n", b"0 1\r2 3\n", b"# only\n"):
            assert graph_module._parse_buffer(text) is None

    def test_text_file_object(self):
        g = load_edge_list(io.StringIO("10 20 0.5\n20 30 0.25\n"))
        assert list(g.original_ids) == [10, 20, 30] and list(g.out_prob) == [0.5, 0.25]

    def test_text_with_lone_surrogate_reports_line(self):
        with pytest.raises(GraphError, match="line 2: non-integer node id"):
            load_edge_list(io.StringIO("0 1\n1\ud800 2\n"))

    def test_float_parsed_id_warning_falls_back(self, monkeypatch):
        # numpy 1.x loadtxt reads "2.7" as int64 2 and only warns; the warning
        # must send the input to the line loop, which rejects it.
        def truncating_loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return np.array([(2, 3)], dtype=[("u", np.int64), ("v", np.int64)])

        monkeypatch.setattr(graph_module.np, "loadtxt", truncating_loadtxt)
        assert graph_module._parse_buffer(b"2.7 3\n") is None
        with pytest.raises(GraphError, match="line 1: non-integer node id"):
            load_edge_list(b"2.7 3\n")


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

    def test_builder_rejects_node_count_beyond_packed_key(self):
        # Raised before any array of node_count + 1 entries is allocated.
        with pytest.raises(GraphError, match=r"4294967297 nodes and 0 edges: .* need 66 bits, more than 64"):
            Graph((1 << 32) + 1, [], [], [])

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
