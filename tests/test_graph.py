"""Edge-list parsing, weight models, and graph invariants."""

import io
import itertools
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from conftest import random_ic_graph, random_lt_graph
from hopspread import graph as graph_module
from hopspread.generate import power_law_graph
from hopspread.graph import (
    Graph,
    GraphError,
    WeightModel,
    apply_weight_model,
    load_edge_list,
    validate_lt,
)
from hopspread.hop_estimator import HopState, init_state
from hopspread.oracle import _outcome_chunks


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
MUTATIONS = ["header", "comment", "inline-comment", "blank", "odd-id", "odd-prob", "odd-last-prob", "drop-prob",
             "add-prob", "one-field", "four-fields", "three-then-one", "duplicate", "self-loop", "not-utf8",
             "utf8-comment", "separator", "line-end", "lone-cr", "empty"]
ODD_IDS = [b"+5", b"1_0", b"-1", b"-0", b"007", b"0000000000000000001", b"4294967296", b"4294967297",
           b"9007199254740991", b"9007199254740992", b"9007199254740993", b"9223372036854775807",
           b"9223372036854775808", b"12345678901234567890", b"-9223372036854775809",
           b"+", b"++5", b"5+", b"x", b"\xef\xbc\x91", b"1.0", b"1e3", b"-0.5", b"2.7", b"nan", b"inf"]
# np.fromstring reads a malformed last token such as "1e" or "1.5.3" as a prefix of it without any error.
ODD_PROBS = [b"nan", b"inf", b"-inf", b"1.5", b"-0.1", b".5", b"-0.0", b"1e-3", b"1", b"0_5", b"p", b"1e", b"1.5.3",
             b".", b"5.", b"+.5", b"-0", b"1E+0", b"1e-320", b"1e+", b".e1", b"5.e-1", b"1e0.5", b"0e1+1", b"1e999",
             b"0.1234567890123456789012345", b"1234567890123456789012345e-25"]
ODD_SEPARATORS = [b"\t", b"\x0b", b"\x0c", b"\xc2\xa0", b"\x1c", b" \t "]


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
    if kind == "header":
        lines[:0] = [b"# Nodes: 12", b"", pick([b"# graph by M\xc3\xbcller", b"\t# FromNodeId\tToNodeId"])]
    elif kind == "comment":
        lines.insert(at, pick([b"# c", b"   # indented", b"\t#x # y"]))
    elif kind == "inline-comment" and lines:
        lines[-1] += b" # x"
    elif kind == "blank":
        lines.insert(at, pick([b"", b"   ", b"\x0c"]))
    elif kind == "odd-id":
        edit_field(int(rng.integers(2)), ODD_IDS)
    elif kind == "odd-prob":
        edit_field(2, ODD_PROBS)
    elif kind == "odd-last-prob" and lines and len(lines[-1].split()) == 3:
        lines[-1] = b" ".join(lines[-1].split()[:2] + [pick(ODD_PROBS)])
    elif kind == "drop-prob":
        edit_field(2, [b""])
    elif kind == "add-prob":
        lines.insert(at, b"900 901 0.25")
    elif kind == "one-field":
        lines.insert(at, b"7")
    elif kind == "four-fields":
        lines.insert(at, b"7 8 0.5 1")
    elif kind == "three-then-one":
        # Four tokens on two lines: right in total, wrong on each line.
        lines[at:at] = [b"7 8 9", b"10"]
    elif kind == "duplicate" and lines:
        lines.append(pick(lines))
    elif kind == "self-loop":
        lines.insert(at, b"3 3")
    elif kind == "not-utf8":
        lines.insert(at, pick([b"1 \xff2", b"# \xfe"]))
    elif kind == "utf8-comment":
        # U+2028 and U+0085 are line breaks to str.splitlines; U+00A0 is a blank to str.strip.
        lines.insert(at, pick([b"# graph by M\xc3\xbcller", b"  # \xe2\x80\xa8 5 6", b"\t#\xc2\x85 7 8",
                               b"\xc2\xa0# 9 10", b"#\xef\xbc\x91 \xef\xbc\x92"]))
    elif kind == "separator" and lines:
        lines[0] = lines[0].replace(b" ", pick(ODD_SEPARATORS), 1)
    elif kind == "line-end":
        suffix = pick([b"\r", b" ", b"\t\r"])
        lines[:] = [line + suffix for line in lines]
    elif kind == "lone-cr" and lines:
        lines[0] += b"\r5 6"
    elif kind == "empty":
        lines.clear()


def fuzz_edge_list(rng, mutation):
    """A random edge list with the named mutation ("none" for none) and maybe one more."""
    n = int(rng.integers(2, 12))
    offset = [0, 40, 1 << 32, (1 << 53) - 8][int(rng.integers(4))]
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = [pairs[i] for i in rng.permutation(len(pairs))[: int(rng.integers(1, 20))]]
    three = bool(rng.integers(2))
    lines = []
    for u, v in chosen:
        fields = [str(u + offset).encode(), str(v + offset).encode()]
        if three:
            probs = [repr(float(rng.random())), "0.5", ".5", "1", "0", "5e-05", "1E-1", "0.",
                     "0.1234567890123456789012345"]
            fields.append(probs[int(rng.integers(len(probs)))].encode())
        lines.append(b" ".join(fields))
    mutate(rng, lines, mutation)
    if rng.random() < 0.3:
        mutate(rng, lines, MUTATIONS[int(rng.integers(len(MUTATIONS)))])
    data = b"".join(line + b"\n" for line in lines)
    if lines and rng.random() < 0.2:
        data = data[:-1]  # no final "\n"
    num_nodes = None
    if offset == 0 and rng.random() < 0.4:
        num_nodes = n if rng.random() < 0.5 else max(1, n // 3)
    return data, num_nodes


def _outcome(build):
    """("graph", every slot's dtype and bytes) of `build()`, or ("error", message)."""
    try:
        g = build()
    except GraphError as e:
        return ("error", str(e))
    return ("graph", [(s, np.asarray(getattr(g, s)).dtype.str, np.asarray(getattr(g, s)).tobytes()) for s in Graph.__slots__])


def _load_outcome(source, num_nodes):
    return _outcome(lambda: load_edge_list(source, num_nodes=num_nodes))


def _differential_fuzz(rng, cases, tmp_path, monkeypatch):
    """Load fuzzed edge lists with and without the C parsers; count the outcomes."""
    kinds = {"scan-2": 0, "scan-3": 0, "loop-accepts": 0, "error": 0}
    path = tmp_path / "edges.txt"
    for case in range(cases):
        # A third of the files start clean, so that each scan takes enough of them.
        data, num_nodes = fuzz_edge_list(rng, "none" if case % 3 == 0 else MUTATIONS[case % len(MUTATIONS)])
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
        elif graph_module._parse_buffer(data) is None:
            kinds["loop-accepts"] += 1
        else:
            kinds[f"scan-{len(graph_module._FIRST_DATA_LINE.search(data).group().split())}"] += 1
    return kinds


class TestFastParseMatchesLineLoop:
    def test_differential_fuzz(self, tmp_path, monkeypatch):
        kinds = _differential_fuzz(np.random.default_rng(20261018), 600, tmp_path, monkeypatch)
        assert min(kinds.values()) >= 50, kinds

    @pytest.mark.parametrize("window", [0, 3, 16])
    def test_differential_fuzz_across_windows(self, tmp_path, monkeypatch, window):
        # Windows of a line or two put every gate check next to a boundary.
        monkeypatch.setattr(graph_module, "_WINDOW", window)
        kinds = _differential_fuzz(np.random.default_rng(window), 300, tmp_path, monkeypatch)
        assert min(kinds.values()) >= 25, kinds

    @pytest.mark.parametrize(
        "text",
        [b"+ 5\n", b"5 +\n", b"- 6\n", b"+5 6\n", b"1 2 3\n4\n", b"1\n2 3 4\n", b"1 2\n3\n", b"1 2\r3 4\n",
         b"1\x1c2\n", b"1 2\r\n", b"1  2\n", b"1 2\n3\t4\n", b"1 2\n\n3 4\n", b"1 2\n\n", b"1 9223372036854775807\n",
         b"1 9223372036854775808\n", b"1 99999999999999999999\n", b"0 1\n# mid-file\n1 2\n", b"7 7\n",
         b"1 \n 2\n", b" 12\n3 4\n", b"0 1\n1 \n 2\n", b"0 1\n 12\n3 4\n", b"0 1\n2 3 4\n", b"0 1\n1\x1c2\n",
         b"0 1\n1 2\r3 4\n", b"0 1 1e\n", b"0 1 0.5\n1 2 1e", b"0 1 1.5.3\n", b"0 1 .\n", b"0 1 +.5\n",
         b"0 1 -0\n", b"0 1 inf\n", b"0 1 nan\n", b"0 1 1e+\n", b"0 1 .e3\n", b"0 1 e5\n", b"0 1 1e5+3\n",
         b"0 1 0e5+3\n", b"0 1 1e999\n", b"0 1 1.5\n", b"1e3 2 0.5\n", b"0 1 0.5 \n", b"0 1  0.5\n", b"0 1\t0.5\n",
         b"0 1 0.5\r\n", b"0 1 0.5\n1 2\n", b"0 0 0.5\n", b"9007199254740992 1 0.5\n", b"9223372036854775807 1 0.5\n"],
    )
    def test_scan_leaves_other_inputs_to_the_loop(self, monkeypatch, text):
        # np.fromstring would misread some of these, and the others are not
        # plain lines of two or three fields; each must match the line loop.
        # After "0 1\n", inputs that would otherwise stop at the field count
        # reach the "u v" gate: "1 \n 2\n" repeats sep + "\n" with too few ids.
        assert graph_module._parse_buffer(text) is None
        got = _load_outcome(text, None)
        monkeypatch.setattr(graph_module, "_parse_buffer", lambda data: None)
        assert got == _load_outcome(text, None)

    def test_triple_gate_takes_exactly_the_probability_grammar(self):
        # Every literal of up to 5 bytes over "05.eE+-", mid-file and as the
        # last token of a window without its "\n".
        grammar = re.compile(rb"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
        for size in range(1, 6):
            for literal in map(bytes, itertools.product(b"05.eE+-", repeat=size)):
                valid = grammar.fullmatch(literal) is not None
                assert (graph_module._triple_tokens(b"0 1 " + literal + b"\n1 2 1\n") is not None) == valid, literal
                edges = graph_module._parse_buffer(b"0 1 0.5\n1 2 " + literal)
                assert (edges is not None) == (valid and float(literal) <= 1), literal
                assert edges is None or edges[2][1] == float(literal), literal

    def test_a_window_may_not_start_with_a_blank(self, monkeypatch):
        # One line per window: the "\n " pair straddles two windows.
        monkeypatch.setattr(graph_module, "_WINDOW", 0)
        for text in (b"0 1\n 12\n3 4\n", b"0 1 .5\n 12 3.5\n"):
            assert graph_module._parse_buffer(text) is None
            got = _load_outcome(text, None)
            with monkeypatch.context() as m:
                m.setattr(graph_module, "_parse_buffer", lambda data: None)
                assert got == _load_outcome(text, None)

    def test_windows_of_whole_lines_keep_the_scan(self, monkeypatch):
        # Here one line each; the last line lacks its "\n".
        monkeypatch.setattr(graph_module, "_WINDOW", 4)
        src, dst, _ = graph_module._parse_buffer(b"# h\n" + b"\n".join(b"%d %d" % (i, i + 1) for i in range(20)))
        assert list(src) == list(range(20)) and list(dst) == list(range(1, 21))
        lines = b"\n".join(b"%d %d %r" % (i, i + 1, 1 / (i + 1)) for i in range(20))
        src, dst, prob = graph_module._parse_buffer(b"# h\n" + lines)
        assert list(src) == list(range(20)) and list(dst) == list(range(1, 21))
        assert list(prob) == [1 / (i + 1) for i in range(20)]

    def test_fast_path_takes_clean_inputs(self):
        for text in (b"0 1\n1 2\n", b"0\t1\n5\t2\n", b"# graph by M\xc3\xbcller\n0 1\n1 2\n",
                     b"\n# a\n  # b\n0 1\n1 2\n", b"0000000000000000001 2\n2 9223372036854775806\n",
                     b"1 2", b"0 1\n1 2",
                     b"# h\n  # i\n0 1 0.5\n1 2 1e-1\n", b"0\t1\t.5\n1\t2\t0.\n", b"0 1 1E+0\n1 2 5e-05\n2 0 1e-320\n",
                     b"0 1 0.1234567890123456789012345\n9007199254740991 0 1", b"0 1 0.5\n1 2 1"):
            assert graph_module._parse_buffer(text) is not None, text
        # CRLF ends, mid-file blank or '#' lines, blanks before a line end and
        # '+' signs are left to the loop.
        for text in (b"0 1 # x\n", b"0 1\n1 2 0.5\n", b"1_0 2\n", b"0 1\r2 3\n", b"# only\n",
                     b"# h\n  # i\n0 1 0.5\r\n\n1 2 1e-1 \n", b"0\t1\n+5 2\n",
                     b"0 1 0.5\n\t#\xe2\x80\xa8 5 6\r\n1 2 1\n"):
            assert graph_module._parse_buffer(text) is None, text

    def test_non_ascii_data_lines_leave_the_scan(self):
        # The gates must not rely on how a numpy version treats non-ASCII
        # letters, digits or blanks.
        for text in (b"0\xc2\xa01\n", b"# M\xc3\xbcller\n0 1\n1 2\xc2\xa0\n", b"\xc2\xa0# x\n0 1\n",
                     b"# M\xc3\xbc\n0 1 # \xc3\xbc\n", b"# \xff\n0 1\n", b"0 1\n# \xc3\n", b"0 1 0\xc2\xb75\n",
                     b"0 1\xc2\xa00.5\n", b"\xef\xbc\x91 2 0.5\n"):
            assert graph_module._parse_buffer(text) is None, text

    def test_utf8_comment_header_keeps_the_fast_path(self, monkeypatch):
        data = b"# graph by M\xc3\xbcller\n" + b"".join(b"%d %d\n" % (i, i + 1) for i in range(50))
        monkeypatch.setattr(graph_module, "_parse_lines", None)
        for source in (data, io.BytesIO(data), io.StringIO(data.decode())):
            assert load_edge_list(source).edge_count == 50

    def test_text_file_object(self):
        g = load_edge_list(io.StringIO("10 20 0.5\n20 30 0.25\n"))
        assert list(g.original_ids) == [10, 20, 30] and list(g.out_prob) == [0.5, 0.25]

    def test_text_with_lone_surrogate_reports_line(self):
        with pytest.raises(GraphError, match="line 2: non-integer node id"):
            load_edge_list(io.StringIO("0 1\n1\ud800 2\n"))

    def test_non_integer_id_falls_back_to_the_loop(self):
        # The "u v p" scan reads ids as floats; a '.' or an exponent must still leave them to the loop.
        for text in (b"2.7 3\n", b"2.7 3 0.5\n", b"1e3 2 0.5\n"):
            assert graph_module._parse_buffer(text) is None
            with pytest.raises(GraphError, match="line 1: non-integer node id"):
                load_edge_list(text)


def _sort_densified(data):
    """The graph of `data` with ids densified by a sort and a binary search."""
    src, dst, prob = graph_module._parse_lines(data)
    ids = np.unique(np.concatenate([src, dst]))
    return Graph(len(ids), np.searchsorted(ids, src), np.searchsorted(ids, dst), prob, original_ids=ids)


def _edge_bytes(pairs):
    return b"".join(b"%d %d 0.5\n" % (u, v) for u, v in pairs)


class TestDensify:
    """Ids below the number read go through a presence table, others through a sort; same graph."""

    def assert_same_as_sort(self, data):
        want = _outcome(lambda: _sort_densified(data))
        assert _load_outcome(data, None) == want, data
        return want

    def test_random_id_sets(self):
        rng = np.random.default_rng(8)
        table = 0
        for case in range(200):
            m = int(rng.integers(1, 30))
            if case % 2:  # dense: the largest id is near the number of ids read
                lo, span = 0, int(rng.integers(2, 3 * m))
            else:  # sparse, up to 2^63 - 1
                lo, span = int(rng.integers(0, 1 << 62)), 1 << int(rng.integers(33, 62))
            pairs = list({(int(u), int(v)) for u, v in lo + rng.integers(0, span, size=(m, 2)) if u != v})
            if pairs:
                table += max(map(max, pairs)) < 2 * len(pairs)
            self.assert_same_as_sort(_edge_bytes([pairs[i] for i in rng.permutation(len(pairs))]))
        assert 20 <= table <= 80, table

    @pytest.mark.parametrize("extra", [-1, 0], ids=["max-id-2m-1", "max-id-2m"])
    def test_table_size_boundary(self, extra):
        pairs = [(2, 0), (0, 1), (3, 1)]
        pairs.append((1, 2 * (len(pairs) + 1) + extra))
        self.assert_same_as_sort(_edge_bytes(pairs))
        assert load_edge_list(_edge_bytes(pairs)).node_count == 5

    def test_ids_near_int64_max(self):
        top = (1 << 63) - 1
        self.assert_same_as_sort(_edge_bytes([(top, top - 1), (0, top), (top - 1, 0)]))
        g = load_edge_list(_edge_bytes([(top, 0)]))
        assert list(g.original_ids) == [0, top]

    @pytest.mark.parametrize("pairs", [[(1, 3), (3, 5), (1, 3)], [(10, 50), (50, 90), (10, 50)]],
                             ids=["table", "sort"])
    def test_duplicate_edge_named_by_original_ids(self, pairs):
        u, v = pairs[0]
        assert self.assert_same_as_sort(_edge_bytes(pairs)) == ("error", f"duplicate edge {u}->{v}")

    def test_empty_input(self):
        outcome = self.assert_same_as_sort(b"")
        assert outcome[0] == "graph"

    def test_num_nodes_keeps_ids(self):
        data = _edge_bytes([(0, 4), (4, 1)])
        want = _outcome(lambda: Graph(7, [0, 4], [4, 1], [0.5, 0.5]))
        assert _load_outcome(data, 7) == want


class TestLoadMemory:
    M = 200_000

    def traced_peak_per_edge(self, path, line):
        u = np.arange(self.M) // 10
        v = (u + 1 + 37 * (np.arange(self.M) % 10)) % 20_000
        p = np.random.default_rng(0).random(self.M)
        path.write_text("".join(line(*edge) for edge in zip(u.tolist(), v.tolist(), p.tolist())))
        load_edge_list(path)
        tracemalloc.start()
        try:
            g = load_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edge_count == self.M
        return peak / self.M

    def test_traced_peak_per_edge(self, tmp_path):
        # The buffer, the raw ids and the parse transients must be freed
        # before the CSR build. Its sort key and argsort (16 B/edge), on top
        # of the int32 ranks (8 B/edge) and the parsed zero probabilities
        # (8 B/edge), set the peak at about 35 B/edge; the scan's buffer, raw
        # ids and windows come to about 34. Keeping the buffer (~11 B/edge
        # here) or the raw ids (16 B/edge) alive through the build, or
        # widening the ranks to int64 (+8 B/edge), breaks the bound.
        per_edge = self.traced_peak_per_edge(tmp_path / "edges.txt", lambda a, b, p: f"{a} {b}\n")
        assert per_edge < 40, f"{per_edge:.1f} B/edge"

    def test_traced_peak_per_edge_with_probabilities(self, tmp_path):
        # Repr probabilities make 30.2 B/edge of text. The scan sets the peak at
        # ~59 B/edge: the buffer, the int64 ids and float64 probabilities it
        # fills (24 B/edge) and one window's slice and rows (~5 B/edge at this
        # size). Any whole-file copy on top (4 B/edge or more, such as every
        # field read into float64 before the ids are cast) breaks the bound; a
        # second window's rows alive (~1.3 B/edge) only just break it.
        per_edge = self.traced_peak_per_edge(tmp_path / "edges.txt", lambda a, b, p: f"{a} {b} {p!r}\n")
        assert per_edge <= 60, f"{per_edge:.1f} B/edge"


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

    def test_builder_rejects_nan_probability(self):
        # NaN fails every comparison, so the range check must test for inside.
        with pytest.raises(GraphError, match="probability"):
            Graph(3, [0, 1], [1, 2], [0.5, float("nan")])

    def test_builder_rejects_node_count_beyond_packed_key(self):
        # Raised before any array of node_count + 1 entries is allocated.
        with pytest.raises(GraphError, match=r"4294967297 nodes: .* need 66 bits, more than 64"):
            Graph((1 << 32) + 1, [], [], [])

    @pytest.mark.parametrize("kind", ["int32", "int64", "uint32", "list"])
    def test_id_dtypes_and_edge_order_give_identical_slots(self, kind):
        # Integer id arrays are used as they come and a list is cast to
        # int64; all give the same slots. Rows u hold u+1 and u+2, so a row's
        # last target often equals the next row's first; nodes 30..39 and the
        # last ones have no out-edges.
        cast = {"int32": np.int32, "int64": np.int64, "uint32": np.uint32}.get(kind)

        def ids(a):
            return a.tolist() if cast is None else a.astype(cast)

        rng = np.random.default_rng(13)
        n = 60
        pairs = np.array([(u, u + d) for u in range(n - 8) if not 30 <= u < 40 for d in (1, 2)]
                         + [tuple(e) for e in rng.integers(0, n, size=(200, 2))])
        pairs = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)
        m = len(pairs)
        probs = [rng.random(m), np.zeros(m), np.where(np.arange(m) == 7, -0.0, 0.0)]
        for prob in probs:
            want = [np.searchsorted(pairs[:, 0], np.arange(n + 1)), pairs[:, 1].astype(np.int32), prob]
            for _ in range(3):
                perm = rng.permutation(m)
                g = Graph(n, ids(pairs[perm, 0]), ids(pairs[perm, 1]), prob[perm])
                for got, ref in zip([g.out_indptr, g.out_dst, g.out_prob], want):
                    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        # Two duplicate pairs, given in any order: the smallest is named, in original ids.
        original = np.sort(rng.choice(10**12, size=n, replace=False))
        src = np.concatenate([pairs[:, 0], [40, 5]])
        dst = np.concatenate([pairs[:, 1], [42, 6]])
        for _ in range(3):
            perm = rng.permutation(m + 2)
            with pytest.raises(GraphError, match=f"^duplicate edge {original[5]}->{original[6]}$"):
                Graph(n, ids(src[perm]), ids(dst[perm]), np.zeros(m + 2), original_ids=original)

    def test_in_degrees_and_lt_slots_match_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            g = random_lt_graph(rng, n_max=7, m_max=10)
            n = g.node_count
            in_srcs = [[] for _ in range(n)]
            for u in range(n):
                for v in g.out_edges(u)[0]:
                    in_srcs[int(v)].append(u)
            assert g.in_degrees().tolist() == [len(srcs) for srcs in in_srcs]
            # The LT enumerator numbers outcomes in mixed radix (node 0 lowest);
            # node v's digit picks its in-edge by ascending source, or none.
            out_src = np.repeat(np.arange(n), g.out_degrees())
            rank = [sorted(in_srcs[int(v)]).index(int(u)) for u, v in zip(out_src, g.out_dst)]
            live = np.concatenate([chunk[3] for chunk in _outcome_chunks(g, "lt")], axis=1)
            radix = [len(srcs) + 1 for srcs in in_srcs]
            for o in range(live.shape[1]):
                digit, rest = [], o
                for r in radix:
                    digit.append(rest % r)
                    rest //= r
                assert live[:, o].tolist() == [digit[int(v)] == k for v, k in zip(g.out_dst, rank)]

    def test_footprint_stores_each_edge_once(self):
        g = power_law_graph(10_000, 100_000, rng_seed=3)
        n, m = g.node_count, g.edge_count
        total = sum(getattr(g, s).nbytes for s in Graph.__slots__ if isinstance(getattr(g, s), np.ndarray))
        # out_dst (int32) and out_prob per edge; out_indptr and original_ids per node.
        assert total <= 12 * m + 16 * (n + 1)
        # A two-hop state holds per-node arrays only: q1, q2, out_weight and the seed mask.
        s = init_state(g, "ic", 2)
        arrays = [getattr(s, a) for a in HopState.__slots__ if isinstance(getattr(s, a), np.ndarray)]
        assert len(arrays) == 4 and all(len(a) == n for a in arrays)
        assert sum(a.nbytes for a in arrays) <= 25 * n

    def test_pickle_round_trip_keeps_canonical_dtypes(self):
        # Unpickled numpy arrays carry non-canonical dtype instances, on which
        # np.add.at (the threshold cascade in a worker) ran ~20x slower.
        g = apply_weight_model(power_law_graph(300, 1500, rng_seed=3), WeightModel("wc"))
        h = pickle.loads(pickle.dumps(g))
        arrays = [s for s in Graph.__slots__ if isinstance(getattr(g, s), np.ndarray)]
        assert arrays == ["out_indptr", "out_dst", "out_prob", "original_ids"]
        for name in arrays:
            a, b = getattr(g, name), getattr(h, name)
            assert b.dtype is np.dtype(a.dtype.type) and a.dtype is b.dtype
            assert np.array_equal(a, b)
        assert (h.node_count, h.edge_count) == (g.node_count, g.edge_count)


class TestWeightModels:
    def test_wc_star(self):
        g = Graph(4, [0, 1, 2], [3, 3, 3], [0.0, 0.0, 0.0])
        gw = apply_weight_model(g, WeightModel("wc"))
        assert np.allclose(gw.out_prob, 1 / 3)

    def test_wc_then_lt_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = apply_weight_model(random_ic_graph(rng, n_max=15, m_max=40), WeightModel("wc"))
            assert validate_lt(g) == []
            assert g.out_prob.tobytes() == (1.0 / g.in_degrees()[g.out_dst]).tobytes()

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
