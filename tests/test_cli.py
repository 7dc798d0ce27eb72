"""End-to-end CLI behavior: outputs, round trips, and exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hopspread import cli
from hopspread.cli import main
from hopspread.generate import power_law_graph
from hopspread.graph import WeightModel, apply_weight_model
from hopspread.selection import greedy_celf


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text("10 20 0.5\n20 30 0.5\n")
    return str(path)


@pytest.fixture
def sparse_file(tmp_path):
    # Ids from 2^40 up: the loader densifies them by a sort, not a presence table.
    g = power_law_graph(200, 1000, rng_seed=4)
    src = np.repeat(np.arange(g.node_count), g.out_degrees()).tolist()
    path = tmp_path / "sparse.txt"
    path.write_text("".join(f"{(1 << 40) + 3 * u} {(1 << 40) + 3 * v}\n" for u, v in zip(src, g.out_dst.tolist())))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestSelect:
    def test_twohop_picks_first_chain_node(self, chain_file, tmp_path):
        out = tmp_path / "sel.json"
        code = main(["select", "--graph", chain_file, "--model", "file", "--algo", "twohop",
                     "--k", "1", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        assert payload["seeds"] == [10]
        assert payload["marginal_gains"][0] == pytest.approx(1.75, abs=1e-12)
        assert payload["algorithm"] == "twohop"

    def test_reports_evaluations_and_probes(self, tmp_path):
        # Two chains. After 0 (0 -> 1 -> 2) is picked, the stale round-0 keys
        # of 1 and 3 (3 -> 4) pop next: two hops probe both (1 falls to 0.75)
        # and evaluate only 3 (its probe bound, 1.5, still leads). One hop
        # evaluates every pop: 1 and 3 already in round 0 (their bounds, 1.5
        # plus slack, outrank 0's exact 1.5), then both again in round 1.
        path = tmp_path / "chains.txt"
        path.write_text("0 1 0.5\n1 2 0.5\n3 4 0.5\n")
        out = tmp_path / "sel.json"
        for algo, counts in (("twohop", (2, 2)), ("onehop", (5, 0))):
            assert main(["select", "--graph", str(path), "--model", "file", "--algo", algo,
                         "--k", "2", "--out", str(out)]) == 0
            payload = read_json(out)
            assert payload["seeds"] == [0, 3]
            assert (payload["evaluations"], payload["probes"]) == counts

    def test_twohop_o_same_seeds(self, chain_file, tmp_path):
        out = tmp_path / "sel.json"
        assert main(["select", "--graph", chain_file, "--model", "file", "--algo", "twohop-o",
                     "--k", "1", "--out", str(out)]) == 0
        assert read_json(out)["seeds"] == [10]

    def test_highdegree(self, chain_file, tmp_path):
        out = tmp_path / "sel.json"
        assert main(["select", "--graph", chain_file, "--algo", "highdegree", "--k", "2",
                     "--out", str(out)]) == 0
        assert read_json(out)["seeds"] == [10, 20]

    def test_degreediscount(self, chain_file, tmp_path):
        out = tmp_path / "sel.json"
        assert main(["select", "--graph", chain_file, "--algo", "degreediscount", "--k", "2",
                     "--out", str(out)]) == 0
        assert read_json(out)["seeds"] == [10, 30]

    def test_lt_diffusion(self, chain_file, tmp_path):
        out = tmp_path / "sel.json"
        assert main(["select", "--graph", chain_file, "--model", "file", "--algo", "twohop",
                     "--diffusion", "lt", "--k", "1", "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["seeds"] == [10]
        assert payload["algorithm"] == "twohop"

    def test_csv_format(self, chain_file, tmp_path):
        out = tmp_path / "sel.csv"
        assert main(["select", "--graph", chain_file, "--model", "file", "--algo", "twohop",
                     "--k", "2", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "rank,seed,marginal_gain"
        assert len(lines) == 3

    def test_select_has_no_hops_flag(self, chain_file, capsys):
        # --algo sets the hop count, so select has no --hops flag.
        assert main(["select", "--graph", chain_file, "--algo", "onehop", "--hops", "2",
                     "--k", "1"]) == 1
        assert "unrecognized arguments: --hops 2" in capsys.readouterr().err

    def test_config_reports_the_hop_count_of_the_algorithm(self, chain_file, tmp_path):
        # The degree heuristics have no hop count and compute no spread.
        out = tmp_path / "sel.json"
        for algo, hops in (("onehop", 1), ("twohop", 2), ("twohop-o", 2), ("highdegree", None),
                           ("degreediscount", None)):
            assert main(["select", "--graph", chain_file, "--model", "file", "--algo", algo,
                         "--k", "1", "--out", str(out)]) == 0
            payload = read_json(out)
            assert (payload["algorithm"], payload["config"]["hops"]) == (algo, hops)
            assert (payload["spread"] is None) == (hops is None)

    def test_tri_without_rng_seed_records_and_replays_its_seed(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("".join(f"{u} {(u * 7 + 3) % 40}\n{u} {(u * 11 + 5) % 40}\n" for u in range(40)))
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["select", "--graph", str(graph), "--model", "tri", "--algo", "twohop",
                     "--k", "3", "--out", str(first)]) == 0
        payload = read_json(first)
        model = payload["config"]["model"]
        assert model.startswith("tri:") and int(model[4:]) >= 0
        assert main(["select", "--graph", str(graph), "--model", "tri", "--rng-seed", model[4:],
                     "--algo", "twohop", "--k", "3", "--out", str(second)]) == 0
        again = read_json(second)
        assert again["config"]["model"] == model
        assert (again["seeds"], again["marginal_gains"]) == (payload["seeds"], payload["marginal_gains"])
        # Each run without --rng-seed draws its own seed.
        assert main(["select", "--graph", str(graph), "--model", "tri", "--algo", "twohop",
                     "--k", "3", "--out", str(second)]) == 0
        assert read_json(second)["config"]["model"] != model

    def test_without_out_writes_stdout(self, chain_file, tmp_path, capsys):
        out = tmp_path / "sel.json"
        argv = ["select", "--graph", chain_file, "--model", "file", "--algo", "twohop", "--k", "2"]
        assert main(argv) == 0
        printed = json.loads(capsys.readouterr().out)
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        written = read_json(out)
        for key in ("seeds", "marginal_gains", "spread", "evaluations", "probes", "config"):
            assert printed[key] == written[key]

    def test_nonpositive_k_is_config_error(self, chain_file):
        assert main(["select", "--graph", chain_file, "--algo", "twohop", "--k", "0"]) == 1

    def test_nonpositive_n_sims_is_config_error(self, chain_file, tmp_path):
        seeds = tmp_path / "s.json"
        seeds.write_text("[10]")
        assert main(["evaluate", "--graph", chain_file, "--seeds-file", str(seeds),
                     "--n-sims", "0"]) == 1

    def test_unknown_algo_is_config_error(self, chain_file):
        assert main(["select", "--graph", chain_file, "--algo", "bogus", "--k", "1"]) == 1

    def test_missing_graph_is_data_error(self, tmp_path):
        assert main(["select", "--graph", str(tmp_path / "nope.txt"), "--algo", "twohop",
                     "--k", "1"]) == 2

    def test_malformed_graph_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0\n")
        assert main(["select", "--graph", str(bad), "--algo", "twohop", "--k", "1"]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"0 1\n9223372036854775808 1\n", "line 2: node id beyond 2^63 - 1"),
            (b"0 1\n1 \xff2\n", "line 2: byte 0xff is not UTF-8"),
            (b"0 1 0.5\n1 2 1e\n", "line 2: non-numeric probability"),
            (b"0 1 0.5\n1 2 1.5.3\n", "line 2: non-numeric probability"),
            (b"0 1 0.5\n1 2 inf\n", "line 2: probability inf outside [0, 1]"),
        ],
        ids=["id-beyond-2^63", "not-utf8", "exponent-without-digits", "two-points", "inf-probability"],
    )
    def test_hostile_graph_is_located_data_error(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(text)
        assert main(["select", "--graph", str(bad), "--algo", "twohop", "--k", "1"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["select", "--graph", "g.txt", "--model", "tri:abc", "--algo", "onehop", "--k", "1"], "--model tri:abc"),
            (["select", "--graph", "g.txt", "--model", "file", "--scale", "inf", "--algo", "onehop", "--k", "1"],
             "--scale inf"),
            (["evaluate", "--graph", "g.txt", "--seeds-file", "seeds.txt", "--hop-limit", "-1"], "--hop-limit"),
            (["bench", "--graph", "g.txt", "--model", "file", "--scales", "inf", "--algos", "highdegree", "--ks", "1"],
             "--scales inf"),
            (["bench", "--graph", "g.txt", "--model", "file", "--scale", "5", "--algos", "highdegree", "--ks", "1"],
             "unrecognized arguments: --scale 5"),
            (["bench", "--graph", "g.txt", "--format", "json", "--algos", "highdegree", "--ks", "1"],
             "unrecognized arguments: --format json"),
            (["bench", "--synthetic", "50,200,2.5", "--num-nodes", "7", "--algos", "highdegree"],
             "unrecognized arguments: --num-nodes 7"),
            (["select", "--graph", "g.txt", "--num-nodes", "4", "--algo", "highdegree", "--k", "4"],
             "unrecognized arguments: --num-nodes 4"),
            (["select", "--graph", "g.txt", "--degree-kind", "in", "--algo", "highdegree", "--k", "1"],
             "unrecognized arguments: --degree-kind in"),
            (["bench", "--synthetic", "50,200,2.5", "--degree-kind", "total", "--algos", "highdegree"],
             "unrecognized arguments: --degree-kind total"),
            # The graph file does not exist: the seed is refused before it is read.
            (["evaluate", "--graph", "missing.txt", "--seeds-file", "seeds.txt", "--rng-seed", "-1"], "--rng-seed"),
            (["select", "--graph", "missing.txt", "--model", "tri", "--rng-seed", "-1", "--algo", "onehop", "--k", "1"],
             "--rng-seed"),
            (["bounds", "--graph", "missing.txt", "--rng-seed", "x"], "--rng-seed: 'x'"),
            (["bench", "--synthetic", "30,60,2.5", "--rng-seed", "-1"], "--rng-seed"),
            (["bounds", "--graph", "missing.txt", "--model", "tri:-1"], "--model tri:-1"),
            (["alpha-surface", "--p-grid", "0:1:1001"], "--p-grid: a grid takes 1 to 1000 values, got 1001"),
            (["alpha-surface", "--ratio-grid", ",".join(["0.5"] * 1001)],
             "--ratio-grid: a grid takes 1 to 1000 values, got 1001"),
            (["alpha-surface", "--p-grid", "a:b:3"], "--p-grid: 'a'"),
            (["alpha-surface", "--p-grid", "0:1:x"], "--p-grid: 'x'"),
            (["alpha-surface", "--ratio-grid", "a:b:3"], "--ratio-grid: 'a'"),
            (["alpha-surface", "--ratio-grid", "0:1:x"], "--ratio-grid: 'x'"),
            (["bench", "--graph", "g.txt", "--ks", "x"], "--ks: 'x'"),
            (["bench", "--graph", "g.txt", "--algos", " , "], "--algos: empty sweep"),
            (["bench", "--graph", "g.txt", "--scales", "y"], "--scales: 'y'"),
            (["bench", "--synthetic", "60,x,2.5"], "--synthetic: 'x'"),
            (["bench", "--synthetic", ""], "--synthetic must be n,m,gamma"),
            (["bench", "--synthetic", "60,200,1.0", "--algos", "highdegree"], "--synthetic 60,200,1.0: gamma"),
            (["select", "--graph", "g.txt", "--dd-p", "2", "--algo", "degreediscount", "--k", "1"], "--dd-p"),
            (["bench", "--graph", "g.txt", "--algos", "highdegree", "--ks", "0"], "--ks"),
            (["bounds", "--graph", "g.txt", "--hops", "-1"], "--hops"),
            (["alpha-surface", "--gamma", "2"], "--gamma 2"),
            (["alpha-surface", "--gamma", "0.5"], "--gamma 0.5"),
            (["alpha-surface", "--gamma", "60"], "--gamma 60"),
            (["alpha-surface", "--p-grid", "0,1.5"], "--p-grid 0,1.5"),
            (["alpha-surface", "--ratio-grid", "0,2"], "--ratio-grid 0,2"),
            (["alpha-surface", "--truncation", "999"], "--truncation 999"),
        ],
        ids=["model", "scale", "hop-limit", "bench-scales", "bench-scale", "bench-format", "bench-num-nodes",
             "select-num-nodes", "select-degree-kind", "bench-degree-kind", "evaluate-rng-seed", "select-rng-seed",
             "bounds-rng-seed-integer", "bench-rng-seed", "model-tri-seed", "p-grid-too-long", "ratio-grid-too-long",
             "p-grid-bounds", "p-grid-count", "ratio-grid-bounds", "ratio-grid-count", "bench-ks", "bench-algos-empty",
             "bench-scales-number", "synthetic-m", "synthetic-empty", "synthetic-gamma", "dd-p", "bench-ks-zero",
             "bounds-hops", "gamma-2", "gamma-0.5", "gamma-60", "p-grid-range", "ratio-grid-range",
             "truncation-low"],
    )
    def test_bad_flag_value_is_config_error_naming_flag(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.txt").write_text("10 20 0\n20 30 0.5\n")
        (tmp_path / "seeds.txt").write_text("10\n")
        assert main(argv) == 1
        assert flag in capsys.readouterr().err

    def test_k_too_large_is_data_error(self, chain_file):
        assert main(["select", "--graph", chain_file, "--algo", "twohop", "--k", "99"]) == 2
        assert main(["bench", "--graph", chain_file, "--algos", "twohop", "--ks", "99", "--n-sims", "1"]) == 2


@pytest.mark.parametrize(
    "argv",
    [["evaluate", "--seeds-file", "seeds.txt"], ["select", "--algo", "twohop", "--k", "1"],
     ["bench", "--algos", "highdegree", "--ks", "1", "--n-sims", "5"]],
    ids=["evaluate", "select", "bench"],
)
def test_overweight_lt_graph_is_data_error_naming_input_id(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text("10 40\n20 40\n30 40\n")
    (tmp_path / "seeds.txt").write_text("10\n")
    assert main([*argv, "--graph", "g.txt", "--model", "uniform:0.5", "--diffusion", "lt"]) == 2
    assert "1 nodes exceed unit incoming weight (first: 40)" in capsys.readouterr().err


class TestEvaluate:
    def test_round_trip_from_select_output(self, chain_file, tmp_path):
        sel = tmp_path / "sel.json"
        assert main(["select", "--graph", chain_file, "--model", "file", "--algo", "twohop",
                     "--k", "1", "--out", str(sel)]) == 0
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--graph", chain_file, "--model", "file", "--seeds-file", str(sel),
                     "--n-sims", "4000", "--rng-seed", "3", "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["seeds"] == [10]
        assert abs(payload["mean"] - 1.75) <= 4.0 * payload["std_error"]
        assert payload["simulations"] == 4000

    def test_plain_list_and_line_formats(self, chain_file, tmp_path):
        for text, name in (("[10, 20]", "list.json"), ("10\n20\n", "lines.txt")):
            seeds = tmp_path / name
            seeds.write_text(text)
            out = tmp_path / f"eval-{name}.json"
            assert main(["evaluate", "--graph", chain_file, "--model", "file",
                         "--seeds-file", str(seeds), "--n-sims", "50", "--rng-seed", "1",
                         "--out", str(out)]) == 0
            assert read_json(out)["seeds"] == [10, 20]

    def test_csv_row_matches_json(self, chain_file, tmp_path):
        seeds = tmp_path / "s.json"
        seeds.write_text("[10]")
        rows = {}
        for fmt in ("json", "csv"):
            out = tmp_path / f"eval.{fmt}"
            assert main(["evaluate", "--graph", chain_file, "--model", "file", "--seeds-file", str(seeds),
                         "--n-sims", "300", "--rng-seed", "9", "--format", fmt, "--out", str(out)]) == 0
            rows[fmt] = out.read_text()
        header, row = rows["csv"].strip().split("\n")
        assert header == "mean,simulations,std_error"
        mean, sims, se = row.split(",")
        payload = json.loads(rows["json"])
        assert (float(mean), int(sims), float(se)) == (payload["mean"], 300, payload["std_error"])

    def test_all_nodes_mean_is_node_count(self, chain_file, tmp_path):
        seeds = tmp_path / "all.json"
        seeds.write_text("[10, 20, 30]")
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--graph", chain_file, "--model", "file", "--seeds-file", str(seeds),
                     "--n-sims", "100", "--rng-seed", "1", "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["mean"] == 3.0 and payload["std_error"] == 0.0

    def test_unknown_seed_id_is_data_error(self, chain_file, tmp_path):
        seeds = tmp_path / "bad.json"
        seeds.write_text("[99]")
        assert main(["evaluate", "--graph", chain_file, "--seeds-file", str(seeds)]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[null]", "entry 0: invalid seed id None"),
            ('{"seeds": 5}', "expected a JSON list of ids"),
            ("10\nx\n", "line 2: invalid seed id 'x'"),
            ("10\n99999999999999999999\n", "line 2: invalid seed id 99999999999999999999"),
            ("10\x0c20\rx\n", "line 2: invalid seed id 'x'"),
            ("[10,\r 20,]", "line 2 column 5: Expecting value"),
        ],
    )
    def test_malformed_seed_file_is_data_error(self, chain_file, tmp_path, capsys, text, message):
        seeds = tmp_path / "bad.txt"
        seeds.write_text(text)
        assert main(["evaluate", "--graph", chain_file, "--seeds-file", str(seeds)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"\xff1\n", ", line 1: byte 0xff is not UTF-8"),
            (b"10\r\n20 \xc3\x28\n", ", line 2: byte 0xc3 is not UTF-8"),
            (b"[10,\n \xfe]", ", line 2: byte 0xfe is not UTF-8"),
            (b"[10,\x0c 20,\n \xfe]", ", line 2: byte 0xfe is not UTF-8"),
            (b"10\r20\x0c\xfe\n", ", line 2: byte 0xfe is not UTF-8"),
            (b"[10, ", ": line 1 column 6: Expecting value"),
            (b'{"seeds": [10],\n', ": line 2 column 1: Expecting property name enclosed in double quotes"),
            (b"[10] 20", ": line 1 column 6: Extra data"),
        ],
    )
    def test_undecodable_seed_file_names_the_file(self, chain_file, tmp_path, capsys, data, message):
        seeds = tmp_path / "bad-seeds"
        seeds.write_bytes(data)
        assert main(["evaluate", "--graph", chain_file, "--seeds-file", str(seeds)]) == 2
        err = capsys.readouterr().err
        assert f"hopspread: error: seed file {seeds}{message}" in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1.5, true]", "entry 0: invalid seed id 1.5"),
            ("[1, true]", "entry 1: invalid seed id True"),
            ('{"seeds": [2.9]}', "entry 0: invalid seed id 2.9"),
            ('{"seeds": [0, 2.0]}', "entry 1: invalid seed id 2.0"),
            ("1.5\n", "line 1: invalid seed id '1.5'"),
        ],
    )
    def test_seed_ids_must_be_integers(self, tmp_path, capsys, text, message):
        # Every rejected value would truncate to an id of this graph.
        graph = tmp_path / "g.txt"
        graph.write_text("0 1 0.5\n1 2 0.5\n")
        seeds = tmp_path / "seeds"
        seeds.write_text(text)
        assert main(["evaluate", "--graph", str(graph), "--model", "file", "--seeds-file", str(seeds),
                     "--n-sims", "10", "--rng-seed", "1"]) == 2
        assert message in capsys.readouterr().err

    def test_drawn_seed_recorded(self, chain_file, tmp_path):
        seeds = tmp_path / "s.json"
        seeds.write_text("[10]")
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--graph", chain_file, "--model", "file", "--seeds-file", str(seeds),
                     "--n-sims", "20", "--out", str(out)]) == 0
        assert isinstance(read_json(out)["rng_seed"], int)

    def test_deterministic_for_fixed_seed(self, chain_file, tmp_path):
        seeds = tmp_path / "s.json"
        seeds.write_text("[10]")
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["evaluate", "--graph", chain_file, "--model", "file", "--seeds-file", str(seeds),
                         "--n-sims", "500", "--rng-seed", "11", "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]


class TestBounds:
    def test_json(self, chain_file, tmp_path):
        out = tmp_path / "b.json"
        assert main(["bounds", "--graph", chain_file, "--model", "file", "--hops", "2",
                     "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["bounds"] == [[10, 1.75], [20, 1.5], [30, 1.0]]

    def test_huge_hop_count_runs_n_levels(self, chain_file, tmp_path):
        outs = {}
        for hops in ("3", "100000000"):
            out = tmp_path / f"b{hops}.json"
            t0 = time.perf_counter()
            assert main(["bounds", "--graph", chain_file, "--model", "file", "--hops", hops,
                         "--out", str(out)]) == 0
            assert time.perf_counter() - t0 < 1.0
            outs[hops] = read_json(out)
        assert outs["100000000"]["hops"] == 100000000
        assert outs["100000000"]["bounds"] == outs["3"]["bounds"] == [[10, 1.75], [20, 1.5], [30, 1.0]]

    def test_csv(self, chain_file, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bounds", "--graph", chain_file, "--model", "file", "--hops", "1",
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "node,bound" and lines[1] == "10,1.5"


class TestOneWriter:
    """select, evaluate and bounds write JSON or CSV through one path."""

    @staticmethod
    def both_formats(capsys, argv):
        texts = {}
        for fmt in ("json", "csv"):
            assert main(argv + ["--format", fmt]) == 0
            texts[fmt] = capsys.readouterr().out
        header, *rows = texts["csv"].removesuffix("\n").split("\n")
        return json.loads(texts["json"]), header, [row.split(",") for row in rows]

    @pytest.mark.parametrize("algo", cli.ALGORITHMS)
    def test_select_csv_rows_equal_json(self, sparse_file, capsys, algo):
        payload, header, rows = self.both_formats(capsys, ["select", "--graph", sparse_file, "--algo", algo,
                                                           "--k", "4"])
        assert header == "rank,seed,marginal_gain" and len(payload["seeds"]) == len(rows) == 4
        # The degree heuristics report no gains: their gain column is empty.
        gains = payload["marginal_gains"] if algo in cli.HOPS else [""] * 4
        assert len(gains) == 4
        assert rows == [[str(i), str(s), str(gain)] for i, (s, gain) in enumerate(zip(payload["seeds"], gains))]

    def test_bounds_csv_rows_equal_json_pairs(self, sparse_file, capsys):
        payload, header, rows = self.both_formats(capsys, ["bounds", "--graph", sparse_file, "--hops", "3"])
        pairs = payload["bounds"]
        assert header == "node,bound" and len(rows) == len(pairs) > 100
        assert pairs[0][0] >= 1 << 40 and all(a[0] < b[0] for a, b in zip(pairs, pairs[1:]))
        assert rows == [[str(node), f"{bound:.10g}"] for node, bound in pairs]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", ["select", "evaluate", "bounds"])
    def test_stdout_and_out_hold_the_same_bytes(self, sparse_file, tmp_path, capsys, command, fmt):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text(Path(sparse_file).read_text().split()[0])
        extra = {"select": ["--algo", "twohop", "--k", "3"],
                 "evaluate": ["--seeds-file", str(seeds), "--n-sims", "50", "--rng-seed", "3"],
                 "bounds": []}[command]
        argv = [command, "--graph", sparse_file, *extra, "--format", fmt]
        out = tmp_path / "out"
        assert main(argv) == 0
        printed = capsys.readouterr().out.encode()
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        # select times itself; every other byte is the same.
        elapsed = re.compile(rb'"elapsed_seconds": [^,]*')
        assert elapsed.sub(b"", printed) == elapsed.sub(b"", out.read_bytes())
        assert printed.endswith(b"\n") and printed.count(b"\n") > 1


class TestAlphaSurface:
    def test_grid_output(self, tmp_path):
        out = tmp_path / "surface.csv"
        assert main(["alpha-surface", "--gamma", "3.0", "--p-grid", "0:0.1:3",
                     "--ratio-grid", "0:0.5:3", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "p,seed_ratio,alpha"
        assert len(lines) == 10
        alphas = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(0.0 <= a <= 1.0 for a in alphas)

    def test_comma_list_grid_equals_linspace_grid(self, tmp_path):
        texts = []
        for grid in ("0,0.05,0.1", "0:0.1:3"):
            out = tmp_path / "surface.csv"
            assert main(["alpha-surface", "--p-grid", grid, "--ratio-grid", "0.1,0.5",
                         "--truncation", "1000", "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert len(texts[0].strip().split("\n")) == 7

    @pytest.mark.parametrize(
        "argv, sha1",
        [
            ([], "067bff61c3f4996e3671e0a4a2670a2fcb84fab1"),
            (["--gamma", "2.5", "--truncation", "10000000", "--p-grid", "0:0.3:31", "--ratio-grid", "0:1:21"],
             "cfd77151fcf5ff53d4efdc917335f504cbc0bdd6"),
            # r = 0, the crossover r* (computed from P0(1) and P1(1)) and 1, where each column is flat in p.
            (["--p-grid", "0:1:11", "--ratio-grid", "0,0.4846440685457918,1"],
             "7901b31a5609dee4e607c0037acec37c9d75203e"),
            (["--gamma", "2.5", "--truncation", "10000000", "--p-grid", "0,0.5,1", "--ratio-grid",
              "1,0.44663821943452964,0"], "9e82311b4d43abd799f907d323cb68930a037d70"),
        ],
        ids=["default", "gamma-2.5", "crossover-gamma-3", "crossover-gamma-2.5"],
    )
    def test_csv_bytes_are_pinned(self, capsys, argv, sha1):
        assert main(["alpha-surface", *argv]) == 0
        assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == sha1

    @pytest.mark.parametrize("p_count, ratio_count", [(1000, 100), (100, 1000)])
    def test_surface_is_written_row_by_row(self, tmp_path, p_count, ratio_count):
        # 10^5 points are ~3.5 MB of CSV; a writer that holds every row, or the whole text, peaks near 25 MiB.
        out = tmp_path / "surface.csv"
        tracemalloc.start()
        try:
            code = main(["alpha-surface", "--p-grid", f"0:1:{p_count}", "--ratio-grid", f"0:1:{ratio_count}",
                         "--truncation", "1000", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 8 << 20, peak
        assert len(out.read_text().split("\n")) == p_count * ratio_count + 2

    def test_refused_surface_writes_nothing(self, tmp_path, capsys):
        # The first point is sound and r = 0 is degenerate: the grid is checked whole before --out is opened.
        out = tmp_path / "surface.csv"
        assert main(["alpha-surface", "--gamma", "60", "--p-grid", "0.1,0.2", "--ratio-grid", "0.5,0",
                     "--out", str(out)]) == 1
        printed, errors = capsys.readouterr()
        assert not out.exists() and printed == "" and "degenerate denominator" in errors

    def test_bad_grid_is_config_error(self):
        assert main(["alpha-surface", "--p-grid", "0:0.1"]) == 1

    def test_grid_count_is_refused_before_linspace(self, monkeypatch, capsys):
        # 10^12 values would ask numpy for 7.28 TiB.
        def linspace(*args):
            raise AssertionError("linspace called")

        monkeypatch.setattr(cli.np, "linspace", linspace)
        assert main(["alpha-surface", "--p-grid", "0:1:1000000000000"]) == 1
        assert "--p-grid: a grid takes 1 to 1000 values" in capsys.readouterr().err

    def test_truncation_beyond_limit_is_refused_before_allocating(self, capsys):
        # 10^12 degrees would ask numpy for a 7.28 TiB power table.
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            code = main(["alpha-surface", "--truncation", "1000000000000"])
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and elapsed < 1.0 and peak < 1 << 20
        assert "truncation" in capsys.readouterr().err


class TestBench:
    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--synthetic", "60,200,2.5", "--algos", "onehop,highdegree",
                     "--ks", "2,3", "--scales", "1.0,1.5", "--n-sims", "30",
                     "--rng-seed", "5", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "algorithm,k,scale_factor,seconds,evaluations,spread_estimate,seeds,probes"
        # One row per scale, algorithm and k, in that nesting.
        assert [line.split(",")[0] for line in lines[1:]] == ["onehop", "onehop", "highdegree", "highdegree"] * 2

    @staticmethod
    def assert_twohop_variants_agree(tmp_path, diffusion):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--synthetic", "400,1600,2.5", "--algos", "twohop,twohop-o",
                     "--diffusion", diffusion, "--ks", "5", "--scales", "1.0", "--n-sims", "20",
                     "--rng-seed", "7", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        by_algo = {r[0]: r for r in rows}
        assert by_algo["twohop"][6] == by_algo["twohop-o"][6]
        assert int(by_algo["twohop"][4]) < int(by_algo["twohop-o"][4])
        g = apply_weight_model(power_law_graph(400, 1600, gamma=2.5, rng_seed=7), WeightModel("wc"))
        for algo, bootstrap in (("twohop", "upper_bounds"), ("twohop-o", "none")):
            result = greedy_celf(g, 5, model=diffusion, bootstrap=bootstrap)
            row = by_algo[algo]
            assert (int(row[4]), int(row[7])) == (result.evaluations, result.probes)

    def test_twohop_variants_agree_with_fewer_evaluations(self, tmp_path):
        self.assert_twohop_variants_agree(tmp_path, "ic")

    def test_lt_twohop_variants_agree_with_fewer_evaluations(self, tmp_path):
        self.assert_twohop_variants_agree(tmp_path, "lt")

    def test_empty_sweep_is_config_error(self):
        assert main(["bench", "--synthetic", "50,100,2.5", "--ks", ""]) == 1

    def test_needs_exactly_one_source(self, chain_file):
        assert main(["bench", "--ks", "1"]) == 1
        assert main(["bench", "--graph", chain_file, "--synthetic", "50,100,2.5", "--ks", "1"]) == 1

    def test_checks_model_and_scales_before_any_work(self, chain_file, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("bench did work before checking its flags")

        for name in ("power_law_graph", "load_edge_list", "estimate_spread"):
            monkeypatch.setattr(cli, name, refuse)
        synthetic = ["bench", "--synthetic", "300,1500,2.5", "--algos", "twohop,highdegree", "--ks", "5",
                     "--n-sims", "10"]
        for argv, message in ((synthetic + ["--scales", "1.0,nan"], "--scales nan"),
                              (synthetic + ["--model", "bogus"], "--model bogus"),
                              (synthetic + ["--algos", "twohop,degreediscount", "--dd-p", "2"], "--dd-p"),
                              (["bench", "--graph", chain_file, "--scales", "nan"], "--scales nan")):
            assert main(argv) == 1
            assert message in capsys.readouterr().err


class TestSubprocess:
    def test_module_entry_point(self, chain_file):
        # The child finds the package in src/ whether or not it is installed.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "hopspread.cli", "select", "--graph", chain_file,
             "--model", "file", "--algo", "onehop", "--k", "1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["seeds"] == [10]
