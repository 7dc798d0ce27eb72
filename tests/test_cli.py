"""End-to-end CLI behavior: outputs, round trips, and exit codes."""

import json
import subprocess
import sys

import pytest

from hopspread.cli import main


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text("10 20 0.5\n20 30 0.5\n")
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

    def test_reports_evaluations_and_bound_refreshes(self, tmp_path):
        # Two chains. After 0 (0 -> 1 -> 2) is picked, the stale round-0 keys
        # of 1 and 3 (3 -> 4) pop next: two hops re-bound both (1 falls to
        # 0.75) and evaluate only 3. One hop evaluates every pop: 1 and 3
        # already in round 0 (their bounds, 1.5 plus slack, outrank 0's
        # exact 1.5), then both again in round 1.
        path = tmp_path / "chains.txt"
        path.write_text("0 1 0.5\n1 2 0.5\n3 4 0.5\n")
        out = tmp_path / "sel.json"
        for algo, evaluations, refreshes in (("twohop", 2, 2), ("onehop", 5, 0)):
            assert main(["select", "--graph", str(path), "--model", "file", "--algo", algo,
                         "--k", "2", "--out", str(out)]) == 0
            payload = read_json(out)
            assert payload["seeds"] == [0, 3]
            assert (payload["evaluations"], payload["bound_refreshes"]) == (evaluations, refreshes)

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

    def test_hops_algo_mismatch_is_config_error(self, chain_file):
        assert main(["select", "--graph", chain_file, "--algo", "onehop", "--hops", "2",
                     "--k", "1"]) == 1

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
             "use --scales 5"),
            (["alpha-surface", "--p-grid", "a:b:3"], "--p-grid: 'a'"),
            (["alpha-surface", "--p-grid", "0:1:x"], "--p-grid: 'x'"),
            (["alpha-surface", "--ratio-grid", "a:b:3"], "--ratio-grid: 'a'"),
            (["alpha-surface", "--ratio-grid", "0:1:x"], "--ratio-grid: 'x'"),
            (["bench", "--graph", "g.txt", "--ks", "x"], "--ks: 'x'"),
            (["bench", "--graph", "g.txt", "--scales", "y"], "--scales: 'y'"),
            (["bench", "--synthetic", "60,x,2.5"], "--synthetic: 'x'"),
            (["bench", "--synthetic", "60,200,1.0", "--algos", "highdegree"], "--synthetic 60,200,1.0: gamma"),
            (["select", "--graph", "g.txt", "--dd-p", "2", "--algo", "degreediscount", "--k", "1"], "--dd-p"),
        ],
        ids=["model", "scale", "hop-limit", "bench-scales", "bench-scale", "p-grid-bounds", "p-grid-count",
             "ratio-grid-bounds", "ratio-grid-count", "bench-ks", "bench-scales-number", "synthetic-m",
             "synthetic-gamma", "dd-p"],
    )
    def test_bad_flag_value_is_config_error_naming_flag(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.txt").write_text("10 20 0\n20 30 0.5\n")
        (tmp_path / "seeds.txt").write_text("10\n")
        assert main(argv) == 1
        assert flag in capsys.readouterr().err

    def test_k_too_large_is_data_error(self, chain_file):
        assert main(["select", "--graph", chain_file, "--algo", "twohop", "--k", "99"]) == 2

    def test_num_nodes_pads_isolated(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("0 1\n")
        out = tmp_path / "sel.json"
        assert main(["select", "--graph", str(path), "--num-nodes", "4", "--algo", "highdegree",
                     "--k", "4", "--out", str(out)]) == 0
        assert sorted(read_json(out)["seeds"]) == [0, 1, 2, 3]


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

    def test_csv(self, chain_file, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bounds", "--graph", chain_file, "--model", "file", "--hops", "1",
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "node,bound" and lines[1] == "10,1.5"


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

    def test_bad_grid_is_config_error(self):
        assert main(["alpha-surface", "--p-grid", "0:0.1"]) == 1


class TestBench:
    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--synthetic", "60,200,2.5", "--algos", "onehop,highdegree",
                     "--ks", "2,3", "--scales", "1.0,1.5", "--n-sims", "30",
                     "--rng-seed", "5", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "algorithm,k,scale_factor,seconds,evaluations,spread_estimate,seeds"
        assert len(lines) == 1 + 2 * 2 * 2

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

    def test_twohop_variants_agree_with_fewer_evaluations(self, tmp_path):
        self.assert_twohop_variants_agree(tmp_path, "ic")

    def test_lt_twohop_variants_agree_with_fewer_evaluations(self, tmp_path):
        self.assert_twohop_variants_agree(tmp_path, "lt")

    def test_empty_sweep_is_config_error(self):
        assert main(["bench", "--synthetic", "50,100,2.5", "--ks", ""]) == 1

    def test_needs_exactly_one_source(self, chain_file):
        assert main(["bench", "--ks", "1"]) == 1
        assert main(["bench", "--graph", chain_file, "--synthetic", "50,100,2.5", "--ks", "1"]) == 1


class TestSubprocess:
    def test_module_entry_point(self, chain_file):
        proc = subprocess.run(
            [sys.executable, "-m", "hopspread.cli", "select", "--graph", chain_file,
             "--model", "file", "--algo", "onehop", "--k", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["seeds"] == [10]
