"""Tests of the benchmark itself: `python -m pytest bench`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import harness
import spans
from hopspread import cli, selection

TINY = harness.Workload("tiny", 2000, 20000, "ic", "twohop", 10, 20, "smoke test")


def test_benchmark_json_matches_harness():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("traced, table", [(False, harness.END_TO_END), (True, harness.PER_LAYER)])
def test_tiny_run_emits_every_metric(traced, table):
    result, info = harness.run(TINY, 3, 0.0, traced)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {n: u for n, (u, _) in table.items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if traced:
        assert info["min_self_time_s"] >= 0.0
        assert info["traced_iterations"] >= 1 and info["untraced_iterations"] >= 1


def test_installed_wrappers_are_removed():
    originals = [getattr(module, attr) for module, attr, _ in spans.CALL_SITES]
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.greedy_celf is not originals[2] and selection.eval_gain is not originals[6]
    assert [getattr(module, attr) for module, attr, _ in spans.CALL_SITES] == originals


def test_self_times_subtract_direct_children():
    sp = [("root", 0.0, 10.0, None, None), ("a", 1.0, 4.0, 0, None), ("b", 2.0, 3.0, 1, None), ("c", 5.0, 9.0, 0, None)]
    assert spans.self_times(sp) == [3.0, 2.0, 1.0, 4.0]


@pytest.fixture(scope="module")
def tiny_select(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    graph = work / "graph.txt"
    harness.make_input(TINY, 5, graph)
    s, e = harness.run_iteration(TINY, 5, graph, work)
    edges = check.EdgeList(graph)
    expected = check.closed_form_spread(edges, s.output["seeds"], TINY.diffusion, TINY.hops)
    return s.output, e.output, edges, expected


def test_checker_accepts_real_outputs(tiny_select):
    out, ev, edges, expected = tiny_select
    assert check.select_problems(out, TINY.k, edges, expected) == []
    assert check.evaluate_problems(ev, out, TINY.n_sims, expected) == []


@pytest.mark.parametrize("corrupt", [
    lambda o: o.update(spread=o["spread"] * (1 + 1e-6)),
    lambda o: o["seeds"].__setitem__(1, o["seeds"][0]),
    lambda o: o["seeds"].__setitem__(0, 10**9),
    lambda o: o["seeds"].pop(),
    lambda o: o["marginal_gains"].reverse(),
])
def test_checker_rejects_corrupted_select(tiny_select, corrupt):
    out, _, edges, _ = tiny_select
    bad = json.loads(json.dumps(out))
    corrupt(bad)
    expected = check.closed_form_spread(edges, bad["seeds"], TINY.diffusion, TINY.hops)
    assert check.select_problems(bad, TINY.k, edges, expected)


def test_checker_rejects_low_mc_mean(tiny_select):
    out, ev, _, expected = tiny_select
    low = dict(ev, mean=expected - 5 * ev["std_error"] - 1.0)
    assert check.evaluate_problems(low, out, TINY.n_sims, expected)


def test_golden_flags_other_seed_sequence():
    golden = check.load_golden()
    want = golden["workloads"]["twohop-ic"]
    out = {"seeds": list(reversed(want["seeds"])), "spread": want["spread"]}
    assert check.golden_problems(golden, "twohop-ic", golden["seed"], out, None)
    assert not check.golden_problems(golden, "twohop-ic", golden["seed"] + 1, out, None)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(harness.HERE, tmp_path / harness.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, str(Path(harness.HERE.name) / "run.py"), "--workload", "twohop-ic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
