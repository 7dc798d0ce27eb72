"""Seeded fuzz of the CLI: generated edge lists, seed files and flag values.

Every case drives `cli.main` in-process and must exit 0, 1 or 2 without an
escaping exception, in under a second. On exit 0 every number written is
finite, and a spread or Monte-Carlo mean is at most the node count. About
half the cases are hostile: each of their values is drawn from a list of
bad ones with some probability, and their edge lists may hold bad bytes,
self-loops, duplicates, bad probabilities or mixed column counts, and a
hostile case may pass a flag its command does not declare, which must be
refused by name. No drawn flag sizes an allocation before it is checked: no
`--workers` above 1, and only small `--n-sims`, grid counts, `--truncation`
and `--synthetic` sizes.
"""

import json
import math
import random
import time

import pytest

from hopspread.cli import ALGORITHMS, main
from hopspread.graph import load_edge_list

CASES_PER_CHUNK = 40
GOOD_PROBS = ["0.5", "1", "0", "0.25", "1e-3", ".5", "1.0", "0.1"]
BAD_PROBS = ["nan", "inf", "-0.1", "2", "abc", "0x1", "1e999"]
# Flags that no command declares, with values they once took.
UNDECLARED = {"--degree-kind": ["out", "in", "total"], "--num-nodes": ["4", str(2**31 - 1)]}
# `alpha-surface --gamma` values the analysis must refuse by name.
BAD_GAMMAS = ["2.0", "1.0", "0.5", "nan", "inf"]
# The flags each command must refuse as unrecognized.
REFUSED = {"select": ["--hops", *UNDECLARED], "evaluate": ["--num-nodes"], "bounds": ["--num-nodes"],
           "bench": ["--scale", *UNDECLARED]}


class Draw:
    """Draws values, taking a bad one with probability `hostile`."""

    def __init__(self, rng, hostile):
        self.rng = rng
        self.hostile = hostile

    def __call__(self, good, bad=()):
        if bad and self.rng.random() < self.hostile:
            return str(self.rng.choice(bad))
        return str(self.rng.choice(good))

    def flag(self, name, good, bad=(), p=0.5):
        return [name, self(good, bad)] if self.rng.random() < p else []


def edge_list(draw):
    """A tiny `u v` or `u v p` edge list with LF or CRLF ends, `#` lines and
    blank lines; a hostile one may also hold bad bytes, self-loops,
    duplicates, bad probabilities and lines of the other column count."""
    rng, hostile = draw.rng, draw.hostile
    ids = rng.sample([0, 1, 2, 3, 4, 5, 7, 10, 2**40, 2**63 - 1], rng.randint(2, 6))
    pairs = [(u, v) for u in ids for v in ids if u != v]
    rng.shuffle(pairs)
    three = rng.random() < 0.5
    lines = []
    for _ in range(rng.randint(0, min(10, len(pairs)))):
        roll = rng.random()
        if roll < 0.08:
            lines.append(b"# comment " + str(rng.random()).encode())
        elif roll < 0.12:
            lines.append(b"")
        else:
            u, v = pairs.pop()
            if rng.random() < hostile * 0.2:
                v = u
            cols = [str(u), str(v)]
            if three != (rng.random() < hostile * 0.1):
                cols.append(draw(GOOD_PROBS, BAD_PROBS) if rng.random() < 0.5 else rng.choice(GOOD_PROBS))
            lines.append(rng.choice([" ", "\t", "  "]).join(cols).encode())
        if lines and rng.random() < hostile * 0.1:
            lines[-1] += rng.choice([b"\xff", b"\x00", b" x", b"\r"])
    if lines and rng.random() < hostile * 0.3:
        lines.append(lines[rng.randrange(len(lines))])
    end = rng.choice([b"\n", b"\r\n"])
    text = end.join(lines)
    if lines and rng.random() < 0.8:
        text += end
    return text, three


def seed_file(draw, ids):
    rng = draw.rng
    chosen = [rng.choice(ids or [b"0"]).decode() for _ in range(rng.randint(0, 3))]
    roll = rng.random()
    if roll < draw.hostile * 0.5:
        return rng.choice([b"[1.5]", b"[true]", b'{"seeds": 3}', b"[", b"1 x", b"\xff", b"[99999999999999999999]",
                           b"123456789", b""])
    if roll < 0.4:
        return ("[" + ", ".join(chosen) + "]").encode()
    if roll < 0.55:
        return ('{"seeds": [' + ", ".join(chosen) + "]}").encode()
    return rng.choice(["\n", "\r\n", " "]).join(chosen).encode()


def graph_flags(draw, path, three):
    models = ["wc", "tri", "tri:5", "uniform:0.3"] + (["file"] * 2 if three else [])
    return ["--graph", str(path), "--model", draw(models, ["file", "tri:abc", "tri:-1", "uniform:2", "bogus"]),
            *draw.flag("--scale", ["1", "0.5", "2"], ["0", "-1", "inf", "nan"], p=0.3)]


def case(rng, tmp_path, i):
    """(argv, command) for one drawn case; the files it names are written."""
    draw = Draw(rng, rng.choice([0.0, 0.0, 0.1, 0.3]))
    path = tmp_path / f"g{i}.txt"
    text, three = edge_list(draw)
    path.write_bytes(text)
    command = rng.choice(["select", "select", "evaluate", "evaluate", "bounds", "alpha-surface", "bench"])
    fmt = draw.flag("--format", ["json", "csv"])
    if command == "select":
        argv = ["select", *graph_flags(draw, path, three), "--algo", rng.choice(ALGORITHMS),
                "--k", draw([1, 1, 2, 3], [-1, 0, 7, 100])]
        argv += draw.flag("--diffusion", ["ic", "lt"]) + draw.flag("--dd-p", [0.01, 0.5, 1], [1.5, -1, "nan"], 0.3)
        argv += draw.flag("--rng-seed", [0, 3, 99], [-1], p=0.3)
        if rng.random() < 0.1:
            argv += ["--hops", rng.choice(["1", "2"])]
    elif command == "evaluate":
        seeds = tmp_path / f"s{i}.txt"
        seeds.write_bytes(seed_file(draw, [line.split()[0] for line in text.splitlines() if line[:1].isdigit()]))
        argv = ["evaluate", *graph_flags(draw, path, three), "--seeds-file", str(seeds),
                "--n-sims", draw([1, 5, 30], [0, -2]), "--rng-seed", draw([rng.randrange(1000)], [-1])]
        argv += draw.flag("--diffusion", ["ic", "lt"]) + draw.flag("--hop-limit", [0, 1, 2, 50], [-1], 0.4)
        argv += draw.flag("--workers", [1], [0, -1], 0.2)
    elif command == "bounds":
        argv = ["bounds", *graph_flags(draw, path, three), "--hops", draw([0, 1, 2, 5, 100_000_000], [-1, "x"])]
    elif command == "alpha-surface":
        grid = (["0,0.5", "0:1:3", "0.2", "1:0:2", "0,0.05,0.1"], ["0:0.1", "", "a,b", "-0.1,0.5", "0:1:0", "nan"])
        argv = ["alpha-surface", "--gamma", draw([3.0, 2.5, 2.001, 8], BAD_GAMMAS),
                "--p-grid", draw(*grid), "--ratio-grid", draw(*grid),
                "--truncation", draw([1000, 2000], [999, 10**12])]
        fmt = []
    else:
        if rng.random() < 0.6:
            source = ["--synthetic", draw(["30,60,2.5", "12,20,3", "10,5,2.2"], ["1,5,2.5", "a,b,c", "10,5", "10,5,1"])]
        else:
            source = ["--graph", str(path)]
        algos = rng.sample(ALGORITHMS, rng.randint(1, 3)) + (["bogus"] if rng.random() < draw.hostile else [])
        argv = ["bench", *source, "--model", draw(["wc", "tri", "uniform:0.2"], ["bogus", "file"]),
                "--n-sims", draw([1, 5], [0]), "--algos", ",".join(algos),
                "--ks", draw(["1", "1,2"], ["0", "x", ""]), "--scales", draw(["1.0", "1.0,0.5"], ["-1", "nan"]),
                "--rng-seed", draw([rng.randrange(1000)], [-1])]
        argv += draw.flag("--diffusion", ["ic", "lt"]) + draw.flag("--hop-limit", [1, 2], [-1], 0.3)
        if rng.random() < draw.hostile:  # bench sweeps --scales and has no --scale
            argv += ["--scale", rng.choice(["1.0", "2.0"])]
        fmt = []
    if command != "alpha-surface" and rng.random() < draw.hostile:
        flag = rng.choice([f for f in REFUSED[command] if f in UNDECLARED])
        argv += [flag, rng.choice(UNDECLARED[flag])]
    out = [] if rng.random() < 0.3 else ["--out", str(tmp_path / f"out{i}")]
    return argv + fmt + out, command


def numbers(value):
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from numbers(v)


def parse_output(argv, command, text):
    """The JSON payload, or the CSV as {column: [fields]}; numbers checked finite."""
    csv = command in ("alpha-surface", "bench") or "--format" in argv and argv[argv.index("--format") + 1] == "csv"
    if not csv:
        payload = json.loads(text)
        assert all(math.isfinite(x) for x in numbers(payload)), (argv, payload)
        return payload
    header, *body = [line.split(",") for line in text.strip().split("\n")]
    for row in body:
        assert len(row) == len(header), (argv, row)
        for field in row:
            try:
                x = float(field)
            except ValueError:
                continue
            assert math.isfinite(x), (argv, row)
    return {name: [row[j] for row in body] for j, name in enumerate(header)}


def node_count(argv):
    if "--synthetic" in argv:
        return int(argv[argv.index("--synthetic") + 1].split(",")[0])
    return load_edge_list(argv[argv.index("--graph") + 1]).node_count


@pytest.mark.parametrize("chunk", range(4))
def test_cli_fuzz(tmp_path, capsys, chunk):
    rng = random.Random(2026 + chunk)
    succeeded = 0
    for i in range(CASES_PER_CHUNK):
        argv, command = case(rng, tmp_path, i)
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
        printed, errors = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert elapsed < 1.0, (argv, elapsed)
        if "--rng-seed" in argv and argv[argv.index("--rng-seed") + 1] == "-1":
            assert code == 1 and "--rng-seed must be non-negative" in errors, (argv, errors)
        elif any(flag in argv for flag in REFUSED.get(command, [])):
            # Unrecognized, unless argparse failed first on bounds' "--hops x", the one value it converts badly.
            refused = "unrecognized arguments" in errors or (command == "bounds" and "argument --hops" in errors)
            assert code == 1 and refused, (argv, errors)
        elif command == "alpha-surface" and argv[argv.index("--gamma") + 1] in BAD_GAMMAS:
            # Named in the analysis error, unless a grid that does not parse ("--p-grid: ...") was refused first.
            assert code == 1 and ("--gamma" in errors or "-grid: " in errors), (argv, errors)
        if code != 0:
            continue
        succeeded += 1
        text = open(argv[argv.index("--out") + 1]).read() if "--out" in argv else printed
        result = parse_output(argv, command, text)
        if command in ("select", "evaluate", "bench"):
            n = node_count(argv)
            for key in ("spread", "mean", "spread_estimate"):
                values = result.get(key)
                for value in values if isinstance(values, list) else [values]:
                    assert value is None or float(value) <= n + 1e-9, (argv, key, value, n)
    # The fuzzer must reach the commands' work, not only their checks.
    assert succeeded >= CASES_PER_CHUNK // 4


@pytest.mark.parametrize("gamma", BAD_GAMMAS)
def test_bad_gamma_is_refused_by_name(capsys, gamma):
    # The seeded chunks above happen to draw no bad --gamma, so each one is tried here.
    assert main(["alpha-surface", "--gamma", gamma, "--ratio-grid", "0.2"]) == 1
    assert "--gamma" in capsys.readouterr().err
