"""Command-line front end.

Subcommands: select (pick seeds), evaluate (Monte-Carlo spread of a seed
file), bounds (per-node single-seed upper bounds), alpha-surface (ratio
lower-bound grid as CSV), bench (timing sweep as CSV). Exit codes: 0 on
success, 1 for configuration errors, 2 for data errors. All outputs use the
node ids from the input file; internal dense ids never appear. Each command
returns its output as text chunks, and `main` writes them to --out or stdout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import numpy as np

from .analysis import alpha_surface, surface_csv
from .bounds import upper_bounds
from .generate import power_law_graph
from .graph import GraphError, WeightModel, apply_weight_model, load_edge_list
from .oracle import estimate_spread, fresh_seed
from .selection import degree_discount, greedy_celf, high_degree

# The hop count of each greedy algorithm; the rest are degree heuristics.
HOPS = {"onehop": 1, "twohop": 2, "twohop-o": 2}
ALGORITHMS = (*HOPS, "highdegree", "degreediscount")
GRID_MAX = 1000  # values per alpha-surface axis: a surface of 10^6 points takes ~1.5 s and 79 MiB RSS on 2 vCPUs


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _convert(kind, text, flag):
    """`kind(text)` (int or float), or a ConfigError naming `flag`."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{flag}: {text.strip()!r} is not {'an integer' if kind is int else 'a number'}") from None


def _rng_seed(text):
    """An --rng-seed value: numpy seeds are non-negative integers. A ConfigError passes through argparse."""
    seed = _convert(int, text, "--rng-seed")
    if seed < 0:
        raise ConfigError(f"--rng-seed must be non-negative, got {seed}")
    return seed


def _parse_grid(text, flag):
    """Grid axis of 1 to GRID_MAX values: comma list "0,0.05,0.1" or linspace "start:stop:count"."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{flag}: grid must be start:stop:count, got {text!r}")
        start, stop, count = (_convert(kind, t, flag) for kind, t in zip((float, float, int), parts))
        if not 1 <= count <= GRID_MAX:
            raise ConfigError(f"{flag}: a grid takes 1 to {GRID_MAX} values, got {count}")
        return np.linspace(start, stop, count).tolist()
    values = [_convert(float, v, flag) for v in text.split(",") if v.strip()]
    if not 1 <= len(values) <= GRID_MAX:
        raise ConfigError(f"{flag}: a grid takes 1 to {GRID_MAX} values, got {len(values)}")
    return values


def _parse_list(text, kind, flag):
    values = [_convert(kind, v, flag) for v in text.split(",") if v.strip()]
    if not values:
        raise ConfigError(f"{flag}: empty sweep")
    return values


def _weight_model(text, rng_seed, scale, scale_flag="--scale"):
    if text == "tri":
        text = f"tri:{rng_seed if rng_seed is not None else fresh_seed()}"
    try:
        return WeightModel.parse(text, scale_factor=scale), text
    except GraphError as e:
        raise ConfigError(f"--model {text} {scale_flag} {scale:g}: {e}") from None


def _load_weighted(args):
    model, model_text = _weight_model(args.model, args.rng_seed, args.scale)
    g = load_edge_list(args.graph)
    return apply_weight_model(g, model), model_text


def _config(args, model_text, **extra):
    return {"graph": args.graph, "model": model_text, "scale": args.scale, "diffusion": args.diffusion, **extra}


def _formatted(args, payload, header, rows):
    """Text chunks of `payload` as indented JSON (iterables as lists) if --format json, else of the CSV
    `header` and `rows`, a line each, made as they are written."""
    if args.format == "json":
        return [json.dumps(payload, indent=2, default=list) + "\n"]
    return itertools.chain([header + "\n"], (row + "\n" for row in rows))


def _emit(path, chunks):
    """Write each text chunk, as it comes, to `path` or else to `sys.stdout` (looked up here, so capture sees it)."""
    if path:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _check_dd_p(dd_p, algos):
    if "degreediscount" in algos and not 0.0 <= dd_p <= 1.0:
        raise ConfigError(f"--dd-p must be in [0, 1], got {dd_p:g}")


def _select_once(g, algo, k, diffusion, dd_p):
    if algo == "highdegree":
        return high_degree(g, k)
    if algo == "degreediscount":
        return degree_discount(g, k, p=dd_p)
    bootstrap = "none" if algo == "twohop-o" else "upper_bounds"
    return greedy_celf(g, k, model=diffusion, hops=HOPS[algo], bootstrap=bootstrap)


def cmd_select(args):
    if args.k < 1:
        raise ConfigError("--k must be at least 1")
    _check_dd_p(args.dd_p, [args.algo])
    g, model_text = _load_weighted(args)
    result = _select_once(g, args.algo, args.k, args.diffusion, args.dd_p)
    original = [int(g.original_ids[v]) for v in result.seeds]
    payload = {
        "command": "select",
        "algorithm": args.algo,
        "k": args.k,
        "seeds": original,
        "marginal_gains": result.marginal_gains,
        "spread": result.spread,
        "elapsed_seconds": result.elapsed,
        "evaluations": result.evaluations,
        "probes": result.probes,
        "config": _config(args, model_text, hops=HOPS.get(args.algo)),
    }
    gains = result.marginal_gains or [""] * len(original)  # the degree heuristics report none
    return _formatted(args, payload, "rank,seed,marginal_gain",
                      (f"{i},{s},{gain}" for i, (s, gain) in enumerate(zip(original, gains))))


def _read_seeds_file(path):
    """Seed ids from a JSON list, a JSON object with a "seeds" list, or whitespace-separated text."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # Lines end at "\n", "\r\n" or "\r", as text mode reads them; every
    # message below counts lines by the "\n" left after this.
    raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise GraphError(f"seed file {path}, line {line}: byte 0x{raw[e.start]:02x} is not UTF-8") from None
    if text.lstrip().startswith(("{", "[")):
        try:
            seeds = json.loads(text)
        except json.JSONDecodeError as e:
            raise GraphError(f"seed file {path}: line {e.lineno} column {e.colno}: {e.msg}") from None
        if isinstance(seeds, dict):
            seeds = seeds.get("seeds")
        if not isinstance(seeds, list):
            raise GraphError(f"seed file {path}: expected a JSON list of ids or an object with a 'seeds' list")
        items = [(f"entry {i}", v) for i, v in enumerate(seeds)]
    else:
        items = [(f"line {n}", tok) for n, line in enumerate(text.split("\n"), 1) for tok in line.split()]
    ids = []
    for where, value in items:
        try:
            if isinstance(value, str):
                value = int(value)
            # A JSON value must already be an integer: int() would truncate
            # 1.5 and read true as 1. Node ids are int64.
            if type(value) is not int or not -(1 << 63) <= value < 1 << 63:
                raise ValueError
        except ValueError:
            raise GraphError(f"seed file {path}, {where}: invalid seed id {value!r}") from None
        ids.append(value)
    return ids


def _check_sim_flags(args):
    if args.n_sims < 1:
        raise ConfigError("--n-sims must be at least 1")
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    if args.hop_limit is not None and args.hop_limit < 0:
        raise ConfigError("--hop-limit must be non-negative")


def _estimate(g, seeds, args, rng_seed):
    """`estimate_spread` under the --diffusion, --hop-limit, --n-sims and --workers flags."""
    return estimate_spread(g, seeds, model=args.diffusion, hop_limit=args.hop_limit, n_sims=args.n_sims,
                           rng_seed=rng_seed, workers=args.workers)


def cmd_evaluate(args):
    _check_sim_flags(args)
    g, model_text = _load_weighted(args)
    original = _read_seeds_file(args.seeds_file)
    seeds = g.to_internal(original)
    rng_seed = args.rng_seed if args.rng_seed is not None else fresh_seed()
    est = _estimate(g, seeds, args, rng_seed)
    payload = {
        "command": "evaluate",
        "mean": est.mean,
        "simulations": args.n_sims,
        "std_error": est.std_error,
        "hop_limit": args.hop_limit,
        "rng_seed": rng_seed,
        "seeds": original,
        "config": _config(args, model_text, workers=args.workers),
    }
    return _formatted(args, payload, "mean,simulations,std_error", [f"{est.mean},{args.n_sims},{est.std_error}"])


def cmd_bounds(args):
    if args.hops < 0:
        raise ConfigError("--hops must be non-negative")
    g, _ = _load_weighted(args)
    ids, ub = g.original_ids.tolist(), upper_bounds(g, args.hops).tolist()
    # Lazy: only the format asked for builds its rows.
    payload = {"command": "bounds", "hops": args.hops, "bounds": zip(ids, ub)}
    return _formatted(args, payload, "node,bound", (f"{u},{b:.10g}" for u, b in zip(ids, ub)))


def cmd_alpha_surface(args):
    p_grid, ratio_grid = _parse_grid(args.p_grid, "--p-grid"), _parse_grid(args.ratio_grid, "--ratio-grid")
    try:
        grid = alpha_surface(args.gamma, p_grid, ratio_grid, truncation=args.truncation)
    except ValueError as e:  # every input is a flag
        raise ConfigError(f"--gamma {args.gamma:g} --p-grid {args.p_grid} --ratio-grid {args.ratio_grid} "
                          f"--truncation {args.truncation}: {e}") from None
    return surface_csv(p_grid, ratio_grid, grid)


def cmd_bench(args):
    _check_sim_flags(args)
    scales = _parse_list(args.scales, float, "--scales")
    ks = _parse_list(args.ks, int, "--ks")
    if min(ks) < 1:
        raise ConfigError("--ks: each k must be at least 1")
    algos = _parse_list(args.algos, str.strip, "--algos")
    for a in algos:
        if a not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {a!r}")
    _check_dd_p(args.dd_p, algos)
    if (args.graph is None) == (args.synthetic is None):
        raise ConfigError("bench needs exactly one of --graph or --synthetic")
    rng_seed = args.rng_seed if args.rng_seed is not None else fresh_seed()
    models = [_weight_model(args.model, rng_seed, scale, "--scales")[0] for scale in scales]
    if args.synthetic is not None:
        parts = args.synthetic.split(",")
        if len(parts) != 3:
            raise ConfigError("--synthetic must be n,m,gamma")
        n, m, gamma = (_convert(kind, t, "--synthetic") for kind, t in zip((int, int, float), parts))
        try:
            base = power_law_graph(n, m, gamma=gamma, rng_seed=rng_seed)
        except ValueError as e:
            raise ConfigError(f"--synthetic {args.synthetic}: {e}") from None
    else:
        base = load_edge_list(args.graph)
    lines = ["algorithm,k,scale_factor,seconds,evaluations,spread_estimate,seeds,probes"]
    for scale, model in zip(scales, models):
        g = apply_weight_model(base, model)
        for algo in algos:
            for k in ks:
                result = _select_once(g, algo, k, args.diffusion, args.dd_p)
                est = _estimate(g, result.seeds, args, rng_seed)
                seed_text = ";".join(str(int(g.original_ids[v])) for v in result.seeds)
                lines.append(
                    f"{algo},{k},{scale:.10g},{result.elapsed:.6f},{result.evaluations},{est.mean:.10g},{seed_text},"
                    f"{result.probes}"
                )
    return ["\n".join(lines) + "\n"]


def _add_graph_flags(p, bench=False):
    p.add_argument("--graph", required=not bench, help="edge-list file: 'u v' or 'u v p' per line")
    p.add_argument("--model", default="wc", help="weight model: wc | tri[:seed] | uniform:<p> | file")
    if not bench:  # bench sweeps --scales
        p.add_argument("--scale", type=float, default=1.0, help="probability scale factor")


def _add_common_flags(p, bench=False):
    p.add_argument("--rng-seed", type=_rng_seed, default=None, help="seed for randomized paths (drawn if omitted)")
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")
    if not bench:  # bench writes CSV
        p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser():
    parser = _Parser(prog="hopspread", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", help="select influence-maximizing seeds")
    _add_graph_flags(p)
    p.add_argument("--algo", choices=ALGORITHMS, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--diffusion", choices=("ic", "lt"), default="ic")
    p.add_argument("--dd-p", type=float, default=0.01, help="degree-discount probability")
    _add_common_flags(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evaluate", help="Monte-Carlo spread of a seed file")
    _add_graph_flags(p)
    p.add_argument("--seeds-file", required=True, help="JSON list/object or one id per line")
    p.add_argument("--diffusion", choices=("ic", "lt"), default="ic")
    p.add_argument("--n-sims", type=int, default=10000)
    p.add_argument("--hop-limit", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    _add_common_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bounds", help="single-seed upper bounds per node")
    _add_graph_flags(p)
    p.add_argument("--hops", type=int, default=2)
    _add_common_flags(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("alpha-surface", help="ratio lower-bound grid as CSV")
    p.add_argument("--gamma", type=float, default=3.0)
    p.add_argument("--p-grid", default="0:0.1:11", help="comma list or start:stop:count")
    p.add_argument("--ratio-grid", default="0:0.5:11", help="comma list or start:stop:count")
    p.add_argument("--truncation", type=int, default=10**6)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_alpha_surface)

    # No abbreviations, or "--scale 2" would be read as "--scales 2".
    p = sub.add_parser("bench", help="timing sweep over algorithms, k, and scale factors", allow_abbrev=False)
    _add_graph_flags(p, bench=True)
    p.add_argument("--synthetic", default=None, help="generate a power-law graph: n,m,gamma")
    p.add_argument("--algos", default="onehop,twohop,highdegree,degreediscount")
    p.add_argument("--ks", default="10")
    p.add_argument("--scales", default="1.0")
    p.add_argument("--diffusion", choices=("ic", "lt"), default="ic")
    p.add_argument("--dd-p", type=float, default=0.01)
    p.add_argument("--n-sims", type=int, default=1000)
    p.add_argument("--hop-limit", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    _add_common_flags(p, bench=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        _emit(args.out, args.func(args))
        return 0
    except ConfigError as e:
        print(f"hopspread: config error: {e}", file=sys.stderr)
        return 1
    except (GraphError, OSError, ValueError, RuntimeError, json.JSONDecodeError) as e:
        print(f"hopspread: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
