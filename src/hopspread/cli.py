"""Command-line front end.

Subcommands: select (pick seeds), evaluate (Monte-Carlo spread of a seed
file), bounds (per-node single-seed upper bounds), alpha-surface (ratio
lower-bound grid as CSV), bench (timing sweep as CSV). Exit codes: 0 on
success, 1 for configuration errors, 2 for data errors. All outputs use the
node ids from the input file; internal dense ids never appear.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .analysis import alpha_surface, format_surface_csv
from .bounds import upper_bounds
from .generate import power_law_graph
from .graph import GraphError, WeightModel, apply_weight_model, load_edge_list
from .oracle import estimate_spread
from .selection import degree_discount, greedy_celf, high_degree

ALGORITHMS = ("onehop", "twohop", "twohop-o", "highdegree", "degreediscount")


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _fresh_seed():
    return int(np.random.SeedSequence().entropy) % (2**63)


def _parse_grid(text):
    """Grid axis: comma list "0,0.05,0.1" or linspace "start:stop:count"."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ConfigError("grid count must be at least 1")
        return np.linspace(start, stop, count).tolist()
    values = [float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise ConfigError(f"empty grid {text!r}")
    return values


def _parse_list(text, kind, what):
    values = [kind(v) for v in text.split(",") if v.strip()]
    if not values:
        raise ConfigError(f"empty {what} sweep")
    return values


def _weight_model(args, scale_flag="--scale"):
    text = args.model
    if text == "tri":
        seed = args.rng_seed if args.rng_seed is not None else _fresh_seed()
        text = f"tri:{seed}"
    try:
        return WeightModel.parse(text, scale_factor=args.scale), text
    except GraphError as e:
        raise ConfigError(f"--model {text} {scale_flag} {args.scale:g}: {e}") from None


def _load_weighted(args):
    model, model_text = _weight_model(args)
    g = load_edge_list(args.graph, num_nodes=args.num_nodes)
    return apply_weight_model(g, model), model_text


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _select_once(g, algo, k, diffusion, dd_p, degree_kind):
    if algo == "highdegree":
        return high_degree(g, k, degree=degree_kind)
    if algo == "degreediscount":
        return degree_discount(g, k, p=dd_p)
    hops = 1 if algo == "onehop" else 2
    bootstrap = "none" if algo == "twohop-o" else "upper_bounds"
    return greedy_celf(g, k, model=diffusion, hops=hops, bootstrap=bootstrap)


def cmd_select(args):
    if args.k < 1:
        raise ConfigError("--k must be at least 1")
    if args.algo in ("onehop", "twohop", "twohop-o"):
        required = 1 if args.algo == "onehop" else 2
        if args.hops is not None and args.hops != required:
            raise ConfigError(f"--algo {args.algo} requires --hops {required}")
    g, model_text = _load_weighted(args)
    result = _select_once(g, args.algo, args.k, args.diffusion, args.dd_p, args.degree_kind)
    original = [int(g.original_ids[v]) for v in result.seeds]
    payload = {
        "command": "select",
        "algorithm": result.algorithm,
        "k": args.k,
        "seeds": original,
        "marginal_gains": result.marginal_gains,
        "spread": result.spread,
        "elapsed_seconds": result.elapsed,
        "evaluations": result.evaluations,
        "config": {
            "graph": args.graph,
            "model": model_text,
            "scale": args.scale,
            "diffusion": args.diffusion,
            "hops": result.hops,
            "num_nodes": args.num_nodes,
        },
    }
    if args.format == "json":
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        lines = ["rank,seed,marginal_gain"]
        for i, s in enumerate(original):
            gain = result.marginal_gains[i] if i < len(result.marginal_gains) else ""
            lines.append(f"{i},{s},{gain}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _read_seeds_file(path):
    """Seed ids from a JSON list, a JSON object with a "seeds" list, or whitespace-separated text."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith(("{", "[")):
        seeds = json.loads(text)
        if isinstance(seeds, dict):
            seeds = seeds.get("seeds")
        if not isinstance(seeds, list):
            raise GraphError(f"seed file {path}: expected a JSON list of ids or an object with a 'seeds' list")
        items = [(f"entry {i}", v) for i, v in enumerate(seeds)]
    else:
        items = [(f"line {n}", tok) for n, line in enumerate(text.splitlines(), 1) for tok in line.split()]
    ids = []
    for where, value in items:
        try:
            ids.append(int(value))
        except (TypeError, ValueError, OverflowError):
            raise GraphError(f"seed file {path}, {where}: invalid seed id {value!r}") from None
    return ids


def _check_sim_flags(args):
    if args.n_sims < 1:
        raise ConfigError("--n-sims must be at least 1")
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    if args.hop_limit is not None and args.hop_limit < 0:
        raise ConfigError("--hop-limit must be non-negative")


def cmd_evaluate(args):
    _check_sim_flags(args)
    g, model_text = _load_weighted(args)
    original = _read_seeds_file(args.seeds_file)
    seeds = g.to_internal(original)
    rng_seed = args.rng_seed if args.rng_seed is not None else _fresh_seed()
    est = estimate_spread(
        g,
        seeds,
        model=args.diffusion,
        hop_limit=args.hop_limit,
        n_sims=args.n_sims,
        rng_seed=rng_seed,
        workers=args.workers,
    )
    payload = {
        "command": "evaluate",
        "mean": est.mean,
        "simulations": est.simulations,
        "std_error": est.std_error,
        "hop_limit": est.hop_limit,
        "rng_seed": rng_seed,
        "seeds": original,
        "config": {
            "graph": args.graph,
            "model": model_text,
            "scale": args.scale,
            "diffusion": args.diffusion,
            "workers": args.workers,
        },
    }
    if args.format == "json":
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(args, "mean,simulations,std_error\n" f"{est.mean},{est.simulations},{est.std_error}\n")
    return 0


def cmd_bounds(args):
    g, _ = _load_weighted(args)
    ub = upper_bounds(g, args.hops)
    if args.format == "json":
        payload = {
            "command": "bounds",
            "hops": args.hops,
            "bounds": [[int(g.original_ids[v]), float(ub.values[v])] for v in range(g.node_count)],
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        lines = ["node,bound"]
        for v in range(g.node_count):
            lines.append(f"{int(g.original_ids[v])},{ub.values[v]:.10g}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_alpha_surface(args):
    rows = alpha_surface(args.gamma, _parse_grid(args.p_grid), _parse_grid(args.ratio_grid), truncation=args.truncation)
    _emit(args, format_surface_csv(rows))
    return 0


def cmd_bench(args):
    _check_sim_flags(args)
    if args.scale != 1.0:
        raise ConfigError(f"bench sweeps --scales, not --scale: use --scales {args.scale:g}")
    scales = _parse_list(args.scales, float, "scale-factor")
    ks = _parse_list(args.ks, int, "k")
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise ConfigError("empty algorithm sweep")
    for a in algos:
        if a not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {a!r}")
    if (args.graph is None) == (args.synthetic is None):
        raise ConfigError("bench needs exactly one of --graph or --synthetic")
    rng_seed = args.rng_seed if args.rng_seed is not None else _fresh_seed()
    if args.synthetic:
        parts = args.synthetic.split(",")
        if len(parts) != 3:
            raise ConfigError("--synthetic must be n,m,gamma")
        n, m, gamma = int(parts[0]), int(parts[1]), float(parts[2])
        base = power_law_graph(n, m, gamma=gamma, rng_seed=rng_seed)
    else:
        base = load_edge_list(args.graph, num_nodes=args.num_nodes)
    lines = ["algorithm,k,scale_factor,seconds,evaluations,spread_estimate,seeds"]
    for scale in scales:
        model, _ = _weight_model(argparse.Namespace(model=args.model, rng_seed=rng_seed, scale=scale), "--scales")
        g = apply_weight_model(base, model)
        for algo in algos:
            for k in ks:
                t0 = time.perf_counter()
                result = _select_once(g, algo, k, args.diffusion, args.dd_p, args.degree_kind)
                seconds = time.perf_counter() - t0
                est = estimate_spread(
                    g,
                    result.seeds,
                    model=args.diffusion,
                    hop_limit=args.hop_limit,
                    n_sims=args.n_sims,
                    rng_seed=rng_seed,
                    workers=args.workers,
                )
                seed_text = ";".join(str(int(g.original_ids[v])) for v in result.seeds)
                lines.append(
                    f"{result.algorithm},{k},{scale:.10g},{seconds:.6f},{result.evaluations},{est.mean:.10g},{seed_text}"
                )
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _add_graph_flags(p, require_graph=True):
    p.add_argument("--graph", required=require_graph, help="edge-list file: 'u v' or 'u v p' per line")
    p.add_argument("--model", default="wc", help="weight model: wc | tri[:seed] | uniform:<p> | file")
    p.add_argument("--scale", type=float, default=1.0, help="probability scale factor")
    p.add_argument("--num-nodes", type=int, default=None, help="force node count (ids taken as dense)")


def _add_common_flags(p):
    p.add_argument("--rng-seed", type=int, default=None, help="seed for randomized paths (drawn if omitted)")
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser():
    parser = _Parser(prog="hopspread", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", help="select influence-maximizing seeds")
    _add_graph_flags(p)
    p.add_argument("--algo", choices=ALGORITHMS, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--hops", type=int, default=None, choices=(1, 2))
    p.add_argument("--diffusion", choices=("ic", "lt"), default="ic")
    p.add_argument("--dd-p", type=float, default=0.01, help="degree-discount probability")
    p.add_argument("--degree-kind", choices=("out", "in", "total"), default="out")
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
    p.set_defaults(func=cmd_alpha_surface, format="csv")

    p = sub.add_parser("bench", help="timing sweep over algorithms, k, and scale factors")
    _add_graph_flags(p, require_graph=False)
    p.add_argument("--synthetic", default=None, help="generate a power-law graph: n,m,gamma")
    p.add_argument("--algos", default="onehop,twohop,highdegree,degreediscount")
    p.add_argument("--ks", default="10")
    p.add_argument("--scales", default="1.0")
    p.add_argument("--diffusion", choices=("ic", "lt"), default="ic")
    p.add_argument("--dd-p", type=float, default=0.01)
    p.add_argument("--degree-kind", choices=("out", "in", "total"), default="out")
    p.add_argument("--n-sims", type=int, default=1000)
    p.add_argument("--hop-limit", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    _add_common_flags(p)
    p.set_defaults(func=cmd_bench, format="csv")

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"hopspread: config error: {e}", file=sys.stderr)
        return 1
    except (GraphError, OSError, ValueError, RuntimeError, json.JSONDecodeError) as e:
        print(f"hopspread: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
