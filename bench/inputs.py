"""Write one workload's input graph as a `u v` text edge list.

The graph is `hopspread.generate.power_law_graph(nodes, edges, gamma=2.3,
rng_seed=seed)`: power-law out-degrees, uniform targets, no self-loops or
duplicate pairs. Lines are in the generator's (source, target) order, as in
SNAP-style edge lists. Probabilities are not written; the commands apply
weighted-cascade weights (`--model wc`).

The benchmark runs this file as its own process so that generation memory
does not count toward the measured process's peak RSS:

    python3 bench/inputs.py --nodes 100000 --edges 1000000 --seed 7 --out graph.txt
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

GAMMA = 2.3


def write_edge_list(nodes, edges, seed, out):
    import numpy as np

    from hopspread.generate import power_law_graph

    g = power_law_graph(nodes, edges, gamma=GAMMA, rng_seed=seed)
    src = np.repeat(np.arange(g.node_count, dtype=np.int64), np.diff(g.out_indptr))
    with open(out, "w") as fh:
        fh.write("".join(f"{u} {v}\n" for u, v in zip(src.tolist(), g.out_dst.tolist())))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    write_edge_list(args.nodes, args.edges, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
