"""Correctness checks on the outputs of `hopspread select` and `evaluate`.

The spread check does not trust the library: `closed_form_spread` reads the
edge list with numpy and recomputes the one- or two-hop spread of the
reported seed set from scratch. Weighted-cascade weights are
p(u, v) = 1 / indeg(v). Under the cascade model (IC)

    q1[v] = prod over seed in-neighbours u of (1 - p(u, v))
    q2[v] = prod over all in-neighbours u of (1 - p(u, v) * (1 - q1[u]))

and under the threshold model (LT) the products become sums clipped to
[0, 1]: q1[v] = 1 - sum over seeds of p, q2[v] = 1 - sum of p * (1 - q1[u]).
Seeds have q = 0; the spread is the sum of 1 - q.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
MC_SIGMAS = 4.0
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


class EdgeList:
    """The input graph as read back by numpy, with WC probabilities."""

    def __init__(self, path):
        edges = np.loadtxt(path, dtype=np.int64, ndmin=2)
        self.src = edges[:, 0]
        self.dst = edges[:, 1]
        self.ids = np.unique(edges)
        self.size = int(self.ids[-1]) + 1
        indeg = np.bincount(self.dst, minlength=self.size)
        self.prob = 1.0 / indeg[self.dst]


def closed_form_spread(edges, seeds, diffusion, hops):
    """Hop-limited expected spread of `seeds` (original ids) by direct formula.

    NaN when a seed is not a node of the graph.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    if not np.isin(seeds, edges.ids).all():
        return float("nan")
    is_seed = np.zeros(edges.size, dtype=bool)
    is_seed[seeds] = True
    p = edges.prob
    from_seed = is_seed[edges.src]
    if diffusion == "ic":
        q1 = np.ones(edges.size)
        np.multiply.at(q1, edges.dst, np.where(from_seed, 1.0 - p, 1.0))
    else:
        q1 = 1.0 - np.bincount(edges.dst, weights=np.where(from_seed, p, 0.0), minlength=edges.size)
    q1 = np.clip(q1, 0.0, 1.0)
    q1[seeds] = 0.0
    q = q1
    if hops == 2:
        pi1 = (1.0 - q1)[edges.src]
        if diffusion == "ic":
            q = np.ones(edges.size)
            np.multiply.at(q, edges.dst, 1.0 - p * pi1)
        else:
            q = 1.0 - np.bincount(edges.dst, weights=p * pi1, minlength=edges.size)
        q = np.clip(q, 0.0, 1.0)
        q[seeds] = 0.0
    return float((1.0 - q).sum())


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def select_problems(out, k, edges, expected_spread):
    """Seeds distinct, valid and k of them; gains sum to the spread and do
    not increase; the spread matches the closed-form recomputation."""
    problems = []
    seeds = out.get("seeds", [])
    gains = out.get("marginal_gains", [])
    spread = out.get("spread")
    if len(seeds) != k:
        problems.append(f"{len(seeds)} seeds, expected {k}")
    if len(set(seeds)) != len(seeds):
        problems.append("duplicate seeds")
    unknown = np.setdiff1d(np.asarray(seeds, dtype=np.int64), edges.ids)
    if len(unknown):
        problems.append(f"seed {int(unknown[0])} is not a node of the graph")
    if len(gains) != len(seeds):
        problems.append(f"{len(gains)} marginal gains for {len(seeds)} seeds")
    if not isinstance(spread, (int, float)):
        return problems + ["no spread reported"]
    if not _close(sum(gains), spread):
        problems.append(f"marginal gains sum to {sum(gains)!r}, spread is {spread!r}")
    for i in range(1, len(gains)):
        if gains[i] > gains[i - 1] + REL_TOL * max(1.0, abs(gains[i - 1])):
            problems.append(f"marginal gain {i} ({gains[i]!r}) exceeds gain {i - 1} ({gains[i - 1]!r})")
            break
    if not _close(spread, expected_spread):
        problems.append(f"spread {spread!r} differs from closed form {expected_spread!r}")
    return problems


def evaluate_problems(ev, select_out, n_sims, hop_spread):
    """Same seeds and simulation count; the MC mean is at least the
    hop-limited spread minus 4 se (the simulation has no hop limit)."""
    problems = []
    if ev.get("seeds") != select_out.get("seeds"):
        problems.append("evaluate ran on other seeds than select returned")
    if ev.get("simulations") != n_sims:
        problems.append(f"{ev.get('simulations')} simulations, expected {n_sims}")
    mean, se = ev.get("mean"), ev.get("std_error")
    if not isinstance(mean, (int, float)) or not isinstance(se, (int, float)):
        return problems + ["no MC mean or standard error reported"]
    if mean < hop_spread - MC_SIGMAS * se:
        problems.append(f"MC mean {mean!r} below hop-limited spread {hop_spread!r} - {MC_SIGMAS} se ({se!r})")
    return problems


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def golden_problems(golden, workload, seed, select_out, ev):
    """At the recorded seed: same seeds, same spread, MC mean within 4
    combined standard errors of the recorded one."""
    if seed != golden["seed"] or workload not in golden["workloads"]:
        return []
    want = golden["workloads"][workload]
    problems = []
    if select_out is not None:
        if select_out.get("seeds") != want["seeds"]:
            problems.append("seed sequence differs from the recorded one")
        if not _close(select_out.get("spread", float("nan")), want["spread"]):
            problems.append(f"spread {select_out.get('spread')!r} differs from recorded {want['spread']!r}")
    if ev is not None:
        se = float(np.hypot(ev.get("std_error", 0.0), want["mc_se"]))
        if not abs(ev.get("mean", float("nan")) - want["mc_mean"]) <= MC_SIGMAS * se:
            problems.append(f"MC mean {ev.get('mean')!r} is not within {MC_SIGMAS} se of recorded {want['mc_mean']!r}")
    return problems
