"""Per-node upper bounds on single-seed hop-limited spread.

The recursion bound(0) = 1, bound(h)[v] = 1 + sum over out-edges of
p(v,w) * bound(h-1)[w] dominates the h-hop spread of {v} under both
diffusion models and is exact at h = 1. Threshold two-hop activation of x,
min(1, b(v,x) + sum_w b(v,w) * b(w,x)), is dominated term by term. One
linear pass per level makes bootstrapping the first greedy pick nearly free.

At h = 2 the bound is 1 + W[v] + sum over out-edges of p(v,w) * W[w], with
W the total out-probability, which is the bound of `hop_estimator.probe_gain`
at the empty seed set; a probe re-evaluates it against a nonempty one.

At most n levels run. A shortest live path has at most n - 1 edges, so the
h-hop spread is the same for every h >= n - 1, and the recursion does not
fall with h, so bound(n) dominates it for every h >= n.
"""

from __future__ import annotations

import numpy as np

from ._segments import segment_sum


def upper_bounds(g, h):
    """Single-seed bounds at hop count h: entry v of a new float64 array bounds sigma_h({v})."""
    if h < 0:
        raise ValueError("hop count must be non-negative")
    values = np.ones(g.node_count)
    for i in range(min(h, g.node_count)):  # level 1 sums out_prob itself: values is all ones
        values = 1.0 + segment_sum(g.out_prob * values[g.out_dst] if i else g.out_prob, g.out_indptr)
    return values
