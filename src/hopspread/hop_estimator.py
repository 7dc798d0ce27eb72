"""Exact hop-limited activation probabilities, maintained incrementally.

For hop counts 1 and 2 the expected spread within that many hops has a
closed form per node, and adding one seed touches only the seed's one- and
two-hop out-neighborhood. `HopState` stores survival complements
q = 1 - activation probability, which stay well conditioned when
activation approaches 1.

Probing and committing are split: `eval_gain` writes nothing to the state
and returns a `GainReport` holding the would-be values, so a selection
loop can probe many candidates and commit only the winner. A report
remembers the state it was computed against and that state's version
stamp, and `commit` refuses any other.

An evaluation updates the candidate's out-neighbors' one-hop survival by
one factor (cascade) or one subtracted weight (threshold), then recomputes
the two-hop survival of every node those one-hop changes reach directly
from its incoming edges. No survival is ever divided out: q1 changes by at
most one factor or weight per seed and q2 is always the closed form of q1,
so the state stays within rounding of the closed form of its seed set and
needs no periodic recomputation.

For two hops the state also keeps, per incoming edge e (indexed like the
incoming view), its one-hop transmission x1[e] = p_e * (1 - q1[source of
e]), a function of q1 (8 bytes per edge). The recomputation gathers x1 over
the reached nodes' incoming rows, one contiguous run per node, and places
the would-be transmissions of the out-edges of the candidate and its
out-neighbors at their slots in that gather (found through
`Graph.out_to_in`). So an evaluation costs one read per gathered incoming
edge plus the size of its neighborhood, and writes only arrays it
allocated; a commit writes the candidate's new transmissions into x1.

`gain_bound` is a cheaper two-hop stand-in for `eval_gain` when only an
upper bound is needed: it reads the candidate's out-row and each
out-neighbor's total out-probability (kept per node in the state), so it
costs O(out-degree) where an evaluation reads every reached incoming row.
"""

from __future__ import annotations

import numpy as np

from ._segments import gather_rows, segment_sum
from .graph import GraphError, validate_lt

# Relative slack on `gain_bound`: a computed gain can sit an ulp above the
# exact-arithmetic bound.
BOUND_SLACK = 1e-9


class StaleReportError(RuntimeError):
    """A GainReport was produced against another state or an older version."""


class GainReport:
    """Marginal hop-limited gain of one candidate plus the values to commit."""

    __slots__ = (
        "state",
        "candidate",
        "gain",
        "state_version",
        "q1_nodes",
        "q1_values",
        "q2_nodes",
        "q2_values",
        "x1_edges",
        "x1_values",
    )

    def __init__(self, state, candidate, gain, q1_nodes, q1_values, q2_nodes=None, q2_values=None,
                 x1_edges=None, x1_values=None):
        self.state = state
        self.candidate = candidate
        self.gain = gain
        self.state_version = state.version
        self.q1_nodes = q1_nodes
        self.q1_values = q1_values
        self.q2_nodes = q2_nodes
        self.q2_values = q2_values
        self.x1_edges = x1_edges
        self.x1_values = x1_values


class HopState:
    """Seed set plus per-node survival complements for 1 or 2 hops.

    q1[v] = P[v not active within one hop], q2[v] likewise for two hops
    (only present when hops == 2). Seeds hold q = 0. With two hops,
    x1[out_to_in[e]] = out_prob[e] * (1 - q1[source of e]) is out-edge e's
    one-hop transmission, stored in incoming-view order, and out_weight[v]
    the sum of v's out-edge probabilities, read by `gain_bound`. `sigma` tracks the running
    hop-limited spread.
    """

    __slots__ = (
        "graph",
        "model",
        "hops",
        "seed_mask",
        "seeds",
        "q1",
        "q2",
        "x1",
        "out_weight",
        "sigma",
        "version",
    )

    def __init__(self, graph, model, hops):
        n = graph.node_count
        self.graph = graph
        self.model = model
        self.hops = hops
        self.seed_mask = np.zeros(n, dtype=bool)
        self.seeds = []
        self.q1 = np.ones(n)
        self.q2 = np.ones(n) if hops == 2 else None
        self.x1 = np.zeros(graph.edge_count) if hops == 2 else None
        self.out_weight = segment_sum(graph.out_prob, graph.out_indptr) if hops == 2 else None
        self.sigma = 0.0
        self.version = 0

    def spread(self):
        return self.sigma

    def activation(self):
        """Current per-node activation probability at the state's hop count."""
        q = self.q2 if self.hops == 2 else self.q1
        return 1.0 - q


def init_state(g, model="ic", hops=2):
    """Fresh empty-seed-set state: all activation probabilities zero."""
    if model not in ("ic", "lt"):
        raise ValueError(f"unknown diffusion model {model!r}")
    if hops not in (1, 2):
        raise ValueError(f"hops must be 1 or 2, got {hops}")
    if model == "lt":
        bad = validate_lt(g)
        if bad:
            raise GraphError(f"{len(bad)} nodes exceed unit incoming weight (first: {bad[0]})")
    return HopState(g, model, hops)


def _one_hop(s, u):
    """Candidate `u`'s non-seed out-neighbors ws, their one-hop survival and
    their would-be one-hop survival once u is a seed."""
    u = int(u)
    if not 0 <= u < s.graph.node_count:
        raise ValueError(f"node id {u} out of range")
    if s.seed_mask[u]:
        raise ValueError(f"node {u} is already a seed")
    nbrs, ps = s.graph.out_edges(u)
    keep = ~s.seed_mask[nbrs]
    ws = nbrs[keep]
    q1w = s.q1[ws]
    # LT in-weights may sum to 1 + LT_WEIGHT_TOLERANCE, so only q1 - b can leave [0, 1].
    q1w_new = q1w * (1.0 - ps[keep]) if s.model == "ic" else np.maximum(q1w - ps[keep], 0.0)
    return u, ws, q1w, q1w_new


def gain_bound(state, u):
    """Upper bound on the two-hop gain of adding `u`, in O(out-degree of u).

    A fall of q1 at node c raises the transmission of each out-edge of c by
    p * (fall), and a node's two-hop survival falls by at most the sum of its
    in-edges' rises (IC: telescoping the product; LT: the sum, which clipping
    only shrinks). Adding u lowers q1 at u to 0 and at each w in ws to its
    would-be value, so the gain is at most q2[u] + q1[u] W[u] + sum over ws of
    (q1[w] - q1'[w]) W[w], W being each node's total out-probability. At the
    empty seed set this is `upper_bounds(g, 2)`. BOUND_SLACK covers the
    rounding of the gain's own evaluation.
    """
    s = state
    u, ws, q1w, q1w_new = _one_hop(s, u)
    b = s.q2[u] + s.q1[u] * s.out_weight[u] + float((q1w - q1w_new) @ s.out_weight[ws])
    return b + BOUND_SLACK * max(1.0, b)


def eval_gain(state, u):
    """Exact marginal hop-limited gain of adding `u`, without changing state."""
    s = state
    g, q1 = s.graph, s.q1
    u, ws, q1w, q1w_new = _one_hop(s, u)
    q1_nodes = np.concatenate(([u], ws))
    q1_values = np.concatenate(([0.0], q1w_new))
    if s.hops == 1:
        gain = q1[u] + (q1w - q1w_new).sum()
        return GainReport(s, u, max(float(gain), 0.0), q1_nodes, q1_values)

    # Only C = {u} + ws change one-hop survival, so only out(C) can change
    # two-hop survival; recompute those from all their incoming edges. In
    # incoming-edge order, C's out-edges are grouped by target, ascending.
    c_edges, c_seg = gather_rows(g.out_indptr, q1_nodes)
    c_in = g.out_to_in[c_edges]
    order = np.argsort(c_in)
    c_in = c_in[order]
    c_edges = c_edges[order]
    c_dst = g.out_dst[c_edges]
    c_x1 = g.out_prob[c_edges] * (1.0 - np.repeat(q1_values, np.diff(c_seg))[order])
    first = np.ones(len(c_dst), dtype=bool)
    first[1:] = c_dst[1:] != c_dst[:-1]
    reach = c_dst[first]
    edges, seg = gather_rows(g.in_indptr, reach)
    # Edges from outside C keep the state's transmission; each out-edge of C
    # takes its would-be value at its offset in its target's segment.
    x1 = s.x1[edges]
    x1[c_in - g.in_indptr[c_dst] + seg[np.cumsum(first) - 1]] = c_x1
    live = ~s.seed_mask[reach] & (reach != u)
    t = reach[live]
    t_values = _survival(s.model, x1, seg[:-1])[live]
    q2 = s.q2
    gain = q2[u] + (q2[t] - t_values).sum()
    q2_nodes = np.concatenate(([u], t))
    q2_values = np.concatenate(([0.0], t_values))
    return GainReport(s, u, max(float(gain), 0.0), q1_nodes, q1_values, q2_nodes, q2_values, c_in, c_x1)


def commit(state, report):
    """Apply a GainReport produced against this exact state and version."""
    if report.state is not state:
        raise StaleReportError(f"report for node {report.candidate} was evaluated against another state")
    if report.state_version != state.version:
        raise StaleReportError(
            f"report for node {report.candidate} was evaluated at version "
            f"{report.state_version}, state is at {state.version}"
        )
    u = report.candidate
    if state.seed_mask[u]:
        raise ValueError(f"node {u} is already a seed")
    state.q1[report.q1_nodes] = report.q1_values
    if state.hops == 2:
        state.q2[report.q2_nodes] = report.q2_values
        state.x1[report.x1_edges] = report.x1_values
    state.seed_mask[u] = True
    state.seeds.append(u)
    state.sigma += report.gain
    state.version += 1
    return state


def spread(state):
    """Current hop-limited spread (sum of activation probabilities)."""
    return state.sigma


def _survival(model, x1, starts):
    """Survival of each reached node from the gathered one-hop transmissions
    `x1` of its incoming edges, a copy that is overwritten. Every reached
    node has an in-edge from C, so no segment is empty."""
    if model == "ic":
        return np.multiply.reduceat(np.subtract(1.0, x1, out=x1), starts)
    return np.maximum(1.0 - np.add.reduceat(x1, starts), 0.0)
