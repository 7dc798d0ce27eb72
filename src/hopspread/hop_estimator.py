"""Exact hop-limited activation probabilities, maintained incrementally.

For hop counts 1 and 2 the expected spread within that many hops has a
closed form per node, and adding one seed touches only the seed's one- and
two-hop out-neighborhood. `HopState` stores survival complements
q = 1 - activation probability, which stay well conditioned when
activation approaches 1.

Probing and committing are split: `eval_gain` leaves the state as it found
it and returns a `GainReport` holding the would-be values, so a selection
loop can probe many candidates and commit only the winner. A report
remembers the state it was computed against and that state's version
stamp, and `commit` refuses any other.

An evaluation updates the candidate's out-neighbors' one-hop survival by
one factor (cascade) or one subtracted weight (threshold), then recomputes
the two-hop survival of every node those one-hop changes reach directly
from its incoming edges, the same closed form a full recompute uses. No
survival is ever divided out, and q2 accumulates no drift of its own.
"""

from __future__ import annotations

import numpy as np

from ._segments import gather_rows, segment_prod, segment_sum, sorted_unique
from .graph import GraphError, validate_lt

DEFAULT_REFRESH_INTERVAL = 1024


class StaleReportError(RuntimeError):
    """A GainReport was produced against another state or an older version."""


class GainReport:
    """Marginal hop-limited gain of one candidate plus the values to commit."""

    __slots__ = ("state", "candidate", "gain", "state_version", "q1_nodes", "q1_values", "q2_nodes", "q2_values")

    def __init__(self, state, candidate, gain, q1_nodes, q1_values, q2_nodes, q2_values):
        self.state = state
        self.candidate = candidate
        self.gain = gain
        self.state_version = state.version
        self.q1_nodes = q1_nodes
        self.q1_values = q1_values
        self.q2_nodes = q2_nodes
        self.q2_values = q2_values


class HopState:
    """Seed set plus per-node survival complements for 1 or 2 hops.

    q1[v] = P[v not active within one hop], q2[v] likewise for two hops
    (only present when hops == 2). Seeds hold q = 0. `sigma` tracks the
    running hop-limited spread; a full recomputation every
    `refresh_interval` commits bounds the float drift of the incrementally
    updated q1 on long seed sequences.

    States are not thread-safe: a two-hop eval_gain briefly writes the
    would-be one-hop survivals into q1 and restores them in a `finally`
    block before it returns.
    """

    __slots__ = (
        "graph",
        "model",
        "hops",
        "seed_mask",
        "seeds",
        "q1",
        "q2",
        "sigma",
        "version",
        "commit_count",
        "refresh_interval",
    )

    def __init__(self, graph, model, hops, refresh_interval=DEFAULT_REFRESH_INTERVAL):
        n = graph.node_count
        self.graph = graph
        self.model = model
        self.hops = hops
        self.seed_mask = np.zeros(n, dtype=bool)
        self.seeds = []
        self.q1 = np.ones(n)
        self.q2 = np.ones(n) if hops == 2 else None
        self.sigma = 0.0
        self.version = 0
        self.commit_count = 0
        self.refresh_interval = refresh_interval

    def spread(self):
        return self.sigma

    def activation(self):
        """Current per-node activation probability at the state's hop count."""
        q = self.q2 if self.hops == 2 else self.q1
        return 1.0 - q


def init_state(g, model="ic", hops=2, refresh_interval=DEFAULT_REFRESH_INTERVAL):
    """Fresh empty-seed-set state: all activation probabilities zero."""
    if model not in ("ic", "lt"):
        raise ValueError(f"unknown diffusion model {model!r}")
    if hops not in (1, 2):
        raise ValueError(f"hops must be 1 or 2, got {hops}")
    if model == "lt":
        bad = validate_lt(g)
        if bad:
            raise GraphError(f"{len(bad)} nodes exceed unit incoming weight (first: {bad[0]})")
    return HopState(g, model, hops, refresh_interval)


def eval_gain(state, u):
    """Exact marginal hop-limited gain of adding `u`, without changing state."""
    s = state
    g, q1 = s.graph, s.q1
    u = int(u)
    if not 0 <= u < g.node_count:
        raise ValueError(f"node id {u} out of range")
    if s.seed_mask[u]:
        raise ValueError(f"node {u} is already a seed")

    nbrs, ps = g.out_edges(u)
    keep = ~s.seed_mask[nbrs]
    ws = nbrs[keep].astype(np.int64)
    q1w = q1[ws]
    q1w_new = q1w * (1.0 - ps[keep]) if s.model == "ic" else q1w - ps[keep]
    q1w_new = np.clip(q1w_new, 0.0, 1.0)
    q1_nodes = np.concatenate(([u], ws))
    q1_values = np.concatenate(([0.0], q1w_new))
    if s.hops == 1:
        gain = q1[u] + (q1w - q1w_new).sum()
        return GainReport(s, u, max(float(gain), 0.0), q1_nodes, q1_values, None, None)

    # Only C = {u} + ws change one-hop survival, so only out(C) can change
    # two-hop survival; recompute those from all their incoming edges.
    reach = sorted_unique(np.concatenate((ws, g.out_dst[gather_rows(g.out_indptr, ws)[0]])))
    t = reach[~s.seed_mask[reach] & (reach != u)]
    edges, seg = gather_rows(g.in_indptr, t)
    src = g.in_src[edges]
    q1_old = q1[q1_nodes]
    q1[q1_nodes] = q1_values
    try:
        pi1_src = 1.0 - q1[src]
    finally:
        q1[q1_nodes] = q1_old
    t_values = _survival(s.model, g.in_prob[edges], pi1_src, seg)
    q2 = s.q2
    gain = q2[u] + (q2[t] - t_values).sum()
    q2_nodes = np.concatenate(([u], t))
    q2_values = np.concatenate(([0.0], t_values))
    return GainReport(s, u, max(float(gain), 0.0), q1_nodes, q1_values, q2_nodes, q2_values)


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
    state.seed_mask[u] = True
    state.seeds.append(u)
    state.sigma += report.gain
    state.version += 1
    state.commit_count += 1
    if state.refresh_interval and state.commit_count % state.refresh_interval == 0:
        _refresh(state)
    return state


def spread(state):
    """Current hop-limited spread (sum of activation probabilities)."""
    return state.sigma


def _survival(model, p, pi_src, seg):
    """Per-segment survival given incoming edge weights and source activations."""
    if model == "ic":
        return segment_prod(1.0 - p * pi_src, seg)
    return np.clip(1.0 - segment_sum(p * pi_src, seg), 0.0, 1.0)


def _refresh(s):
    """Recompute survivals and spread from the seed set alone."""
    g = s.graph
    seeds = np.array(s.seeds, dtype=np.int64)
    q1 = _survival(s.model, g.in_prob, s.seed_mask[g.in_src], g.in_indptr)
    q1[seeds] = 0.0
    if s.hops == 2:
        q2 = _survival(s.model, g.in_prob, 1.0 - q1[g.in_src], g.in_indptr)
        q2[seeds] = 0.0
        s.q2 = q2
    s.q1 = q1
    qh = s.q2 if s.hops == 2 else s.q1
    s.sigma = float((1.0 - qh).sum())
