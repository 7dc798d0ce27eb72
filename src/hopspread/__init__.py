"""Hop-limited influence maximization for directed social graphs.

Exact one- and two-hop influence estimation with incremental updates, lazy
greedy seed selection with an upper-bound bootstrap, degree heuristics, and
the Monte-Carlo / exhaustive oracles used to validate all of it.
"""

from .analysis import (
    ScaleFreeParams,
    alpha_lower_bound,
    alpha_surface,
    degree_dist,
    guarantee_factor,
    one_hop_expected_lb,
    solve_expected_fraction,
)
from .bounds import upper_bounds
from .generate import power_law_graph, power_law_in_degree_graph
from .graph import Graph, GraphError, WeightModel, apply_weight_model, load_edge_list, validate_lt
from .hop_estimator import (
    GainReport,
    HopState,
    StaleReportError,
    commit,
    eval_gain,
    init_state,
    probe_gain,
    spread,
)
from .oracle import (
    ExactSpreadTable,
    SpreadEstimate,
    brute_force_optimal,
    estimate_hop_profile,
    estimate_spread,
    exact_spread,
    simulate_once,
)
from .selection import (
    SeedResult,
    degree_discount,
    greedy_celf,
    greedy_naive,
    high_degree,
)

__all__ = [
    "ExactSpreadTable",
    "GainReport",
    "Graph",
    "GraphError",
    "HopState",
    "ScaleFreeParams",
    "SeedResult",
    "SpreadEstimate",
    "StaleReportError",
    "WeightModel",
    "alpha_lower_bound",
    "alpha_surface",
    "apply_weight_model",
    "brute_force_optimal",
    "commit",
    "degree_discount",
    "degree_dist",
    "estimate_hop_profile",
    "estimate_spread",
    "eval_gain",
    "exact_spread",
    "greedy_celf",
    "greedy_naive",
    "guarantee_factor",
    "high_degree",
    "init_state",
    "load_edge_list",
    "one_hop_expected_lb",
    "power_law_graph",
    "power_law_in_degree_graph",
    "probe_gain",
    "simulate_once",
    "solve_expected_fraction",
    "spread",
    "upper_bounds",
    "validate_lt",
]

__version__ = "0.1.0"
