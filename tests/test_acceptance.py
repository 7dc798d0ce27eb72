"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines. Criteria 9 and 10 build million-edge synthetic graphs and are
marked slow; they still run by default.
"""

import itertools
import time
import warnings

import numpy as np
import pytest

from conftest import (
    random_graph_with_cycles,
    random_ic_graph,
    random_lt_graph,
    reference_activation,
)
from hopspread.analysis import (
    ScaleFreeParams,
    alpha_lower_bound,
    alpha_surface,
    degree_dist,
    fixed_point_residuals,
    one_hop_expected_lb,
    solve_expected_fraction,
)
from hopspread.bounds import upper_bounds
from hopspread.generate import power_law_graph, power_law_in_degree_graph
from hopspread.graph import Graph, WeightModel, apply_weight_model
from hopspread.hop_estimator import commit, eval_gain, init_state, spread
from hopspread.oracle import (
    ExactSpreadTable,
    estimate_hop_profile,
    estimate_spread,
    exact_spread,
)
from hopspread.selection import greedy_celf, greedy_naive


def _report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_hop_estimation_exactness():
    """Estimator spread equals enumerated expected spread on 500 graphs."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        g = random_ic_graph(rng, n_max=10, m_max=12)
        k = int(rng.integers(1, g.node_count + 1))
        seeds = rng.choice(g.node_count, size=k, replace=False)
        for hops in (1, 2):
            state = init_state(g, "ic", hops)
            for u in seeds:
                commit(state, eval_gain(state, int(u)))
            worst = max(worst, abs(spread(state) - exact_spread(g, seeds, "ic", hops)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(1, ok, f"500 graphs x 2 hop limits, max |delta| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_incremental_matches_closed_form():
    """Incrementally maintained activations equal direct recomputation."""
    rng = np.random.default_rng(1002)
    worst = 0.0
    # Deterministic saturated construct: probability-1 edges and a 2-cycle,
    # which forces the ill-conditioned ratio fallback.
    forced = Graph(4, [0, 1, 1, 2, 2], [1, 0, 2, 1, 3], [1.0, 1.0, 1.0, 1.0, 1.0])
    graphs = [forced] + [random_graph_with_cycles(rng, n=int(rng.integers(50, 201))) for _ in range(12)]
    for g in graphs:
        order = rng.permutation(g.node_count)[: max(1, g.node_count // 2)]
        state = init_state(g, "ic", 2)
        for u in order:
            commit(state, eval_gain(state, int(u)))
        worst = max(
            worst,
            float(np.abs((1.0 - state.q1) - reference_activation(g, order, 1, "ic")).max()),
            float(np.abs((1.0 - state.q2) - reference_activation(g, order, 2, "ic")).max()),
        )
    ok = worst <= 1e-9
    _report(2, ok, f"{len(graphs)} graphs with p=1 edges and 2-cycles, max per-node |delta| = {worst:.2e}")


def test_criterion_03_upper_bound_dominance():
    """One-hop bound exact; two-hop bound dominates true single-seed spread."""
    rng = np.random.default_rng(1003)
    worst_eq = 0.0
    worst_margin = np.inf
    for _ in range(100):
        g = random_ic_graph(rng, n_max=30, m_max=90, p_one_frac=0.15)
        ub1 = upper_bounds(g, 1)
        ub2 = upper_bounds(g, 2)
        s1 = init_state(g, "ic", 1)
        s2 = init_state(g, "ic", 2)
        for v in range(g.node_count):
            worst_eq = max(worst_eq, abs(ub1[v] - eval_gain(s1, v).gain))
            worst_margin = min(worst_margin, ub2[v] - eval_gain(s2, v).gain)
    ok = worst_eq <= 1e-12 and worst_margin >= -1e-9
    _report(3, ok, f"100 graphs, 1-hop max |delta| = {worst_eq:.2e}, 2-hop min margin = {worst_margin:.2e}")


def test_criterion_03_lt_upper_bound_dominance():
    """Criterion 3 under the threshold model: the bounds the LT bootstrap uses."""
    rng = np.random.default_rng(1013)
    worst_eq = 0.0
    worst_margin = np.inf
    unit_edges = two_cycles = 0
    for _ in range(100):
        g = random_lt_graph(rng, n_max=30, m_max=90, p_one_frac=0.15)
        src = np.repeat(np.arange(g.node_count), np.diff(g.out_indptr))
        pairs = set(zip(src.tolist(), g.out_dst.tolist()))
        unit_edges += int((g.out_prob == 1.0).sum())
        two_cycles += sum((v, u) in pairs for u, v in pairs) // 2
        ub1 = upper_bounds(g, 1)
        ub2 = upper_bounds(g, 2)
        s1 = init_state(g, "lt", 1)
        s2 = init_state(g, "lt", 2)
        for v in range(g.node_count):
            worst_eq = max(worst_eq, abs(ub1[v] - eval_gain(s1, v).gain))
            worst_margin = min(worst_margin, ub2[v] - eval_gain(s2, v).gain)
    ok = worst_eq <= 1e-12 and worst_margin >= -1e-9 and unit_edges > 0 and two_cycles > 0
    _report(
        3,
        ok,
        f"LT, 100 graphs ({unit_edges} weight-1 edges, {two_cycles} 2-cycles), "
        f"1-hop max |delta| = {worst_eq:.2e}, 2-hop min margin = {worst_margin:.2e}",
    )


def test_criterion_04_monotone_submodular():
    """Marginal gains shrink as the seed set grows, for both models and hops."""
    rng = np.random.default_rng(1004)
    triples = 0
    worst = np.inf
    for model, hops in itertools.product(("ic", "lt"), (1, 2)):
        combo_triples = 0
        while combo_triples < 2500:
            g = (
                random_ic_graph(rng, n_max=12, m_max=25, n_min=4)
                if model == "ic"
                else random_lt_graph(rng, n_max=10, m_max=18, n_min=4)
            )
            n = g.node_count
            t_size = int(rng.integers(1, n))
            t_nodes = rng.permutation(n)[:t_size]
            s_size = int(rng.integers(0, t_size))
            outside = [v for v in range(n) if v not in set(t_nodes.tolist())]
            if not outside:
                continue
            us = rng.choice(outside, size=min(5, len(outside)), replace=False)
            state = init_state(g, model, hops)
            for v in t_nodes[:s_size]:
                commit(state, eval_gain(state, int(v)))
            sigma_s = spread(state)
            gains_s = {int(u): eval_gain(state, int(u)).gain for u in us}
            for v in t_nodes[s_size:]:
                commit(state, eval_gain(state, int(v)))
            assert spread(state) >= sigma_s - 1e-9
            for u in us:
                gain_t = eval_gain(state, int(u)).gain
                assert gain_t >= 0.0
                worst = min(worst, gains_s[int(u)] - gain_t)
                combo_triples += 1
        triples += combo_triples
    ok = triples >= 10**4 and worst >= -1e-9
    _report(4, ok, f"{triples} (S, T, u) triples, min gain(S,u) - gain(T,u) = {worst:.2e}")


def test_criterion_05_celf_soundness():
    """Lazy greedy (both bootstraps) reproduces naive greedy; bounds save work."""
    rng = np.random.default_rng(1005)
    mismatches = 0
    for i in range(100):
        hops = 1 if i % 2 else 2
        g = random_ic_graph(rng, n_max=25, m_max=70, n_min=5)
        k = int(rng.integers(1, min(6, g.node_count) + 1))
        naive = greedy_naive(g, k, model="ic", hops=hops)
        for bootstrap in ("upper_bounds", "none"):
            lazy = greedy_celf(g, k, model="ic", hops=hops, bootstrap=bootstrap)
            if lazy.seeds != naive.seeds:
                mismatches += 1
    big = apply_weight_model(power_law_graph(2000, 8000, gamma=2.4, rng_seed=50), WeightModel("wc"))
    with_ub = greedy_celf(big, 20, model="ic", hops=2, bootstrap="upper_bounds")
    without = greedy_celf(big, 20, model="ic", hops=2, bootstrap="none")
    ok = mismatches == 0 and with_ub.seeds == without.seeds and with_ub.evaluations < without.evaluations
    _report(
        5,
        ok,
        f"100 instances identical to naive ({mismatches} mismatches); "
        f"2000-node graph: {with_ub.evaluations} vs {without.evaluations} evaluations, same seeds",
    )


def test_criterion_06_guarantee_sandwich():
    """Hop-limited greedy stays within (1 - 1/e) * alpha of the true optimum."""
    rng = np.random.default_rng(1006)
    factor = 1.0 - 1.0 / np.e
    violations = 0
    checked = 0
    for i in range(50):
        g = random_ic_graph(rng, n_max=9, m_max=12, n_min=4)
        k = int(rng.integers(1, min(3, g.node_count) + 1))
        hops = 1 if i % 2 else 2
        table_h = ExactSpreadTable(g, "ic", hops)
        table_inf = ExactSpreadTable(g, "ic", None)
        best_inf = -1.0
        alpha = 1.0
        for combo in itertools.combinations(range(g.node_count), k):
            s_inf = table_inf.spread(combo)
            best_inf = max(best_inf, s_inf)
            alpha = min(alpha, table_h.spread(combo) / s_inf)
        greedy = greedy_celf(g, k, model="ic", hops=hops)
        checked += 1
        if table_inf.spread(greedy.seeds) < factor * alpha * best_inf - 1e-9:
            violations += 1
    ok = checked == 50 and violations == 0
    _report(6, ok, f"50 exhaustively solved instances, {violations} guarantee violations")


def test_criterion_07_lt_correctness():
    """Threshold-model estimator agrees with enumeration and simulation."""
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(100):
        g = random_lt_graph(rng, n_max=6, m_max=9)
        k = int(rng.integers(1, g.node_count + 1))
        seeds = rng.choice(g.node_count, size=k, replace=False)
        for hops in (1, 2):
            state = init_state(g, "lt", hops)
            for u in seeds:
                commit(state, eval_gain(state, int(u)))
            worst = max(worst, abs(spread(state) - exact_spread(g, seeds, "lt", hops)))
    mc_ok = True
    mc_detail = []
    g = random_lt_graph(rng, n_max=6, m_max=9, n_min=5)
    seeds = [int(np.argmax(g.out_degrees()))]
    for hops in (1, 2):
        state = init_state(g, "lt", hops)
        commit(state, eval_gain(state, seeds[0]))
        est = estimate_spread(g, seeds, "lt", hops, n_sims=10**5, rng_seed=70 + hops)
        delta = abs(est.mean - spread(state))
        mc_ok = mc_ok and delta <= max(4.0 * est.std_error, 1e-9)
        mc_detail.append(f"h={hops}: |delta|={delta:.4f} vs 4se={4 * est.std_error:.4f}")
    ok = worst <= 1e-9 and mc_ok
    _report(7, ok, f"enumeration max |delta| = {worst:.2e}; 1e5-sim threshold MC {'; '.join(mc_detail)}")


def test_criterion_08_scale_free_analysis():
    """Ratio-bound surface, fixed-point residuals, and the one-hop floor.

    The bound's numerator and denominator are both affine in p, so each
    seed-ratio column of the surface is monotone in p, in the direction of
    the p-independent sign of r (1 - r) [1 - P0(1) - (1 - r) P0(1) (1 - P1(1))].
    Columns fall below the crossover r* = 1 - (1 - P0(1)) / (P0(1) (1 - P1(1)))
    (~0.4846 at gamma = 3), rise above it, and the r = 0 column is flat; the
    p-axis sub-check asserts exactly that direction for every column.
    """
    from scipy.special import zeta

    ps = np.linspace(0.0, 0.1, 11)
    ratios = np.linspace(0.0, 0.5, 11)
    grid = alpha_surface(3.0, ps, ratios)
    in_range = bool(((grid >= 0.0) & (grid <= 1.0)).all())
    ratio_monotone = bool((np.diff(grid, axis=1) >= -1e-12).all())

    shape = ScaleFreeParams(gamma=3.0)
    p0_1 = degree_dist(shape, "p0", 1)
    p1_1 = degree_dist(shape, "p1", 1)
    r_star = 1.0 - (1.0 - p0_1) / (p0_1 * (1.0 - p1_1))
    z0, z1 = 1.0 / zeta(3.0), 1.0 / zeta(2.0)
    r_star_zeta = 1.0 - (1.0 - z0) / (z0 * (1.0 - z1))
    r_star_ok = abs(r_star - r_star_zeta) < 1e-5
    # The slope sign equals the sign of r (r - r*) for r < 1, since
    # 1 - P0(1) - (1 - r) P0(1) (1 - P1(1)) = P0(1) (1 - P1(1)) (r - r*).
    direction = np.sign(ratios * (ratios - r_star))
    steps = np.diff(grid, axis=0)
    both_directions = bool((direction < 0).any() and (direction > 0).any())
    p_directed = bool(
        (steps * direction >= -1e-12).all() and (np.abs(steps[:, direction == 0]) <= 1e-12).all()
    )

    def _ratios(mask):
        return ",".join(f"{r:g}" for r in ratios[mask])

    residual_ok = True
    for gamma, p, r in [(3.0, 0.05, 0.1), (2.5, 0.08, 0.3), (3.0, 0.02, 0.45)]:
        params = ScaleFreeParams(gamma=gamma, p=p, seed_ratio=r)
        phi, varphi = solve_expected_fraction(params)
        res1, res2 = fixed_point_residuals(params, phi, varphi)
        residual_ok = residual_ok and res1 < 1e-10 and res2 < 1e-10

    n, k, p_uniform = 3000, 150, 0.08
    g = power_law_in_degree_graph(n, gamma=3.0, rng_seed=80)
    g = apply_weight_model(g, WeightModel("uniform", p=p_uniform))
    rng = np.random.default_rng(81)
    seeds = rng.choice(n, size=k, replace=False)
    est = estimate_spread(g, seeds, "ic", hop_limit=1, n_sims=3000, rng_seed=82)
    bound = one_hop_expected_lb(ScaleFreeParams(gamma=3.0, p=p_uniform), n, k)
    floor_ok = est.mean >= bound - 3.0 * est.std_error

    print(
        f"\n[criterion 08] sub-checks: range={in_range} ratio-axis-monotone={ratio_monotone} "
        f"p-axis-directed={p_directed} (r*={r_star:.6f}, zeta form {r_star_zeta:.6f}: {r_star_ok}; "
        f"flat at r={_ratios(direction == 0)}, falls at r={_ratios(direction < 0)}, "
        f"rises at r={_ratios(direction > 0)}) "
        f"residuals<1e-10={residual_ok} one-hop floor: mean={est.mean:.1f} >= {bound:.1f} - 3se={3 * est.std_error:.2f}: {floor_ok}"
    )
    p_axis_ok = r_star_ok and both_directions and p_directed
    ok = in_range and ratio_monotone and p_axis_ok and residual_ok and floor_ok
    _report(
        8,
        ok,
        f"surface range/ratio-axis monotonicity + p-axis direction about r*={r_star:.6f} "
        "+ fixed-point residuals + one-hop floor",
    )


@pytest.mark.slow
def test_criterion_09_hop_decay_trend():
    """Most of the spread of greedy seeds arrives within two hops (soft)."""
    n, m, k = 10**5, 10**6, 1000
    g = apply_weight_model(power_law_graph(n, m, gamma=2.3, rng_seed=90), WeightModel("wc"))
    res = greedy_celf(g, k, model="ic", hops=1)
    means, _ = estimate_hop_profile(g, res.seeds, "ic", n_sims=150, rng_seed=91)
    s1, s2, sinf = float(means[1]), float(means[2]), float(means[-1])
    chain_ok = s1 <= s2 + 1e-9 <= sinf + 2e-9
    ratio = s2 / sinf
    if ratio < 0.5:
        warnings.warn(
            f"two-hop share of spread is {ratio:.3f} (< 0.5) on this synthetic topology; "
            "reported, not asserted"
        )
    _report(9, chain_ok, f"sigma1={s1:.0f} <= sigma2={s2:.0f} <= sigmainf={sinf:.0f}; sigma2/sigmainf = {ratio:.3f} (soft >= 0.5)")


@pytest.mark.slow
def test_criterion_10_performance_scaling():
    """Per-seed evaluation cost scales linearly; big-graph runs stay fast.

    The slope is measured on the full-evaluation greedy, whose per-seed cost
    is exactly one sweep over all candidates; the lazy greedy skips most of
    that sweep, so its per-seed time is sub-linear by design and would not
    exhibit the bound.
    """
    sizes = [(10**3, 10**4), (10**4, 10**5), (10**5, 10**6), (10**6, 10**7)]
    xs, ys = [], []
    big = mid = None
    for n, m in sizes:
        g = apply_weight_model(power_law_graph(n, m, gamma=2.3, rng_seed=100), WeightModel("wc"))
        k = 2
        t0 = time.perf_counter()
        greedy_naive(g, k, model="ic", hops=1)
        ys.append((time.perf_counter() - t0) / k)
        xs.append(n + m)
        if m == 10**7:
            big = g
        elif m == 10**6:
            mid = g
    slope = float(np.polyfit(np.log10(xs), np.log10(ys), 1)[0])

    t0 = time.perf_counter()
    greedy_celf(big, 100, model="ic", hops=1)
    big_seconds = time.perf_counter() - t0

    times = {}
    for f in (1.0, 1.5):
        gf = apply_weight_model(mid, WeightModel("wc", scale_factor=f))
        t0 = time.perf_counter()
        greedy_celf(gf, 100, model="ic", hops=1)
        times[f] = time.perf_counter() - t0
    scale_ratio = max(times.values()) / min(times.values())

    ok = 0.8 <= slope <= 1.2 and big_seconds < 60.0 and scale_ratio < 2.0
    _report(
        10,
        ok,
        f"per-seed slope = {slope:.3f} (target 1.0 +- 0.2); k=100 on 1e7 edges in {big_seconds:.1f}s (< 60); "
        f"scale-factor 1.0 vs 1.5 runtime ratio = {scale_ratio:.2f} (< 2)",
    )


def test_criterion_11_monte_carlo_estimator():
    """Seeded reproducibility and 4-standard-error coverage of the mean."""
    g = Graph(3, [0, 1], [1, 2], [0.5, 0.5])
    a = estimate_spread(g, [0], "ic", None, 1000, rng_seed=110)
    b = estimate_spread(g, [0], "ic", None, 1000, rng_seed=110)
    reproducible = a == b
    exact = exact_spread(g, [0], "ic", None)
    hits = 0
    for trial in range(100):
        est = estimate_spread(g, [0], "ic", None, 400, rng_seed=1100 + trial)
        if abs(est.mean - exact) <= 4.0 * est.std_error:
            hits += 1
    ok = reproducible and hits >= 95
    _report(11, ok, f"bit-reproducible at fixed seed: {reproducible}; 4se coverage {hits}/100 (need >= 95)")
