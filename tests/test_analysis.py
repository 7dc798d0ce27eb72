"""Truncated power-law distributions, the ratio lower bound, and the
activated-fraction fixed point."""

import math

import numpy as np
import pytest
from scipy.special import zeta

from hopspread import analysis
from hopspread.analysis import (
    FIXED_POINT_TOL,
    ScaleFreeParams,
    alpha_lower_bound,
    alpha_surface,
    degree_dist,
    fixed_point_residuals,
    guarantee_factor,
    one_hop_expected_lb,
    solve_expected_fraction,
    surface_csv,
    truncation_tail,
)


def truncated_norm(exponent, d_max):
    return np.power(np.arange(1, d_max + 1, dtype=np.float64), exponent).sum()


class TestDegreeDistributions:
    def test_p0_at_one_matches_zeta(self):
        params = ScaleFreeParams(gamma=3.0)
        # Truncation tail at 1e6 for exponent -3 is ~5e-13.
        assert degree_dist(params, "p0", 1) == pytest.approx(1.0 / zeta(3.0), abs=1e-9)

    def test_p1_at_one_matches_zeta(self):
        params = ScaleFreeParams(gamma=3.0)
        # P1 uses exponent 1 - gamma = -2; its truncation tail is ~1e-6.
        assert degree_dist(params, "p1", 1) == pytest.approx(1.0 / zeta(2.0), abs=2e-6)

    def test_matches_independent_truncated_sum(self):
        params = ScaleFreeParams(gamma=2.5, truncation=10**5)
        for d in (1, 2, 7, 100):
            expected = d**-2.5 / truncated_norm(-2.5, 10**5)
            assert degree_dist(params, "p0", d) == pytest.approx(expected, rel=1e-12)

    def test_normalization(self):
        params = ScaleFreeParams(gamma=3.0, truncation=1000)
        total = sum(degree_dist(params, "p0", d) for d in range(1, 1001))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_degree_must_be_an_integer(self):
        params = ScaleFreeParams(gamma=3.0, truncation=1000)
        assert degree_dist(params, "p0", np.int64(7)) == degree_dist(params, "p0", 7)
        with pytest.raises(TypeError):
            degree_dist(params, "p0", 7.0)

    def test_beyond_truncation_is_zero(self):
        params = ScaleFreeParams(gamma=3.0, truncation=1000)
        assert degree_dist(params, "p0", 1001) == 0.0

    def test_convergence_requirements(self):
        with pytest.raises(ValueError):
            ScaleFreeParams(gamma=1.0)
        params = ScaleFreeParams(gamma=1.5)
        with pytest.raises(ValueError):
            degree_dist(params, "p1", 1)
        with pytest.raises(ValueError):
            degree_dist(params, "p0", 0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ScaleFreeParams(gamma=3.0, p=1.5)
        with pytest.raises(ValueError):
            ScaleFreeParams(gamma=3.0, seed_ratio=-0.1)
        with pytest.raises(ValueError):
            ScaleFreeParams(gamma=3.0, truncation=100)
        with pytest.raises(ValueError, match="truncation"):
            ScaleFreeParams(gamma=3.0, truncation=10**7 + 1)
        with pytest.raises(ValueError, match="finite"):  # d^-inf is no degree law
            ScaleFreeParams(gamma=math.inf)
        assert ScaleFreeParams(gamma=3.0, truncation=10**7).truncation == 10**7

    def test_truncation_tail_small_for_default(self):
        assert truncation_tail(ScaleFreeParams(gamma=3.0), "p0") < 1e-9


class TestAlphaLowerBound:
    def test_zero_seed_ratio_gives_zero(self):
        assert alpha_lower_bound(ScaleFreeParams(gamma=3.0, p=0.05, seed_ratio=0.0)) == 0.0

    def test_p_zero_closed_form(self):
        # With p = 0 the bound reduces to r / (1 - (1 - r) P0(1)).
        params = ScaleFreeParams(gamma=3.0, p=0.0, seed_ratio=0.5)
        p0_1 = 1.0 / truncated_norm(-3.0, params.truncation)
        expected = 0.5 / (1.0 - 0.5 * p0_1)
        assert alpha_lower_bound(params) == pytest.approx(expected, rel=1e-12)
        assert alpha_lower_bound(params) == pytest.approx(0.8560964914, abs=1e-9)

    def test_surface_range_and_ratio_axis_monotone(self):
        # The bound is globally non-decreasing along the seed-ratio axis.
        # Along the p axis each column is monotone but its direction flips at
        # the crossover seed ratio (~0.4846 at gamma = 3): it falls below it
        # and rises above it. Criterion 08 checks that direction; only the
        # ratio axis is asserted here.
        ps = np.linspace(0.0, 0.1, 6)
        ratios = np.linspace(0.0, 0.5, 6)
        grid = alpha_surface(3.0, ps, ratios)
        assert grid.shape == (len(ps), len(ratios)) and grid.dtype == np.float64
        assert ((grid >= 0.0) & (grid <= 1.0)).all()
        assert (np.diff(grid, axis=1) >= -1e-12).all()

    def test_p_axis_dip_below_crossover_ratio(self):
        # Pin the non-monotone region so a change in the formula would surface.
        low = alpha_lower_bound(ScaleFreeParams(gamma=3.0, p=0.0, seed_ratio=0.1))
        high = alpha_lower_bound(ScaleFreeParams(gamma=3.0, p=0.1, seed_ratio=0.1))
        assert high < low
        assert alpha_lower_bound(ScaleFreeParams(gamma=3.0, p=0.1, seed_ratio=0.5)) > alpha_lower_bound(
            ScaleFreeParams(gamma=3.0, p=0.0, seed_ratio=0.5)
        )

    def test_csv_format(self):
        chunks = list(surface_csv([0.0, 0.1], [0.0, 0.5], alpha_surface(3.0, [0.0, 0.1], [0.0, 0.5])))
        assert len(chunks) == 3  # the header, then one chunk per p
        text = "".join(chunks)
        lines = text.strip().split("\n")
        assert lines[0] == "p,seed_ratio,alpha"
        assert len(lines) == 5
        assert lines[1].startswith("0,0,")

    def test_surface_equals_scalar_bound_bit_for_bit(self):
        # Both read one expression; the grid must not drift from the scalar bound by a rounding.
        for gamma, truncation in ((3.0, 10**6), (2.5, 10**5), (2.001, 1000)):
            ps, ratios = np.linspace(0.0, 1.0, 23), np.linspace(0.0, 1.0, 17)
            grid = alpha_surface(gamma, ps, ratios, truncation=truncation)
            for i, j in [(0, 0), (0, 16), (22, 0), (22, 16), (3, 7), (11, 8), (17, 2), (5, 13)]:
                params = ScaleFreeParams(gamma, float(ps[i]), float(ratios[j]), truncation)
                assert alpha_lower_bound(params) == grid[i, j], (gamma, i, j)

    @pytest.mark.parametrize(
        "gamma, ps, ratios, truncation, message",
        [
            (math.nan, [0.0, math.nan], [2.0], 1, "gamma must exceed 1"),
            (3.0, [0.0, math.nan], [0.5, 2.0], 1, "p must be in"),
            (3.0, [0.0, 0.5], [0.5, math.nan], 1, "seed_ratio must be in"),
            (1.5, [0.0], [0.5], 1, "truncation must be in"),
            (1.5, [0.0], [0.5], 1000, "P1 requires gamma > 2"),
            (60.0, [0.1, 0.2], [0.5, 0.0], 1000, "degenerate denominator"),
        ],
        ids=["gamma", "p", "seed-ratio", "truncation", "p1", "denominator"],
    )
    def test_surface_checks_every_value_in_order(self, gamma, ps, ratios, truncation, message):
        # Each case holds its named fault and every fault later in the order; a bad grid value is never the first.
        with pytest.raises(ValueError, match=message):
            alpha_surface(gamma, ps, ratios, truncation=truncation)


class TestGuaranteeFactor:
    def test_alpha_one(self):
        assert guarantee_factor(1.0) == pytest.approx(1.0 - 1.0 / math.e, abs=1e-15)

    def test_alpha_zero(self):
        assert guarantee_factor(0.0) == 0.0

    def test_multiplicative(self):
        assert guarantee_factor(0.8563) == pytest.approx((1.0 - 1.0 / math.e) * 0.8563, abs=1e-15)

    def test_range_check(self):
        with pytest.raises(ValueError):
            guarantee_factor(1.2)


class TestOneHopExpectedLb:
    def test_p_zero_is_k(self):
        assert one_hop_expected_lb(ScaleFreeParams(gamma=3.0, p=0.0), 100, 10) == 10.0

    def test_k_equals_n(self):
        assert one_hop_expected_lb(ScaleFreeParams(gamma=3.0, p=0.3), 50, 50) == pytest.approx(50.0)

    def test_arithmetic(self):
        assert one_hop_expected_lb(ScaleFreeParams(gamma=3.0, p=0.1), 100, 10) == pytest.approx(10.9)

    def test_k_exceeds_n(self):
        with pytest.raises(ValueError):
            one_hop_expected_lb(ScaleFreeParams(gamma=3.0), 10, 11)
        with pytest.raises(ValueError):
            one_hop_expected_lb(ScaleFreeParams(gamma=3.0, p=0.5), 10, -5)
        with pytest.raises(ValueError):
            one_hop_expected_lb(ScaleFreeParams(gamma=3.0), 0, 0)


class TestBoundSandwich:
    def test_empirical_hop_ratio_dominates_bound(self):
        # On power-law in-degree graphs with uniform p, the measured ratio of
        # one-hop to unlimited spread must sit above the closed-form floor.
        from hopspread.generate import power_law_in_degree_graph
        from hopspread.graph import WeightModel, apply_weight_model
        from hopspread.oracle import estimate_spread

        n, k, p = 2500, 250, 0.05
        params = ScaleFreeParams(gamma=3.0, p=p, seed_ratio=k / n)
        alpha = alpha_lower_bound(params)
        g = apply_weight_model(power_law_in_degree_graph(n, gamma=3.0, rng_seed=60), WeightModel("uniform", p=p))
        rng = np.random.default_rng(61)
        ratios = []
        for i in range(10):
            seeds = rng.choice(n, size=k, replace=False)
            one = estimate_spread(g, seeds, "ic", 1, n_sims=300, rng_seed=600 + i)
            full = estimate_spread(g, seeds, "ic", None, n_sims=300, rng_seed=6000 + i)
            ratios.append(one.mean / full.mean)
        mean_ratio = float(np.mean(ratios))
        se_ratio = float(np.std(ratios, ddof=1) / np.sqrt(len(ratios)))
        assert mean_ratio >= alpha - 3.0 * se_ratio


class TestFixedPoint:
    def test_zero_seed_ratio(self):
        phi, varphi = solve_expected_fraction(ScaleFreeParams(gamma=3.0, p=0.05, seed_ratio=0.0))
        assert phi == pytest.approx(0.0, abs=1e-9)
        assert varphi == pytest.approx(0.0, abs=1e-9)

    def test_p_zero_collapses_to_seed_ratio(self):
        phi, varphi = solve_expected_fraction(ScaleFreeParams(gamma=3.0, p=0.0, seed_ratio=0.3))
        assert phi == pytest.approx(0.3, abs=1e-9)
        assert varphi == pytest.approx(0.3, abs=1e-9)

    def test_residuals_small_across_parameters(self):
        for gamma, p, r in [(3.0, 0.05, 0.1), (2.5, 0.1, 0.3), (2.2, 0.02, 0.05), (3.0, 0.5, 0.4)]:
            params = ScaleFreeParams(gamma=gamma, p=p, seed_ratio=r)
            phi, varphi = solve_expected_fraction(params)
            res1, res2 = fixed_point_residuals(params, phi, varphi)
            assert res1 < 1e-10 and res2 < 1e-10
            assert 0.0 <= varphi <= 1.0 and 0.0 <= phi <= 1.0

    def test_iterates_move_one_way(self, monkeypatch):
        # v -> 1 - (1 - r) sum_d P1(d) (1 - p v)^d maps [0, 1] into [r, 1] and
        # does not decrease in v, so plain iteration from v = r never steps
        # back and needs no damping. Each call of `_powers` sees x = 1 - p v:
        # the iterates, then the final varphi for phi. The last step is the
        # converged one, below the tolerance, and may go either way by an ulp.
        seen = []
        real = analysis._powers
        monkeypatch.setattr(analysis, "_powers", lambda x, buf: seen.append(x) or real(x, buf))
        for gamma in (2.01, 2.3, 3.0, 5.0, 8.0):
            for p in (0.0, 0.05, 0.5, 1.0):
                for r in (0.0, 0.01, 0.3, 0.9, 1.0):
                    for truncation in (1000, 10**5):
                        seen.clear()
                        params = ScaleFreeParams(gamma=gamma, p=p, seed_ratio=r, truncation=truncation)
                        _, varphi = solve_expected_fraction(params)
                        steps = np.diff(seen)
                        assert (steps[:-1] <= 0.0).all(), (gamma, p, r, truncation)
                        assert abs(steps[-1]) < FIXED_POINT_TOL
                        # The sum of P1 rounds below 1, so a last step can land an ulp below r.
                        assert r - FIXED_POINT_TOL <= varphi <= 1.0

    def test_phi_at_least_seed_ratio(self):
        params = ScaleFreeParams(gamma=3.0, p=0.1, seed_ratio=0.2)
        phi, _ = solve_expected_fraction(params)
        assert phi >= 0.2 - 1e-12
