"""Synthetic generators: the power-law generator's duplicate-pair trim and input checks."""

import numpy as np
import pytest

from hopspread import generate
from hopspread.generate import _first_occurrences, power_law_graph


def reference_first_occurrences(a):
    return np.sort(np.unique(a, return_index=True)[1])


class TestFirstOccurrences:
    @pytest.mark.parametrize("n, size", [(3, 1), (5, 2000), (40, 500), (10**6, 3000)])
    def test_matches_unique_return_index(self, n, size):
        rng = np.random.default_rng(n)
        for _ in range(5):
            # Small n draws from few distinct pairs: most entries are duplicates.
            src = rng.integers(0, n, size)
            pair = src * n + rng.integers(0, n, size)
            assert np.array_equal(_first_occurrences(pair), reference_first_occurrences(pair))

    def test_no_duplicates_and_all_equal(self):
        a = np.array([7, 3, 9, 1], dtype=np.int64)
        assert np.array_equal(_first_occurrences(a), np.arange(4))
        assert np.array_equal(_first_occurrences(np.full(6, 4, dtype=np.int64)), [0])
        assert len(_first_occurrences(np.array([], dtype=np.int64))) == 0

    def test_power_law_graph_matches_unique_dedup(self, monkeypatch):
        for n, m in ((6, 25), (300, 2000)):
            g = power_law_graph(n, m, rng_seed=1)
            with monkeypatch.context() as mp:
                mp.setattr(generate, "_first_occurrences", reference_first_occurrences)
                ref = power_law_graph(n, m, rng_seed=1)
            assert g.edge_count == ref.edge_count
            assert np.array_equal(g.out_indptr, ref.out_indptr)
            assert np.array_equal(g.out_dst, ref.out_dst)


class TestPowerLawGraphInputs:
    @pytest.mark.parametrize("gamma", [1.0, 0.5, -2.0, float("inf"), float("nan")])
    def test_gamma_at_most_one_or_not_finite_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and above 1"):
            power_law_graph(60, 200, gamma=gamma)

    def test_gamma_just_above_one_builds(self):
        assert 0 < power_law_graph(60, 200, gamma=1.01).edge_count <= 200
