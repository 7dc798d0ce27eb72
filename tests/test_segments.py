"""Segmented CSR sums and row gathers, including the empty-segment corner cases."""

import numpy as np

from hopspread._segments import gather_rows, segment_sum, sorted_unique


def brute_sum(values, indptr):
    return np.array([values[a:b].sum() for a, b in zip(indptr[:-1], indptr[1:])])


def brute_gather(indptr, rows):
    idx = [i for r in rows for i in range(indptr[r], indptr[r + 1])]
    seg = np.cumsum([0] + [indptr[r + 1] - indptr[r] for r in rows])
    return np.array(idx, dtype=np.int64), seg


def assert_gather_matches(indptr, rows):
    idx, seg = gather_rows(indptr, rows)
    want_idx, want_seg = brute_gather(indptr, rows)
    assert np.array_equal(idx, want_idx) and np.array_equal(seg, want_seg)
    assert idx.dtype.kind == "i" and seg.dtype == np.int64


def test_trailing_empty_segments_do_not_truncate_previous():
    values = np.array([0.5, 0.25, 0.75])
    indptr = np.array([0, 1, 3, 3, 3])
    assert np.allclose(segment_sum(values, indptr), [0.5, 1.0, 0.0, 0.0])


def test_leading_and_interior_empties():
    values = np.array([2.0, 3.0, 4.0])
    indptr = np.array([0, 0, 2, 2, 3])
    assert np.allclose(segment_sum(values, indptr), [0.0, 5.0, 0.0, 4.0])


def test_all_empty():
    values = np.zeros(0)
    indptr = np.zeros(4, dtype=int)
    assert np.allclose(segment_sum(values, indptr), 0.0)


def test_random_against_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n_seg = int(rng.integers(1, 12))
        counts = rng.integers(0, 5, size=n_seg)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        values = rng.random(int(counts.sum())) + 0.1
        assert np.allclose(segment_sum(values, indptr), brute_sum(values, indptr))


def test_gather_rows_with_empty_rows():
    indptr = np.array([0, 2, 2, 5, 5, 6], dtype=np.int64)
    idx, seg = gather_rows(indptr, np.array([3, 0, 1, 2, 4, 2], dtype=np.int64))
    assert idx.tolist() == [0, 1, 2, 3, 4, 5, 2, 3, 4]
    assert seg.tolist() == [0, 0, 2, 2, 5, 6, 9]
    values = np.arange(6) + 1.0
    assert np.allclose(segment_sum(values[idx], seg), [0.0, 3.0, 0.0, 12.0, 6.0, 12.0])


def test_gather_rows_all_empty_and_no_rows():
    indptr = np.zeros(5, dtype=np.int64)
    assert_gather_matches(indptr, np.array([0, 3, 1], dtype=np.int64))
    assert_gather_matches(indptr, np.zeros(0, dtype=np.int64))
    assert_gather_matches(np.array([0, 2, 3], dtype=np.int64), np.zeros(0, dtype=np.int64))


def test_gather_rows_random_against_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n_rows = int(rng.integers(1, 15))
        indptr = np.concatenate([[0], np.cumsum(rng.integers(0, 5, size=n_rows))]).astype(np.int64)
        rows = rng.integers(0, n_rows, size=int(rng.integers(0, 20))).astype(np.int64)
        assert_gather_matches(indptr, rows)


def test_sorted_unique_matches_np_unique():
    rng = np.random.default_rng(7)
    cases = [np.zeros(0, dtype=np.int64), np.array([4]), np.full(9, 3)]
    cases += [rng.integers(0, int(rng.integers(1, 50)), size=int(rng.integers(0, 200))) for _ in range(100)]
    for a in cases:
        got = sorted_unique(a)
        assert np.array_equal(got, np.unique(a)) and got.dtype == a.dtype
