"""Exact ranking primitives against brute-force sort-then-formula oracles."""

import numpy as np
import pytest

from smoothrank import (
    UndefinedMetricError,
    average_precision,
    hard_indicator,
    hard_indicator_matrix,
    ndcg_at_k,
    precision_at_k,
    rank_permutation,
)
from smoothrank.rank_core import exact_metrics
from oracles import brute_average_precision, brute_ndcg_at_k, brute_precision_at_k


class TestRankPermutation:
    def test_descending(self):
        assert rank_permutation([3, 1, 2]).tolist() == [0, 2, 1]

    def test_single_element(self):
        assert rank_permutation([5]).tolist() == [0]

    def test_stable_tie_break(self):
        assert rank_permutation([2, 2, 1]).tolist() == [0, 1, 2]

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            rank_permutation([1.0, float("nan")])

    def test_bijection_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            perm = rank_permutation(rng.normal(size=n))
            assert sorted(perm.tolist()) == list(range(n))


class TestHardIndicator:
    @pytest.mark.parametrize(
        "r,expected",
        [(1, [1, 0, 0]), (2, [0, 0, 1]), (3, [0, 1, 0])],
    )
    def test_examples(self, r, expected):
        assert hard_indicator([3, 1, 2], r).tolist() == expected

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            hard_indicator([3, 1, 2], 4)
        with pytest.raises(ValueError, match="out of range"):
            hard_indicator([3, 1, 2], 0)

    def test_stack_is_permutation_matrix(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            mat = hard_indicator_matrix(rng.normal(size=n), n)
            np.testing.assert_array_equal(mat.sum(axis=0), np.ones(n))
            np.testing.assert_array_equal(mat.sum(axis=1), np.ones(n))


class TestPrecisionAtK:
    def test_one_relevant_in_top_two(self):
        assert precision_at_k([1, 0, 1], [3, 2, 1], 2) == 0.5

    def test_no_relevant(self):
        assert precision_at_k([0, 0], [2, 1], 2) == 0.0

    def test_reversed_scores(self):
        assert precision_at_k([1, 1, 0], [1, 2, 3], 3) == pytest.approx(2 / 3)

    def test_rejects_graded(self):
        with pytest.raises(ValueError, match="binary"):
            precision_at_k([2, 0], [2, 1], 1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            precision_at_k([1, 0], [2, 1], 3)


class TestAveragePrecision:
    def test_relevant_first(self):
        assert average_precision([1, 0], [2, 1]) == 1.0

    def test_relevant_second(self):
        assert average_precision([0, 1], [2, 1]) == 0.5

    def test_two_of_three(self):
        assert average_precision([1, 0, 1], [3, 2, 1]) == pytest.approx(5 / 6)

    def test_all_zero_rejected(self):
        with pytest.raises(UndefinedMetricError):
            average_precision([0, 0], [2, 1])

    def test_perfect_ranking_is_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            rel = np.zeros(n)
            rel[: int(rng.integers(1, n))] = 1.0
            scores = np.sort(rng.random(n))[::-1]  # descending, rel docs first
            assert average_precision(rel, scores) == 1.0


class TestNdcgAtK:
    def test_ideal_ordering(self):
        assert ndcg_at_k([1, 0], [2, 1], 2) == 1.0

    def test_relevant_second(self):
        assert ndcg_at_k([0, 1], [2, 1], 2) == pytest.approx(0.6309297535714575)

    def test_graded_wrong_order(self):
        assert ndcg_at_k([2, 1], [1, 2], 1) == pytest.approx(1 / 3)

    def test_all_zero_rejected(self):
        with pytest.raises(UndefinedMetricError):
            ndcg_at_k([0, 0], [2, 1], 2)

    def test_ideal_is_one_for_graded(self):
        rel = [3, 2, 2, 1, 0]
        scores = [9, 7, 6, 4, 1]
        for k in range(1, 6):
            assert ndcg_at_k(rel, scores, k) == pytest.approx(1.0)


class TestScoreInvariance:
    """Adding a constant or scaling by a positive factor never moves a metric."""

    def test_shift_and_scale(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            scores = rng.normal(size=n)
            rel = (rng.random(n) < 0.5).astype(float)
            if rel.sum() == 0:
                rel[0] = 1.0
            k = int(rng.integers(1, n + 1))
            shifted = scores + rng.normal() * 10
            scaled = scores * rng.uniform(0.1, 10)
            for other in (shifted, scaled):
                assert precision_at_k(rel, scores, k) == precision_at_k(rel, other, k)
                assert average_precision(rel, scores) == average_precision(rel, other)
                assert ndcg_at_k(rel, scores, k) == ndcg_at_k(rel, other, k)


class TestBruteForceEquivalence:
    """Vectorized metrics agree exactly with the literal sort-then-formula."""

    def test_random_small_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            scores = rng.normal(size=n)
            rel = (rng.random(n) < 0.5).astype(float)
            graded = np.round(rng.random(n) * 3)
            for k in range(1, n + 1):
                assert precision_at_k(rel, scores, k) == brute_precision_at_k(rel, scores, k)
                if graded.sum() > 0:
                    assert ndcg_at_k(graded, scores, k) == brute_ndcg_at_k(
                        graded.tolist(), scores, k
                    )
            if rel.sum() > 0:
                assert average_precision(rel, scores) == brute_average_precision(rel, scores)


def test_padded_batch_metrics_against_the_one_list_metrics():
    """``exact_metrics`` of padded batches with tied scores: P@c and AP equal
    the one-list metrics bit for bit, and NDCG@c, whose DCG numpy sums where
    ``ndcg_at_k`` takes a ``math.fsum``, lies within 4 ulps of it."""
    rng = np.random.default_rng(8)
    cutoffs = (1, 3, 10)
    for _ in range(10):
        lengths = rng.integers(2, 30, size=100)
        mask = np.arange(lengths.max()) < lengths[:, None]
        rel = np.where(mask, rng.integers(0, 5, size=mask.shape), 0).astype(float)
        rel[:, 0] = np.maximum(rel[:, 0], 1.0)  # a zero-relevance list has no full NDCG
        scores = np.where(mask, np.round(rng.normal(size=mask.shape), 1), -np.inf)
        got = exact_metrics(rel, scores, lengths, cutoffs)
        for b, n in enumerate(lengths.tolist()):
            grades, ranked = rel[b, :n], scores[b, :n]
            binary = (grades >= 1.0).astype(float)
            for c in cutoffs:
                if c <= n:
                    assert got[f"p@{c}"][b] == precision_at_k(binary, ranked, c)
                want = ndcg_at_k(grades, ranked, min(c, n))
                assert abs(got[f"ndcg@{c}"][b] - want) <= 4 * np.spacing(want)
            assert got["map"][b] == average_precision(binary, ranked)


def test_all_zero_list_scores_zero_on_every_metric():
    """A list whose grades are all 0 has full NDCG 0, like its NDCG@c and AP,
    with no RuntimeWarning (which the test configuration makes an error),
    and leaves its neighbour's metrics as they are alone."""
    rel = np.array([[0.0, 0.0, 0.0], [2.0, 1.0, 0.0]])
    scores = np.array([[0.3, 0.1, 0.2], [0.1, 0.5, -np.inf]])
    lengths = np.array([3, 2])
    got = exact_metrics(rel, scores, lengths, (1, 2))
    for name in ("p@1", "p@2", "ndcg@1", "ndcg@2", "ndcg", "map"):
        assert got[name][0] == 0.0, name
    alone = exact_metrics(rel[1:], scores[1:], lengths[1:], (1, 2))
    assert all(got[name][1] == alone[name][0] for name in got)
    assert got["ndcg"][1] == pytest.approx(ndcg_at_k(rel[1, :2], scores[1, :2], 2), rel=1e-15)
