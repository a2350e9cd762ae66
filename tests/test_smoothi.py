"""Smooth rank indicator: forward values, stability, limits, structure."""

import numpy as np
import pytest

from smoothrank import (
    SmoothIParams,
    certificate,
    hard_indicator_matrix,
    rank_permutation,
    smooth_indicators,
    stable_softmax,
)
from oracles import naive_smooth_rows


class TestParams:
    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError, match="alpha"):
            SmoothIParams(alpha=0.0)

    @pytest.mark.parametrize("delta", [0.0, 0.5, -0.1, 0.7])
    def test_delta_open_interval(self, delta):
        with pytest.raises(ValueError, match="delta"):
            SmoothIParams(alpha=1.0, delta=delta)



class TestStableSoftmax:
    def test_symmetry(self):
        np.testing.assert_array_equal(stable_softmax([0.0, 0.0]), [0.5, 0.5])

    def test_no_overflow_on_huge_logits(self):
        out = stable_softmax([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    def test_reference_values(self):
        np.testing.assert_allclose(
            stable_softmax([1.0, 2.0, 3.0]),
            [0.09003057317038046, 0.24472847105479767, 0.6652409557748219],
            atol=1e-15,
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stable_softmax([])

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            out = stable_softmax(rng.normal(0, 50, size=int(rng.integers(1, 20))))
            assert abs(out.sum() - 1.0) <= 1e-12


class TestForward:
    def test_worked_two_doc_example(self):
        mat = smooth_indicators([2.0, 1.0], SmoothIParams(alpha=1.0, delta=0.1))
        np.testing.assert_allclose(
            mat.rows[0], [0.7310585786300049, 0.2689414213699951], atol=1e-12
        )
        np.testing.assert_allclose(
            mat.rows[1], [0.4272265727168431, 0.5727734272831569], atol=1e-12
        )
        # damped second-rank logits: score * (1 - first_row - delta)
        np.testing.assert_allclose(
            mat.prefix_products[1] * np.array([2.0, 1.0]),
            [0.3378828427399902, 0.6310585786300049],
            atol=1e-12,
        )

    def test_dominant_score_saturates(self):
        mat = smooth_indicators([10.0, 1.0], SmoothIParams(alpha=100.0, delta=0.1), k=1)
        assert mat.rows[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert mat.rows[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_top_row_is_exactly_the_softmax(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(0.5, 3.0, 7)
        mat = smooth_indicators(scores, SmoothIParams(alpha=2.5, delta=0.1), k=1)
        np.testing.assert_array_equal(mat.rows[0], stable_softmax(2.5 * scores))

    def test_matches_naive_recursion(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            scores = rng.uniform(0.2, 3.0, n)
            alpha = float(rng.uniform(0.2, 5.0))
            delta = float(rng.uniform(0.05, 0.45))
            k = int(rng.integers(1, n + 1))
            mat = smooth_indicators(scores, SmoothIParams(alpha=alpha, delta=delta), k=k)
            np.testing.assert_allclose(
                mat.rows, naive_smooth_rows(scores, alpha, delta, k), atol=1e-12
            )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            scores = rng.uniform(0.1, 5.0, n)
            alpha = float(np.exp(rng.uniform(np.log(0.1), np.log(100.0))))
            mat = smooth_indicators(scores, SmoothIParams(alpha=alpha, delta=0.1))
            np.testing.assert_allclose(mat.rows.sum(axis=1), 1.0, atol=1e-12)

    def test_extended_precision_input_keeps_its_dtype(self):
        """Longdouble scores run the recursion in longdouble; integer scores
        are converted to float64 like lists of floats."""
        rng = np.random.default_rng(5)
        scores = rng.uniform(0.5, 2.0, (3, 7))
        params = SmoothIParams(alpha=4.0, delta=0.1)
        wide = smooth_indicators(scores.astype(np.longdouble), params)
        assert wide.rows.dtype == wide.prefix_products.dtype == np.longdouble
        np.testing.assert_allclose(
            wide.rows.astype(np.float64), smooth_indicators(scores, params).rows, atol=1e-14
        )
        assert smooth_indicators(np.array([3, 1, 2]), params).rows.dtype == np.float64

    def test_requires_positive_scores(self):
        with pytest.raises(ValueError, match="positive"):
            smooth_indicators([1.0, 0.0], SmoothIParams(alpha=1.0))
        with pytest.raises(ValueError, match="positive"):
            smooth_indicators([1.0, -2.0], SmoothIParams(alpha=1.0))

    def test_k_larger_than_list_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            smooth_indicators([2.0, 1.0], SmoothIParams(alpha=1.0), k=3)


def spaced_scores(rng, n, min_gap=0.15):
    """Strictly positive scores whose sorted neighbors differ by >= min_gap."""
    gaps = rng.uniform(min_gap, 1.0, size=n - 1)
    scores = rng.uniform(0.5, 1.5) + np.concatenate([[0.0], np.cumsum(gaps)])
    rng.shuffle(scores)
    return scores


def ratio_scores(rng, n, min_ratio=1.4, max_ratio=2.5):
    """Scores whose sorted neighbors differ by a ratio of at least min_ratio,
    keeping the damped products ordered already at moderate sharpness."""
    ratios = rng.uniform(min_ratio, max_ratio, n - 1)
    scores = rng.uniform(0.8, 1.5) * np.concatenate([[1.0], np.cumprod(ratios)])
    rng.shuffle(scores)
    return scores


class TestLimitBehavior:
    """Sharpening alpha drives every row to the hard indicator."""

    def test_error_monotone_and_vanishing(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(3, 7))
            scores = ratio_scores(rng, n)
            k = int(rng.integers(2, min(3, n) + 1))
            hard = hard_indicator_matrix(scores, k)
            errs = []
            for alpha in (1.0, 10.0, 100.0, 1000.0):
                mat = smooth_indicators(scores, SmoothIParams(alpha=alpha, delta=0.1), k=k)
                errs.append(np.abs(mat.rows - hard).max())
            assert all(e1 >= e2 for e1, e2 in zip(errs, errs[1:]))
            assert errs[-1] < 1e-6

    def test_scale_alpha_equivalence(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            scores = rng.uniform(0.3, 2.0, n)
            c = float(rng.uniform(0.2, 5.0))
            alpha = float(rng.uniform(0.5, 4.0))
            a = smooth_indicators(c * scores, SmoothIParams(alpha=alpha, delta=0.1))
            b = smooth_indicators(scores, SmoothIParams(alpha=c * alpha, delta=0.1))
            np.testing.assert_allclose(a.rows, b.rows, atol=1e-12)

    def test_alpha_folded_into_scores_keeps_every_bit(self):
        """A batch with each list's alpha folded into its scores, run at
        alpha = 1, equals one call per list at its own alpha bit for bit."""
        rng = np.random.default_rng(8)
        for n in (2, 3, 7, 8, 9, 17, 120):
            k = min(n, 10)
            scores = rng.uniform(0.3, 2.0, (9, n))
            alphas = np.exp(rng.uniform(-2.0, 8.0, 9))
            batch = smooth_indicators(alphas[:, None] * scores, SmoothIParams(alpha=1.0, delta=0.1), k=k)
            for b in range(9):
                one = smooth_indicators(scores[b], SmoothIParams(alpha=float(alphas[b]), delta=0.1), k=k)
                assert batch.rows[b].tobytes() == one.rows.tobytes()
                assert batch.prefix_products[b].tobytes() == one.prefix_products.tobytes()

    def test_unimodal_structure_above_threshold(self):
        """Above the certificate threshold, row argmaxes walk the descending
        score order without repeats."""
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            scores = spaced_scores(rng, n)
            k = int(rng.integers(2, min(5, n) + 1))
            cert = certificate(scores, k, 0.1)
            alpha = 1.1 * cert.alpha_threshold
            mat = smooth_indicators(scores, SmoothIParams(alpha=alpha, delta=0.1), k=k)
            argmaxes = mat.rows.argmax(axis=1)
            assert len(set(argmaxes.tolist())) == k
            np.testing.assert_array_equal(argmaxes, rank_permutation(scores)[:k])
