"""Smooth rank indicator: forward values, stability, limits, structure."""

import numpy as np
import pytest

from smoothrank import (
    SmoothIParams,
    certificate,
    hard_indicator_matrix,
    make_loss_spec,
    rank_permutation,
    smooth_indicators,
    stable_softmax,
)
from oracles import naive_smooth_rows, rectangular_smooth_indicators


class TestParams:
    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError, match="alpha"):
            SmoothIParams(alpha=0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(ValueError, match=f"^alpha must be positive and finite, got {alpha}$"):
            SmoothIParams(alpha=alpha)
        with pytest.raises(ValueError, match=f"^alpha must be positive and finite, got {alpha}$"):
            make_loss_spec("ndcg@k", alpha=alpha)

    @pytest.mark.parametrize("delta", [0.0, 0.5, -0.1, 0.7])
    def test_delta_open_interval(self, delta):
        with pytest.raises(ValueError, match="delta"):
            SmoothIParams(alpha=1.0, delta=delta)
        # the bound checks refuse a bad delta with the same message
        message = rf"^delta must lie in \(0, 0.5\), got {delta}$"
        with pytest.raises(ValueError, match=message):
            SmoothIParams(alpha=1.0, delta=delta)
        with pytest.raises(ValueError, match=message):
            certificate([2.0, 1.0], 2, delta)



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

    def test_real_input_runs_in_float64(self):
        """Integer, float32 and extended-precision scores run the recursion in
        float64, with the rows of float64 input."""
        scores = np.array([3.0, 1.0, 2.0, 4.0])
        params = SmoothIParams(alpha=4.0, delta=0.1)
        want = smooth_indicators(scores, params)
        for dtype in (np.int64, np.float32, np.longdouble):
            got = smooth_indicators(scores.astype(dtype), params)
            assert got.rows.dtype == got.prefix_products.dtype == np.float64
            np.testing.assert_array_equal(got.rows, want.rows)

    def test_complex_step_gives_the_rows_derivative(self):
        """Complex scores run in complex128, validated and max-shifted on their
        real part: an imaginary step h along score j leaves the real part at
        the real rows and carries h times their derivative wrt score j."""
        rng = np.random.default_rng(5)
        scores = rng.uniform(0.5, 2.0, 6)
        params = SmoothIParams(alpha=4.0, delta=0.1)
        real = smooth_indicators(scores, params)
        step, h = np.zeros(6), 1e-6
        step[2] = h
        stepped = smooth_indicators(scores + 1j * step, params)
        assert stepped.rows.dtype == stepped.prefix_products.dtype == np.complex128
        np.testing.assert_allclose(stepped.rows.real, real.rows, rtol=0.0, atol=1e-11)
        central = (smooth_indicators(scores + step, params).rows
                   - smooth_indicators(scores - step, params).rows) / (2.0 * h)
        np.testing.assert_allclose(stepped.rows.imag / h, central, rtol=0.0, atol=1e-7)
        with pytest.raises(ValueError, match="positive"):
            smooth_indicators(np.array([1.0, -0.5 + 2j]), params)

    def test_requires_positive_scores(self):
        with pytest.raises(ValueError, match="positive"):
            smooth_indicators([1.0, 0.0], SmoothIParams(alpha=1.0))
        with pytest.raises(ValueError, match="positive"):
            smooth_indicators([1.0, -2.0], SmoothIParams(alpha=1.0))

    def test_k_larger_than_list_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            smooth_indicators([2.0, 1.0], SmoothIParams(alpha=1.0), k=3)


def padded_batch(rng, lists, width):
    """Scores of ``lists`` lists of 1-``width`` documents padded to ``width``,
    junk in the padding, the longest list at a random position."""
    lengths = rng.integers(1, width + 1, size=lists)
    lengths[rng.integers(lists)] = width
    mask = np.arange(width) < lengths[:, None]
    scores = np.where(mask, rng.uniform(0.3, 3.0, (lists, width)), np.nan)
    return scores, mask, lengths


class TestStaircase:
    """Per-list cutoffs: each list's rows are the rectangular recursion's
    bit for bit, and 0 past its cutoff."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_each_list_equals_the_rectangular_recursion(self, dtype):
        rng = np.random.default_rng(21)
        for width in (1, 2, 7, 16, 33, 120):
            scores, mask, lengths = padded_batch(rng, 9, width)
            if dtype is np.complex128:
                scores = scores + 1j * rng.uniform(-1e-3, 1e-3, scores.shape)
            params = SmoothIParams(alpha=float(np.exp(rng.uniform(-1.0, 4.0))), delta=0.1)
            # shuffled per-list cutoffs, some past a list's own length
            k = rng.integers(1, width + 1, size=9)
            k[rng.integers(9)] = width
            oracle = rectangular_smooth_indicators(scores, params, mask, k=width)
            order = np.argsort(-k, kind="stable")
            stair = smooth_indicators(scores[order], params, mask[order], k=k[order])
            assert stair.rows.shape == (9, width, width) and stair.rows.dtype == dtype
            for pos, b in enumerate(order):
                np.testing.assert_array_equal(stair.rows[pos, :k[b]], oracle.rows[b, :k[b]])
                np.testing.assert_array_equal(stair.prefix_products[pos, :k[b]], oracle.prefix_products[b, :k[b]])
                assert not stair.rows[pos, k[b]:].any()
                assert not stair.prefix_products[pos, k[b]:].any()

    def test_one_cutoff_equals_the_rectangular_recursion(self):
        rng = np.random.default_rng(22)
        for width, k in ((1, 1), (5, 3), (40, 40), (64, 10)):
            scores, mask, _ = padded_batch(rng, 6, width)
            params = SmoothIParams(alpha=3.0, delta=0.2)
            for cutoff in (k, np.full(6, k)):
                got = smooth_indicators(scores, params, mask, k=cutoff)
                want = rectangular_smooth_indicators(scores, params, mask, k=k)
                np.testing.assert_array_equal(got.rows, want.rows)
                np.testing.assert_array_equal(got.prefix_products, want.prefix_products)

    @pytest.mark.parametrize("mask", [None, np.ones((0, 3), dtype=bool)], ids=["no-mask", "mask"])
    def test_no_lists_give_no_rows(self, mask):
        params = SmoothIParams(alpha=1.0)
        mat = smooth_indicators(np.ones((0, 3)), params, mask, k=np.zeros(0, dtype=int))
        assert mat.rows.shape == mat.prefix_products.shape == (0, 0, 3)
        assert smooth_indicators(np.ones((0, 3)), params, mask, k=2).rows.shape == (0, 2, 3)

    @pytest.mark.parametrize("k", [[3, 0], [4, 3], [2, -1], [3, 2, 1], [1, 2], [2.0, 1.0], [[2, 1]]])
    def test_bad_cutoffs_rejected(self, k):
        with pytest.raises(ValueError):
            smooth_indicators(np.ones((2, 3)) + np.arange(3), SmoothIParams(alpha=1.0), k=np.array(k))


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
