"""Smooth metrics and losses: frozen values, limits, structure, edge cases."""

import warnings

import numpy as np
import pytest

from smoothrank import (
    LossSpec,
    SmoothIParams,
    UndefinedMetricError,
    certificate,
    epsilon_alpha,
    make_loss_spec,
    ndcg_at_k,
    precision_at_k,
    shift_scores,
    smooth_ap,
    smooth_metric,
    smooth_ndcg_at_k,
    smooth_precision_at_k,
    training_loss,
)
from smoothrank import smooth_metrics
from oracles import naive_smooth_metric


class TestShiftScores:
    def test_example(self):
        np.testing.assert_array_equal(shift_scores([-3.0, 0.0, 2.0]), [1.0, 4.0, 6.0])

    def test_single(self):
        np.testing.assert_array_equal(shift_scores([5.0]), [1.0])

    def test_ties_warn(self):
        with pytest.warns(UserWarning, match="ties"):
            out = shift_scores([0.5, 0.5])
        np.testing.assert_array_equal(out, [1.0, 1.0])

    def test_preserves_order_and_margin(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            raw = rng.normal(0, 5, size=int(rng.integers(1, 10)))
            out = shift_scores(raw, margin=2.0)
            assert out.min() == pytest.approx(2.0)
            np.testing.assert_array_equal(np.argsort(out), np.argsort(raw))

    def test_margin_positive(self):
        with pytest.raises(ValueError, match="margin"):
            shift_scores([1.0], margin=0.0)

    @pytest.mark.parametrize("margin", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_margin_rejected(self, margin):
        with pytest.raises(ValueError, match=f"^margin must be positive and finite, got {margin}$"):
            shift_scores([1.0, 2.0], margin=margin)


def two_doc_spec(kind, k=None, alpha=1.0):
    return make_loss_spec(kind, k=k, alpha=alpha, delta=0.1)


class TestWorkedValues:
    """Frozen fixtures computed by literal evaluation of the formulas."""

    def test_smooth_precision_at_one(self):
        spec = two_doc_spec("p@k", k=1)
        assert smooth_precision_at_k([1, 0], [2, 1], spec) == pytest.approx(
            0.7310585786300049, abs=1e-12
        )

    def test_zero_relevance_is_zero(self):
        spec = two_doc_spec("p@k", k=2)
        assert smooth_precision_at_k([0, 0, 0], [3, 2, 1], spec) == 0.0

    def test_sharp_limit_matches_exact_precision(self):
        spec = two_doc_spec("p@k", k=1, alpha=100.0)
        assert smooth_precision_at_k([1, 0], [10, 1], spec) == pytest.approx(1.0, abs=1e-9)

    def test_smooth_ap_worked_example(self):
        assert smooth_ap([1, 0], [2, 1], SmoothIParams(alpha=1.0, delta=0.1)) == pytest.approx(
            0.781871743107885, abs=1e-12
        )

    def test_single_doc_ap_is_one(self):
        assert smooth_ap([1], [7.0], SmoothIParams(alpha=1.0, delta=0.1)) == 1.0

    def test_sharp_limit_matches_exact_ap(self):
        assert smooth_ap([1, 0], [10, 1], SmoothIParams(alpha=100.0, delta=0.1)) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_smooth_ndcg_worked_example(self):
        spec = two_doc_spec("ndcg@k", k=1)
        assert smooth_ndcg_at_k([1, 0], [2, 1], spec) == pytest.approx(
            0.6598565659840805, abs=1e-12
        )

    def test_sharp_limit_matches_exact_ndcg(self):
        spec = two_doc_spec("ndcg@k", k=2, alpha=100.0)
        assert smooth_ndcg_at_k([1, 0], [10, 1], spec) == pytest.approx(1.0, abs=1e-6)

    def test_uniform_relevance_is_exactly_ideal(self):
        for alpha in (0.5, 1.0, 7.0):
            spec = two_doc_spec("ndcg@k", k=2, alpha=alpha)
            assert smooth_ndcg_at_k([1, 1], [2, 1], spec) == pytest.approx(1.0, abs=1e-12)


class TestTrainingLoss:
    def test_worked_value(self):
        spec = two_doc_spec("p@k", k=1)
        assert training_loss([1, 0], [2, 1], spec) == pytest.approx(
            0.2689414213699951, abs=1e-12
        )

    def test_sharp_ideal_ordering_is_near_zero(self):
        spec = two_doc_spec("ndcg@k", k=2, alpha=100.0)
        assert training_loss([1, 0], [10, 1], spec) == pytest.approx(0.0, abs=1e-6)

    def test_uniform_relevance_ndcg_loss_is_zero(self):
        spec = two_doc_spec("ndcg@k")
        assert training_loss([1, 1, 1], [3, 1, 2], spec) == pytest.approx(0.0, abs=1e-12)

    def test_shift_is_applied(self):
        # negative raw scores are fine: the loss shifts them internally
        spec = two_doc_spec("p@k", k=1)
        assert training_loss([1, 0], [-1, -2], spec) == pytest.approx(
            training_loss([1, 0], [9, 8], spec), abs=1e-12
        )


class TestAgainstNaiveOracle:
    def test_all_kinds_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(150):
            n = int(rng.integers(2, 9))
            scores = rng.uniform(0.2, 3.0, n)
            rel = (rng.random(n) < 0.5).astype(float)
            if rel.sum() == 0:
                rel[int(rng.integers(n))] = 1.0
            graded = np.round(rng.random(n) * 2)
            if graded.sum() == 0:
                graded[int(rng.integers(n))] = 2.0
            k = int(rng.integers(1, n + 1))
            alpha = float(rng.uniform(0.2, 6.0))
            delta = float(rng.uniform(0.05, 0.45))
            params = SmoothIParams(alpha=alpha, delta=delta)
            assert smooth_metric(
                rel, scores, LossSpec(kind="p@k", params=params, k=k)
            ) == pytest.approx(naive_smooth_metric(rel, scores, "p@k", k, alpha, delta), abs=1e-12)
            assert smooth_metric(
                rel, scores, LossSpec(kind="ap", params=params)
            ) == pytest.approx(naive_smooth_metric(rel, scores, "ap", n, alpha, delta), abs=1e-12)
            assert smooth_metric(
                graded, scores, LossSpec(kind="ndcg@k", params=params, k=k)
            ) == pytest.approx(
                naive_smooth_metric(graded, scores, "ndcg@k", k, alpha, delta), abs=1e-12
            )


class TestRangeAndStructure:
    def test_precision_always_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            scores = rng.uniform(0.05, 4.0, n)
            rel = (rng.random(n) < 0.5).astype(float)
            k = int(rng.integers(1, n + 1))
            alpha = float(np.exp(rng.uniform(np.log(0.05), np.log(80.0))))
            delta = float(rng.uniform(0.01, 0.49))
            v = smooth_precision_at_k(rel, scores, make_loss_spec("p@k", k=k, alpha=alpha, delta=delta))
            assert 0.0 <= v <= 1.0

    def test_weighted_row_sums_are_convex_combinations(self):
        from smoothrank import smooth_indicators

        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            scores = rng.uniform(0.05, 4.0, n)
            graded = np.round(rng.random(n) * 3)
            mat = smooth_indicators(scores, SmoothIParams(alpha=float(rng.uniform(0.1, 30)), delta=0.1))
            u = mat.rows @ graded
            assert np.all(u >= 0.0 - 1e-12)
            assert np.all(u <= graded.max() + 1e-12)

    def test_ap_and_ndcg_bounded_in_certified_regime(self):
        """Above the certificate threshold the smooth metric sits within the
        proven distance of the exact one, hence at most 1 + bound."""
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            gaps = rng.uniform(0.1, 1.0, n - 1)
            scores = rng.uniform(0.5, 1.5) + np.concatenate([[0.0], np.cumsum(gaps)])
            rng.shuffle(scores)
            rel = (rng.random(n) < 0.5).astype(float)
            if rel.sum() == 0:
                rel[int(rng.integers(n))] = 1.0
            cert = certificate(scores, n, 0.1)
            alpha = 1.05 * cert.alpha_threshold
            eps = epsilon_alpha(cert, alpha)
            params = SmoothIParams(alpha=alpha, delta=0.1)
            ap = smooth_ap(rel, scores, params)
            assert 0.0 <= ap <= 1.0 + 2 * n * (eps + eps**2)
            ndcg = smooth_metric(rel, scores, LossSpec(kind="ndcg@k", params=params))
            assert 0.0 <= ndcg <= 1.0 + n * eps

    def test_ap_can_overshoot_one_when_alpha_too_small(self):
        """Known behavior below the certified regime: split indicator mass can
        re-select a document at several ranks and push AP above 1."""
        scores = np.array([1.79578132, 0.34626766, 0.23081711, 1.61754672, 1.77246461, 1.62126991])
        rel = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        value = smooth_ap(rel, scores, SmoothIParams(alpha=34.7, delta=0.0995))
        assert value > 1.0

    def test_permuting_documents_leaves_metrics_unchanged(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            scores = rng.uniform(0.2, 3.0, n)
            rel = (rng.random(n) < 0.5).astype(float)
            if rel.sum() == 0:
                rel[0] = 1.0
            perm = rng.permutation(n)
            for spec in (
                make_loss_spec("p@k", k=1, alpha=2.0),
                make_loss_spec("ap", alpha=2.0),
                make_loss_spec("ndcg@k", alpha=2.0),
            ):
                assert smooth_metric(rel, scores, spec) == pytest.approx(
                    smooth_metric(rel[perm], scores[perm], spec), abs=1e-12
                )

    def test_shift_leaves_exact_metrics_unchanged(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            raw = rng.normal(size=n)
            rel = (rng.random(n) < 0.5).astype(float)
            if rel.sum() == 0:
                rel[0] = 1.0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                shifted = shift_scores(raw)
            k = int(rng.integers(1, n + 1))
            assert precision_at_k(rel, raw, k) == precision_at_k(rel, shifted, k)
            assert ndcg_at_k(rel, raw, k) == ndcg_at_k(rel, shifted, k)


class TestLossSpec:
    def test_bad_grad_mode(self):
        with pytest.raises(ValueError, match="grad_mode"):
            LossSpec(kind="p@k", params=SmoothIParams(alpha=1.0), grad_mode="both")

    def test_ap_takes_no_cutoff(self):
        """AP walks every rank, so a cutoff would be read by nothing."""
        with pytest.raises(ValueError, match="no cutoff k, got k=5"):
            LossSpec(kind="ap", params=SmoothIParams(alpha=1.0), k=5)
        with pytest.raises(ValueError, match="no cutoff"):
            make_loss_spec("ap", k=10)
        assert make_loss_spec("ap").k is None

    @pytest.mark.parametrize("margin", [0.0, float("nan"), float("inf"), float("-inf")])
    def test_shift_margin_outside_positive_reals_rejected(self, margin):
        """The margin is named, where the loss would otherwise fail later on
        scores it shifted to NaN or infinity."""
        message = f"^shift_margin must be positive and finite, got {margin}$"
        with pytest.raises(ValueError, match=message):
            LossSpec(kind="p@k", params=SmoothIParams(alpha=1.0), shift_margin=margin)
        with pytest.raises(ValueError, match=message):
            make_loss_spec("ndcg@k", k=2, alpha=1.0, shift_margin=margin)


class TestEdgeCases:
    def test_undefined_ap(self):
        with pytest.raises(UndefinedMetricError):
            smooth_ap([0, 0], [2, 1], SmoothIParams(alpha=1.0))

    def test_undefined_ndcg(self):
        with pytest.raises(UndefinedMetricError):
            smooth_ndcg_at_k([0, 0], [2, 1], two_doc_spec("ndcg@k", k=2))

    def test_cutoff_beyond_list_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            smooth_precision_at_k([1, 0], [2, 1], two_doc_spec("p@k", k=3))

    def test_kind_checked_by_wrappers(self):
        with pytest.raises(ValueError, match="kind"):
            smooth_precision_at_k([1, 0], [2, 1], two_doc_spec("ndcg@k", k=1))

    def test_nonbinary_relevance_rejected_for_precision_and_ap(self):
        with pytest.raises(ValueError, match="binary"):
            smooth_precision_at_k([2, 0], [2, 1], two_doc_spec("p@k", k=1))
        with pytest.raises(ValueError, match="binary"):
            smooth_ap([2, 0], [2, 1], SmoothIParams(alpha=1.0))

    def test_ap_list_cap_truncates_to_top_documents(self, monkeypatch):
        monkeypatch.setattr(smooth_metrics, "AP_LIST_CAP", 4)
        rng = np.random.default_rng(7)
        scores = rng.uniform(0.5, 3.0, 8)
        rel = np.array([1, 0, 1, 0, 1, 0, 0, 1], dtype=float)
        params = SmoothIParams(alpha=2.0, delta=0.1)
        capped = smooth_ap(rel, scores, params)
        keep = np.argsort(-scores, kind="stable")[:4]
        # same computation on the kept sublist, normalizer from the full list
        from smoothrank import smooth_indicators

        rows = smooth_indicators(scores[keep], SmoothIParams(alpha=2.0, delta=0.1), k=4).rows
        u = rows @ rel[keep]
        prec = np.cumsum(u) / np.arange(1.0, 5.0)
        assert capped == pytest.approx(float((u * prec).sum() / rel.sum()), abs=1e-15)
