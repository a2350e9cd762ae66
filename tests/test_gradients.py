"""Analytic gradients against mode-consistent finite differences."""

import warnings

import numpy as np
import pytest

from smoothrank import (
    LossSpec,
    SmoothIParams,
    UndefinedMetricError,
    finite_difference_check,
    finite_difference_checks,
    loss_and_gradient,
    make_loss_spec,
    metric_gradient,
    stable_softmax,
)
from smoothrank import gradients, shift_scores, smooth_indicators, smooth_metrics
from oracles import finite_difference_loop, random_ranking_instance
from test_gradients_dual import dual_gradient


def exact_loss_gradient(rel, raw, spec):
    """The exact forward-mode gradient of the training loss wrt the raw
    scores, the shift's subtracted minimum held constant."""
    scores = shift_scores(raw, spec.shift_margin)
    k = scores.size if spec.k is None else spec.k
    return -dual_gradient(np.asarray(rel, dtype=float).tolist(), scores.tolist(), spec.kind, k,
                          spec.params.alpha, spec.params.delta, spec.grad_mode)


class TestClosedFormCases:
    def test_p_at_1_is_the_softmax_jacobian(self):
        """Row 1 has no prefix products, so dP@1/ds is the plain softmax
        Jacobian contracted with the relevance vector."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            scores = rng.uniform(0.5, 3.0, n)
            rel = (rng.random(n) < 0.5).astype(float)
            alpha = float(rng.uniform(0.3, 5.0))
            spec = make_loss_spec("p@k", k=1, alpha=alpha)
            p = stable_softmax(alpha * scores)
            expected = alpha * p * (rel - rel @ p)
            got = metric_gradient(rel, scores, spec)
            np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_zero_relevance_gives_zero_gradient(self):
        spec = make_loss_spec("p@k", k=2, alpha=3.0)
        np.testing.assert_array_equal(
            loss_and_gradient([0, 0, 0], [3.0, 1.0, 2.0], spec)[1], np.zeros(3)
        )

    def test_single_document_p_at_1_gradient_is_zero(self):
        spec = make_loss_spec("p@k", k=1, alpha=2.0)
        np.testing.assert_array_equal(loss_and_gradient([1.0], [4.0], spec)[1], np.zeros(1))

    def test_symmetric_instance_has_equal_components(self):
        spec = make_loss_spec("ndcg@k", k=2, alpha=2.0)
        grad = metric_gradient([1.0, 1.0], [2.0, 2.0], spec)
        assert grad[0] == grad[1]

    def test_modes_identical_for_cutoff_one(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(0.5, 2.0, 6)
        rel = np.array([1, 0, 0, 1, 0, 0], dtype=float)
        stop = metric_gradient(rel, scores, make_loss_spec("p@k", k=1, alpha=2.0))
        full = metric_gradient(
            rel, scores, make_loss_spec("p@k", k=1, alpha=2.0, grad_mode="full")
        )
        np.testing.assert_array_equal(stop, full)

    def test_modes_differ_beyond_rank_one(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(0.5, 2.0, 5)
        rel = np.array([1, 0, 1, 0, 0], dtype=float)
        stop = metric_gradient(rel, scores, make_loss_spec("ndcg@k", k=3, alpha=3.0))
        full = metric_gradient(
            rel, scores, make_loss_spec("ndcg@k", k=3, alpha=3.0, grad_mode="full")
        )
        assert np.abs(stop - full).max() > 1e-6


class TestFiniteDifferenceAgreement:
    @pytest.mark.parametrize("mode", ["stop_gradient", "full"])
    @pytest.mark.parametrize("kind", ["p@k", "ap", "ndcg@k"])
    def test_random_instances(self, kind, mode):
        rng = np.random.default_rng(3)
        for _ in range(40):
            raw, rel, k, alpha = random_ranking_instance(rng)
            spec = make_loss_spec(
                kind, k=None if kind == "ap" else k, alpha=alpha, grad_mode=mode
            )
            report = finite_difference_check(rel, raw, spec, h=1e-4)
            assert report.max_rel_err <= 1e-4

    def test_componentwise_at_smaller_step(self):
        """At h=1e-5 the truncation term is 100x smaller, so per-component
        agreement is checkable directly."""
        rng = np.random.default_rng(4)
        for _ in range(60):
            raw, rel, k, alpha = random_ranking_instance(rng)
            kind = ("p@k", "ap", "ndcg@k")[int(rng.integers(3))]
            mode = ("stop_gradient", "full")[int(rng.integers(2))]
            spec = make_loss_spec(
                kind, k=None if kind == "ap" else k, alpha=alpha, grad_mode=mode
            )
            report = finite_difference_check(rel, raw, spec, h=1e-5)
            np.testing.assert_allclose(
                report.numeric, report.analytic, rtol=1e-3, atol=1e-8
            )

    def test_quadratic_convergence_in_h(self):
        """Complex steps, like central differences, converge at order h^2
        toward the analytic gradient, pinning the residual at these steps as
        pure truncation."""
        rng = np.random.default_rng(5)
        raw = rng.random(7)
        rel = np.array([1, 0, 1, 0, 0, 1, 0], dtype=float)
        spec = make_loss_spec("ndcg@k", k=4, alpha=8.0, grad_mode="full")
        errs = [
            finite_difference_check(rel, raw, spec, h=h).max_abs_err
            for h in (1e-2, 1e-3, 1e-4)
        ]
        assert errs[0] / errs[1] == pytest.approx(100.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(100.0, rel=0.2)

    def test_stop_gradient_oracle_is_the_frozen_prefix_one(self):
        """The stop-gradient analytic gradient matches the frozen-prefix
        differences but NOT differences of the raw recursive loss; freezing
        is what makes the oracle mode-consistent."""
        from smoothrank import smooth_metric

        rng = np.random.default_rng(6)
        raw = rng.random(6)
        rel = np.array([1, 0, 0, 1, 0, 0], dtype=float)
        spec = make_loss_spec("ndcg@k", k=3, alpha=5.0, grad_mode="stop_gradient")
        report = finite_difference_check(rel, raw, spec, h=1e-5)
        np.testing.assert_allclose(report.numeric, report.analytic, rtol=1e-4, atol=1e-9)

        # differencing the raw recursive loss instead measures the full-mode
        # derivative, which disagrees with the stop-gradient one
        h = 1e-5
        offset = 1.0 - raw.min()
        raw_fd = np.empty(6)
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            up = 1.0 - smooth_metric(rel, raw + e + offset, spec)
            dn = 1.0 - smooth_metric(rel, raw - e + offset, spec)
            raw_fd[j] = (up - dn) / (2 * h)
        assert np.abs(raw_fd - report.analytic).max() > 1e-4

    def test_truncated_ap_gradient_is_zero_outside_the_kept_list(self, monkeypatch):
        from smoothrank import LossSpec, SmoothIParams

        monkeypatch.setattr(smooth_metrics, "AP_LIST_CAP", 4)
        rng = np.random.default_rng(7)
        raw = rng.random(6)
        rel = np.array([1, 0, 1, 0, 1, 0], dtype=float)
        spec = LossSpec(kind="ap", params=SmoothIParams(alpha=2.0, delta=0.1))
        grad = loss_and_gradient(rel, raw, spec)[1]
        dropped = np.argsort(-raw, kind="stable")[4:]
        np.testing.assert_array_equal(grad[dropped], 0.0)
        report = finite_difference_check(rel, raw, spec, h=1e-4)
        assert report.max_rel_err <= 1e-4


class TestAgainstTheLoopOracle:
    """The batched complex-step check against independent oracles: the
    float64 loop that rebuilds the softmax rows once per perturbation gives
    the same analytic gradient, bit for bit, and the exact forward-mode
    ``dual_gradient`` gives the numeric gradient to 1e-12 relative. Where
    that oracle does not go (AP's list cap, 120 documents), the loop's
    central differences at h=1e-4 stand in for it at the 1e-4 gate."""

    H = 1e-4

    def check(self, rel, raw, spec):
        fast = finite_difference_check(rel, raw, spec)
        loop = finite_difference_loop(rel, raw, spec, h=self.H)
        np.testing.assert_array_equal(fast.analytic, loop.analytic)
        return fast, loop

    def assert_agrees(self, rel, raw, spec):
        fast, _ = self.check(rel, raw, spec)
        np.testing.assert_allclose(fast.numeric, exact_loss_gradient(rel, raw, spec), rtol=1e-12, atol=1e-14)

    def assert_agrees_with_the_loop(self, rel, raw, spec):
        fast, loop = self.check(rel, raw, spec)
        err = np.abs(fast.numeric - loop.numeric).max()
        assert err <= 1e-4 * max(np.abs(loop.numeric).max(), gradients.REL_ERR_FLOOR)

    @pytest.mark.parametrize("mode", ["stop_gradient", "full"])
    @pytest.mark.parametrize("kind", ["p@k", "ap", "ndcg@k"])
    def test_random_instances(self, kind, mode):
        rng = np.random.default_rng(9)
        for _ in range(20):
            raw, rel, k, alpha = random_ranking_instance(rng)
            spec = make_loss_spec(kind, k=None if kind == "ap" else k, alpha=alpha, grad_mode=mode)
            self.assert_agrees(rel, raw, spec)

    @pytest.mark.parametrize("mode", ["stop_gradient", "full"])
    def test_list_longer_than_the_ap_cap(self, mode, monkeypatch):
        monkeypatch.setattr(smooth_metrics, "AP_LIST_CAP", 4)
        rng = np.random.default_rng(10)
        raw = rng.random(9)
        rel = np.array([1, 0, 1, 0, 1, 0, 0, 1, 0], dtype=float)
        spec = LossSpec(kind="ap", params=SmoothIParams(alpha=3.0), grad_mode=mode)
        self.assert_agrees_with_the_loop(rel, raw, spec)
        dropped = np.argsort(-raw, kind="stable")[4:]
        np.testing.assert_array_equal(finite_difference_check(rel, raw, spec).numeric[dropped], 0.0)

    @pytest.mark.parametrize("mode", ["stop_gradient", "full"])
    def test_one_document_list(self, mode):
        for kind in ("p@k", "ap", "ndcg@k"):
            self.assert_agrees([1.0], [0.3], make_loss_spec(kind, alpha=2.0, grad_mode=mode))

    @pytest.mark.parametrize("mode", ["stop_gradient", "full"])
    def test_tied_list(self, mode):
        spec = make_loss_spec("ndcg@k", k=3, alpha=4.0, grad_mode=mode)
        with pytest.warns(UserWarning, match="ties"):
            self.assert_agrees([1.0, 0.0, 2.0, 0.0], [0.5, 0.5, 0.2, 0.5], spec)

    def test_120_document_list(self):
        rng = np.random.default_rng(11)
        raw = rng.random(120)
        rel = (rng.random(120) < 0.3).astype(float)
        self.assert_agrees_with_the_loop(rel, raw, make_loss_spec("ap", alpha=5.0))
        self.assert_agrees_with_the_loop(rel, raw, make_loss_spec("ndcg@k", k=10, alpha=5.0, grad_mode="full"))

    def test_full_mode_chunks_give_the_same_bits(self, monkeypatch):
        rng = np.random.default_rng(12)
        raw, rel, k, alpha = random_ranking_instance(rng, n_max=8)
        spec = make_loss_spec("ap", alpha=alpha, grad_mode="full")
        whole = finite_difference_check(rel, raw, spec).numeric
        monkeypatch.setattr(gradients, "FD_CHUNK_ELEMENTS", 2 * raw.size**2 + 1)
        np.testing.assert_array_equal(finite_difference_check(rel, raw, spec).numeric, whole)


def mixed_lists(rng, count, lengths=(1, 2, 3, 7, 16, 40)):
    """``count`` lists of the given lengths, each with binary grades holding
    a relevant and (past one document) an irrelevant one, a cutoff in [1,
    min(10, n)] and an alpha drawn log-uniformly from [0.1, 100]."""
    out = []
    for _ in range(count):
        n = int(rng.choice(lengths))
        raw = rng.random(n) * rng.choice([1.0, 20.0])
        rel = (rng.random(n) < 0.4).astype(float)
        rel[int(rng.integers(n))] = 1.0
        if n > 1 and rel.all():
            rel[int(rng.integers(n))] = 0.0
        k = int(rng.integers(1, min(10, n) + 1))
        alpha = float(np.exp(rng.uniform(np.log(0.1), np.log(100.0))))
        out.append((rel, raw, k, alpha))
    return out


def batch_spec(kind, mode, k, alpha, rng):
    """A spec for one list of a batch: AP takes no cutoff, and the others
    take the list's cutoff or, now and then, none."""
    cutoff = None if kind == "ap" or rng.random() < 0.25 else k
    return make_loss_spec(kind, k=cutoff, alpha=alpha, grad_mode=mode)


def assert_same_reports(batch, one):
    np.testing.assert_array_equal(batch.analytic, one.analytic)
    np.testing.assert_array_equal(batch.numeric, one.numeric)
    assert batch.max_abs_err == one.max_abs_err
    assert batch.max_rel_err == one.max_rel_err
    assert batch.step_h == one.step_h


class TestBatchOfLists:
    """``finite_difference_checks`` groups lists by length, kept cutoff and
    spec but for alpha; each of its reports must be the one-list check's,
    bit for bit."""

    def check(self, lists, specs, h=gradients.STEP_H):
        reports = finite_difference_checks([(rel, raw) for rel, raw, *_ in lists], specs, h=h)
        assert len(reports) == len(lists)
        for (rel, raw, *_), spec, report in zip(lists, specs, reports):
            assert_same_reports(report, finite_difference_check(rel, raw, spec, h=h))
        return reports

    @pytest.mark.parametrize("mode", ["stop_gradient", "full"])
    @pytest.mark.parametrize("kind", ["p@k", "ap", "ndcg@k"])
    def test_each_report_is_the_one_list_report(self, kind, mode):
        rng = np.random.default_rng(20)
        lists = mixed_lists(rng, 36)
        if kind == "ndcg@k":  # graded: 0, 1 or 2 where the binary grade is 1
            lists = [(rel * rng.integers(1, 3, rel.size), raw, k, a) for rel, raw, k, a in lists]
        self.check(lists, [batch_spec(kind, mode, k, alpha, rng) for _, _, k, alpha in lists])

    def test_kinds_and_modes_mixed_in_one_call(self):
        rng = np.random.default_rng(21)
        lists = mixed_lists(rng, 60, lengths=(1, 4, 9))
        specs = [batch_spec(("p@k", "ap", "ndcg@k")[i % 3], ("stop_gradient", "full")[i % 2], k, alpha, rng)
                 for i, (_, _, k, alpha) in enumerate(lists)]
        self.check(lists, specs)

    def test_lists_past_the_ap_cap(self, monkeypatch):
        monkeypatch.setattr(smooth_metrics, "AP_LIST_CAP", 4)
        rng = np.random.default_rng(22)
        lists = mixed_lists(rng, 24, lengths=(3, 4, 9, 12))
        for mode in ("stop_gradient", "full"):
            reports = self.check(lists, [make_loss_spec("ap", alpha=a, grad_mode=mode) for *_, a in lists])
            for (_, raw, *_), report in zip(lists, reports):
                dropped = np.argsort(-raw, kind="stable")[4:]
                np.testing.assert_array_equal(report.numeric[dropped], 0.0)
                np.testing.assert_array_equal(report.analytic[dropped], 0.0)

    def test_full_mode_group_split_across_chunks(self, monkeypatch):
        """Three chunks of two 7-document lists, whose perturbed copies are
        split mid-list; no recursion gets more than FD_CHUNK_ELEMENTS row
        elements, and the reports keep their bits."""
        rng = np.random.default_rng(23)
        lists = mixed_lists(rng, 6, lengths=(7,))
        specs = [make_loss_spec("ndcg@k", k=3, alpha=a, grad_mode="full") for *_, a in lists]
        whole = finite_difference_checks([(rel, raw) for rel, raw, *_ in lists], specs)
        limit = 2 * 3 * 7 + 5
        monkeypatch.setattr(gradients, "FD_CHUNK_ELEMENTS", limit)
        sizes = []

        def recording(scores, *args, **kwargs):
            mat = smooth_indicators(scores, *args, **kwargs)
            sizes.append(mat.rows.size)
            return mat

        monkeypatch.setattr(gradients, "smooth_indicators", recording)
        monkeypatch.setattr(smooth_metrics, "smooth_indicators", recording)
        chunked = self.check(lists, specs)
        # the batch: 3 forward passes, and 42 perturbed copies 2 at a time;
        # then each one-list check: 1 forward pass and 7 copies 2 at a time
        assert sizes == [42] * (3 + 21) + ([21] + [42] * 3 + [21]) * 6
        assert max(sizes) <= limit
        for a, b in zip(whole, chunked):
            assert_same_reports(a, b)

    def test_tied_list_warns(self):
        lists = [([1.0, 0.0, 1.0], [0.3, 0.1, 0.2], 2, 3.0), ([1.0, 0.0, 2.0, 0.0], [0.5, 0.5, 0.2, 0.5], 3, 4.0)]
        specs = [make_loss_spec("ndcg@k", k=k, alpha=a) for _, _, k, a in lists]
        with pytest.warns(UserWarning, match="ties"):
            self.check(lists, specs)

    def test_no_lists(self):
        assert finite_difference_checks([], []) == []


class TestBatchErrors:
    """Errors come before any recursion, each the one-list check's, with the
    first invalid list named."""

    @pytest.fixture(autouse=True)
    def no_recursion(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a recursion ran before the error")

        monkeypatch.setattr(gradients, "smooth_indicators", refuse)
        monkeypatch.setattr(smooth_metrics, "smooth_indicators", refuse)

    GOOD = ([1.0, 0.0, 0.0], [0.3, 0.1, 0.2])

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="lists and specs differ in length: 2, 1"):
            finite_difference_checks([self.GOOD, self.GOOD], [make_loss_spec("ap")])

    def test_undefined_loss(self):
        lists = [self.GOOD, self.GOOD, ([0.0, 0.0, 0.0], [0.3, 0.1, 0.2])]
        with pytest.raises(UndefinedMetricError, match="^list 2: smooth AP is undefined: no relevant document$"):
            finite_difference_checks(lists, [make_loss_spec("ap", alpha=a) for a in (1.0, 2.0, 3.0)])

    def test_cutoff_above_the_list_length(self):
        specs = [make_loss_spec("p@k", k=k) for k in (2, 5, 1)]
        with pytest.raises(ValueError, match=r"^list 1: cutoff k=5 exceeds list length 3$"):
            finite_difference_checks([self.GOOD] * 3, specs)

    def test_the_first_invalid_list_is_named(self):
        """List 0's undefined loss is named, though list 1's scores fail
        earlier in the batch's own order."""
        lists = [([0.0, 0.0, 0.0], [0.3, 0.1, 0.2]), ([1.0, 0.0], [0.3, np.nan])]
        with pytest.raises(UndefinedMetricError, match="^list 0: "):
            finite_difference_checks(lists, [make_loss_spec("ap")] * 2)
        with pytest.raises(ValueError, match="^list 1: scores contain NaN or Inf$"):
            finite_difference_checks([self.GOOD, lists[1]], [make_loss_spec("ap")] * 2)

    @pytest.mark.parametrize("h", [0.0, float("nan"), float("inf"), -1e-3])
    def test_a_bad_step(self, h):
        """h is one for the whole call, so its error names no list."""
        with pytest.raises(ValueError, match="^step h must be positive and finite"):
            finite_difference_checks([self.GOOD], [make_loss_spec("ap")], h=h)

    def test_the_one_list_errors_are_unprefixed(self):
        with pytest.raises(ValueError, match="^cutoff k=5 exceeds list length 3$"):
            finite_difference_check(*self.GOOD, make_loss_spec("p@k", k=5))
        with pytest.raises(UndefinedMetricError, match="^smooth AP is undefined: no relevant document$"):
            finite_difference_check([0.0, 0.0], [0.3, 0.1], make_loss_spec("ap"))


def saturated_lists():
    """50 seeded 20-document lists that a trained scorer might produce: raw
    scores uniform on [0, 80), the top 7 relevant."""
    rng = np.random.default_rng(0)
    lists = []
    for _ in range(50):
        raw = rng.uniform(0.0, 80.0, 20)
        rel = np.zeros(20)
        rel[np.argsort(-raw)[:7]] = 1.0
        lists.append((rel, raw))
    return lists


SATURATED_SPECS = (("p@k", 5), ("ndcg@k", 10), ("ndcg@k", None))


def test_saturated_lists_pass_the_gate():
    """Lists whose softmax rows are nearly one-hot, as a trained scorer ranks
    them, have gradients too small for float64 central differences at h=1e-4
    to resolve; a complex step of the same size subtracts nothing, so they
    pass the 1e-4 gate."""
    lists = saturated_lists()
    for kind, k in SATURATED_SPECS:
        spec = make_loss_spec(kind, k=k, alpha=10.0, delta=0.1)
        for rel, raw in lists:
            assert finite_difference_check(rel, raw, spec, h=1e-4).max_rel_err <= 1e-4


def test_saturated_lists_pass_the_gate_in_full_mode():
    """In full mode the recursion is stiff on the same lists: the loss curves
    on a scale far below h=1e-4, where a difference quotient is all
    truncation. At the default tiny complex step every list passes."""
    lists = saturated_lists()
    for kind, k in SATURATED_SPECS:
        spec = make_loss_spec(kind, k=k, alpha=10.0, delta=0.1, grad_mode="full")
        for rel, raw in lists:
            assert finite_difference_check(rel, raw, spec).max_rel_err <= 1e-4


class TestBatchLinearity:
    def test_mean_loss_gradient_is_mean_of_per_query_gradients(self):
        """Differencing the batch-mean loss (with each query's shift offset
        frozen at its base point, the same convention the analytic gradient
        uses) reproduces the per-query gradients scaled by 1/batch."""
        from smoothrank import smooth_metric

        rng = np.random.default_rng(8)
        queries = []
        for _ in range(3):
            raw, rel, k, _ = random_ranking_instance(rng, n_max=6)
            queries.append((raw, rel, 1.0 - raw.min()))
        # full mode: the raw recursive metric is then the differencing target
        spec = make_loss_spec("ndcg@k", alpha=2.0, grad_mode="full")

        grads = [loss_and_gradient(rel, raw, spec)[1] for raw, rel, _ in queries]
        mean_grad = [g / len(queries) for g in grads]

        def batch_loss(perturbed):
            return np.mean(
                [
                    1.0 - smooth_metric(rel_q, x + off_q, spec)
                    for x, (_, rel_q, off_q) in zip(perturbed, queries)
                ]
            )

        h = 1e-5
        for qi, (raw, rel, off) in enumerate(queries):
            for j in range(raw.size):
                e = np.zeros(raw.size)
                e[j] = h
                up = [x + (e if i == qi else 0.0) for i, (x, _, _) in enumerate(queries)]
                dn = [x - (e if i == qi else 0.0) for i, (x, _, _) in enumerate(queries)]
                fd = (batch_loss(up) - batch_loss(dn)) / (2 * h)
                assert fd == pytest.approx(mean_grad[qi][j], rel=1e-3, abs=1e-8)


class TestReportAndErrors:
    def test_report_fields(self):
        report = finite_difference_check(
            [1, 0], [2.0, 1.0], make_loss_spec("p@k", k=1, alpha=1.0)
        )
        assert report.analytic.shape == (2,)
        assert report.numeric.shape == (2,)
        assert report.step_h == gradients.STEP_H
        assert report.max_abs_err >= 0
        assert report.max_rel_err <= 1e-5

    def test_only_a_large_step_warns(self):
        """A tiny complex step has no cancellation to warn of; above 1e-2
        truncation may dominate, which is reported with a warning."""
        spec = make_loss_spec("p@k", k=1, alpha=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h in (1e-20, 1e-2):
                finite_difference_check([1, 0], [2.0, 1.0], spec, h=h)
        with pytest.warns(UserWarning, match="h="):
            report = finite_difference_check([1, 0], [2.0, 1.0], spec, h=0.1)
        assert np.all(np.isfinite(report.numeric))

    @pytest.mark.parametrize("h", [0.0, float("nan"), float("inf"), -1e-3])
    def test_a_step_outside_zero_to_inf_is_rejected(self, h):
        """A zero, NaN or infinite step would give an all-NaN numeric
        gradient, and a negative one a check of nothing it was asked for."""
        spec = make_loss_spec("p@k", k=1, alpha=1.0)
        with pytest.raises(ValueError, match="step h"):
            finite_difference_check([1, 0], [2.0, 1.0], spec, h=h)
