"""Certificate arithmetic and the indicator/metric/composition error bounds."""

import dataclasses
import math
import re

import numpy as np
import pytest

from smoothrank import (
    CertificateError,
    ThresholdNotMetError,
    certificate,
    epsilon_alpha,
    precision_at_k,
    smooth_metric,
    make_loss_spec,
    verify_corollary,
    verify_indicator_bound,
    verify_metric_bounds,
)
from smoothrank import bounds_lab, smooth_metrics
from smoothrank.bounds_lab import bound_sweep, random_strict_scores
from oracles import bound_sweep_per_list, metric_bounds_three_pass


def count_calls(monkeypatch, *targets) -> dict:
    """Count the calls of each (module, name) through a wrapper set on the
    module, where its callers look the name up."""
    calls = {name: 0 for _, name in targets}
    for owner, name in targets:
        def wrapper(*args, _original=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


def sweep_text(rows, summary):
    """A sweep's rows and summary with every value as its repr."""
    return ([[(key, repr(value)) for key, value in row.items()] for row in rows],
            [(key, repr(value)) for key, value in summary.items()])


class TestCertificate:
    def test_worked_example(self):
        cert = certificate([4.0, 2.0, 1.0], k=2, delta=0.1)
        assert cert.beta == pytest.approx(2.0, abs=1e-12)
        assert cert.c == pytest.approx(1.5, abs=1e-12)
        assert cert.gamma == pytest.approx(0.1, abs=1e-12)
        assert cert.s_min == 1.0
        assert cert.alpha_threshold == pytest.approx(9.210340371976182, abs=1e-9)

    def test_gamma_switches_branch_with_delta(self):
        cert = certificate([4.0, 2.0, 1.0], k=2, delta=0.25)
        assert cert.gamma == pytest.approx(0.15, abs=1e-12)

    def test_ties_rejected(self):
        message = "certificate undefined: strict mode requires pairwise distinct scores (ties present)"
        for scores in ([1.0, 1.0, 2.0], [3.0, 1.0, 2.0, 1.0], [2.0, 5.0, 5.0]):
            with pytest.raises(CertificateError, match=re.escape(message) + "$"):
                certificate(scores, k=2, delta=0.1)

    def test_error_order(self):
        """A bad delta before the scores, the scores before K, K before the
        threshold."""
        with pytest.raises(ValueError, match="delta"):
            certificate([1.0, 1.0], k=3, delta=0.5)
        with pytest.raises(CertificateError, match="positive"):
            verify_indicator_bound([2.0, 0.0, 2.0], k=5, alpha=1e-9, delta=0.1)
        with pytest.raises(CertificateError, match="ties"):
            verify_indicator_bound([2.0, 1.0, 2.0], k=5, alpha=1e-9, delta=0.1)
        with pytest.raises(CertificateError, match="out of range"):
            verify_indicator_bound([2.0, 1.0, 3.0], k=5, alpha=1e-9, delta=0.1)
        with pytest.raises(CertificateError, match="ties"):
            verify_metric_bounds([1.0, 0.0], [2.0, 2.0], k=2, alpha=1e-9, delta=0.1)

    def test_nonpositive_rejected(self):
        with pytest.raises(CertificateError, match="positive"):
            certificate([2.0, 0.0], k=2, delta=0.1)

    def test_k_equal_one_rejected(self):
        with pytest.raises(CertificateError, match="K=1"):
            certificate([2.0, 1.0], k=1, delta=0.1)

    def test_k_beyond_list_rejected(self):
        with pytest.raises(CertificateError, match="out of range"):
            certificate([2.0, 1.0], k=3, delta=0.1)

    def test_delta_validated(self):
        with pytest.raises(ValueError, match="delta"):
            certificate([2.0, 1.0], k=2, delta=0.5)

    def test_beta_is_the_pairwise_minimum(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores = random_strict_scores(rng, int(rng.integers(2, 10)))
            cert = certificate(scores, 2, 0.1)
            ratios = [
                si / sj for si in scores for sj in scores if si > sj
            ]
            assert cert.beta == pytest.approx(min(ratios), abs=1e-12)

    def test_scaling_invariance(self):
        """Scaling all scores by c scales s_min by c, divides the threshold
        by c, and leaves beta, c, gamma untouched."""
        rng = np.random.default_rng(1)
        for _ in range(30):
            scores = random_strict_scores(rng, 6)
            factor = float(rng.uniform(0.2, 8.0))
            a = certificate(scores, 3, 0.1)
            b = certificate(factor * scores, 3, 0.1)
            assert b.beta == pytest.approx(a.beta, abs=1e-12)
            assert b.c == pytest.approx(a.c, abs=1e-12)
            assert b.gamma == pytest.approx(a.gamma, abs=1e-12)
            assert b.s_min == pytest.approx(factor * a.s_min, rel=1e-12)
            assert b.alpha_threshold == pytest.approx(a.alpha_threshold / factor, rel=1e-12)

    def test_threshold_rises_strictly_with_k(self):
        """Near-tied gaps make gamma small; the threshold still grows with K,
        so clearing it at K=N clears it at every K."""
        rng = np.random.default_rng(17)
        for _ in range(400):
            n = int(rng.integers(3, 40))
            scores = random_strict_scores(rng, n, gap_range=(1e-6, 1e-2))
            delta = float(rng.choice([0.05, 0.1, 0.3, 0.45]))
            thresholds = [certificate(scores, k, delta).alpha_threshold for k in range(2, n + 1)]
            assert all(a < b for a, b in zip(thresholds, thresholds[1:]))


class TestEpsilonAlpha:
    def test_worked_value(self):
        cert = certificate([4.0, 2.0, 1.0], k=2, delta=0.1)
        assert epsilon_alpha(cert, 20.0) == pytest.approx(math.exp(-5.0), abs=1e-12)

    def test_limit_at_zero_sharpness(self):
        cert = certificate([4.0, 2.0, 1.0], k=2, delta=0.1)
        assert epsilon_alpha(cert, 1e-12) == pytest.approx(1.0, abs=1e-9)  # K - 1

    def test_doubling_identity(self):
        """eps(2a) = eps(a)^2 / (K-1), exactly from the exponential form."""
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            scores = random_strict_scores(rng, n)
            k = int(rng.integers(2, min(4, n) + 1))
            cert = certificate(scores, k, 0.1)
            a = float(rng.uniform(1.0, 30.0))
            assert epsilon_alpha(cert, 2 * a) == pytest.approx(
                epsilon_alpha(cert, a) ** 2 / (k - 1), rel=1e-12
            )

    def test_log_epsilon_is_affine_in_alpha(self):
        cert = certificate([4.0, 2.0, 1.0], k=3, delta=0.1)
        a1, a2 = 7.0, 19.0
        slope = (math.log(epsilon_alpha(cert, a2)) - math.log(epsilon_alpha(cert, a1))) / (a2 - a1)
        assert slope == pytest.approx(-cert.decay_rate, rel=1e-12)

    def test_strictly_decreasing(self):
        cert = certificate([4.0, 2.0, 1.0], k=2, delta=0.1)
        values = [epsilon_alpha(cert, a) for a in (1, 5, 20, 80)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_threshold_implies_working_margins(self):
        """Above the threshold, eps < delta and 1 - delta - eps > 0.5."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            scores = random_strict_scores(rng, n)
            k = int(rng.integers(2, min(4, n) + 1))
            delta = float(rng.uniform(0.05, 0.45))
            cert = certificate(scores, k, delta)
            eps = epsilon_alpha(cert, cert.alpha_threshold * 1.0001)
            assert delta - eps > 0.0
            assert 1.0 - delta - eps > 0.5


class TestIndicatorBound:
    def test_worked_example_holds(self):
        report = verify_indicator_bound([4.0, 2.0, 1.0], k=2, alpha=20.0, delta=0.1)
        assert report.holds
        assert report.max_indicator_err <= report.epsilon_alpha
        assert report.epsilon_alpha == pytest.approx(math.exp(-5.0), abs=1e-12)
        assert report.per_rank_err.shape == (2,)

    def test_two_doc_instance(self):
        cert = certificate([10.0, 1.0], k=2, delta=0.1)
        report = verify_indicator_bound([10.0, 1.0], k=2, alpha=1.1 * cert.alpha_threshold, delta=0.1)
        assert report.holds

    def test_below_threshold_rejected_naming_it(self):
        with pytest.raises(ThresholdNotMetError, match="9.21"):
            verify_indicator_bound([4.0, 2.0, 1.0], k=2, alpha=5.0, delta=0.1)

    def test_random_instances_zero_violations(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(3, 11))
            scores = random_strict_scores(rng, n)
            k = int(rng.integers(2, min(5, n) + 1))
            cert = certificate(scores, k, 0.1)
            for factor in (1.01, 2.0):
                report = verify_indicator_bound(scores, k, factor * cert.alpha_threshold, 0.1)
                assert report.holds
                assert report.max_indicator_err_topk <= report.max_indicator_err


class TestMetricBounds:
    def test_sharp_two_doc_instance(self):
        report = verify_metric_bounds([1.0, 0.0], [10.0, 1.0], k=2, alpha=100.0, delta=0.1)
        assert report.all_hold
        assert report.precision_diff < report.precision_bound
        assert report.ap_diff < report.ap_bound
        assert report.ndcg_diff < report.ndcg_bound

    def test_all_relevant_trivially_holds(self):
        report = verify_metric_bounds([1.0, 1.0, 1.0], [4.0, 2.0, 1.0], k=2, alpha=50.0, delta=0.1)
        assert report.all_hold
        assert report.precision_diff == pytest.approx(0.0, abs=1e-12)

    def test_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(3, 9))
            scores = random_strict_scores(rng, n)
            rel = (rng.random(n) < 0.5).astype(float)
            if rel.sum() == 0:
                rel[int(rng.integers(n))] = 1.0
            k = int(rng.integers(2, min(5, n) + 1))
            needed = max(
                certificate(scores, k, 0.1).alpha_threshold,
                certificate(scores, n, 0.1).alpha_threshold,
            )
            report = verify_metric_bounds(rel, scores, k, 1.05 * needed, 0.1)
            assert report.all_hold

    def test_below_threshold_rejected(self):
        with pytest.raises(ThresholdNotMetError):
            verify_metric_bounds([1.0, 0.0, 1.0], [4.0, 2.0, 1.0], k=2, alpha=1.0, delta=0.1)

    def test_equals_three_pass_oracle_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(3, 17))
            k = int(rng.integers(2, n + 1))
            scores = random_strict_scores(rng, n)
            rel = (rng.random(n) < 0.5).astype(float)
            if rel.sum() == 0:
                rel[int(rng.integers(n))] = 1.0
            alpha = float(rng.uniform(1.01, 5.0)) * certificate(scores, n, 0.1).alpha_threshold
            got = dataclasses.astuple(verify_metric_bounds(rel, scores, k, alpha, 0.1))
            assert got == dataclasses.astuple(metric_bounds_three_pass(rel, scores, k, alpha, 0.1))

    def test_one_recursion_and_no_batch_preparation(self, monkeypatch):
        calls = count_calls(monkeypatch, (bounds_lab, "smooth_indicators"),
                            (smooth_metrics, "_prepare"),
                            # the metric check reads no hard indicator rows
                            (bounds_lab, "_indicator_rows"))
        scores = [4.0, 2.0, 1.0, 3.0]
        alpha = 1.5 * certificate(scores, 4, 0.1).alpha_threshold
        verify_metric_bounds([1.0, 0.0, 1.0, 0.0], scores, k=2, alpha=alpha, delta=0.1)
        assert calls == {"smooth_indicators": 1, "_prepare": 0, "_indicator_rows": 0}

    def test_one_strict_validation(self, monkeypatch):
        """Both thresholds (K and N) come from one validated array."""
        scores = [4.0, 2.0, 1.0, 3.0]
        alpha = 1.5 * certificate(scores, 4, 0.1).alpha_threshold
        calls = count_calls(monkeypatch, (bounds_lab, "as_scores"))
        verify_metric_bounds([1.0, 0.0, 1.0, 0.0], scores, k=2, alpha=alpha, delta=0.1)
        assert calls == {"as_scores": 1}

    def test_rounding_gap_under_a_zero_bound_holds(self):
        # eps_K underflows to 0 here, so the NDCG bound is 0, while the exact
        # and smooth NDCG, summed in different orders, differ by one ulp
        scores = [45.92, 18.818, 38.319, 32.769, 49.919, 52.802, 23.642, 28.086,
                  35.706, 42.32, 14.288, 48.272, 20.051, 54.451, 39.461, 12.176]
        rel = [1, 0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0]
        alpha = 1.5 * max(certificate(scores, 7, 0.1).alpha_threshold,
                          certificate(scores, 16, 0.1).alpha_threshold)
        report = verify_metric_bounds(rel, scores, k=7, alpha=alpha, delta=0.1)
        assert report.ndcg_bound == 0.0
        assert 0.0 < report.ndcg_diff < 1e-15
        assert report.all_hold


class TestCorollary:
    def test_identity_specializes_to_the_precision_bound(self):
        """With unit row weights and relevance as document weights, the
        composition is K times P@K on both the hard and smooth sides."""
        scores = np.array([4.0, 2.0, 1.0])
        rel = np.array([1.0, 0.0, 1.0])
        k, alpha, delta = 2, 25.0, 0.1
        report = verify_corollary(np.ones(k), rel, "identity", scores, k, alpha, delta)
        assert report.holds
        spec = make_loss_spec("p@k", k=k, alpha=alpha, delta=delta)
        lhs_direct = k * abs(
            precision_at_k(rel, scores, k) - smooth_metric(rel, scores, spec)
        )
        assert report.lhs == pytest.approx(lhs_direct, abs=1e-12)
        assert report.rhs == pytest.approx(
            k * rel.sum() * report.epsilon_alpha, abs=1e-15
        )

    def test_exp_gain_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            scores = random_strict_scores(rng, n)
            rel = (rng.random(n) < 0.5).astype(float)
            k = int(rng.integers(2, min(5, n) + 1))
            cert = certificate(scores, k, 0.1)
            report = verify_corollary(
                np.ones(k), rel, "exp2m1", scores, k, 1.1 * cert.alpha_threshold, 0.1
            )
            assert report.holds
            assert report.lipschitz == pytest.approx(2.0 ** rel.sum() * math.log(2.0))

    def test_zero_weights_give_zero_sides(self):
        report = verify_corollary(
            np.zeros(2), np.array([1.0, 0.0, 1.0]), "identity", [4.0, 2.0, 1.0], 2, 25.0, 0.1
        )
        assert report.lhs == 0.0
        assert report.rhs == 0.0
        assert report.holds

    def test_weight_length_validation(self):
        with pytest.raises(ValueError, match="a_weights"):
            verify_corollary([1.0], [1.0, 0.0, 1.0], "identity", [4.0, 2.0, 1.0], 2, 25.0, 0.1)
        with pytest.raises(ValueError, match="b_weights"):
            verify_corollary([1.0, 1.0], [1.0], "identity", [4.0, 2.0, 1.0], 2, 25.0, 0.1)

    def test_unknown_gain_rejected(self):
        with pytest.raises(ValueError, match="g must be"):
            verify_corollary([1.0, 1.0], [1.0, 0.0, 1.0], "square", [4.0, 2.0, 1.0], 2, 25.0, 0.1)


class TestBoundSweep:
    def test_auto_alphas_all_hold(self):
        rows, summary = bound_sweep(
            instances=25, n_range=(4, 8), k_values=[2, 3, 5], delta=0.1, seed=11
        )
        assert len(rows) == 25 * 3
        assert summary["checked"] == len(rows)
        assert summary["skipped"] == 0
        assert summary["fraction_holding"] == 1.0

    def test_explicit_alphas_mark_subthreshold_rows(self):
        rows, summary = bound_sweep(
            instances=10,
            n_range=(4, 8),
            k_values=[3],
            delta=0.1,
            seed=12,
            alphas=[0.5, 1e6],
        )
        assert len(rows) == 20
        skipped = [r for r in rows if r["status"] == "skipped_below_threshold"]
        checked = [r for r in rows if r["status"] == "checked"]
        assert len(skipped) == 10  # alpha=0.5 is always below threshold here
        assert all(r["holds"] for r in checked)
        assert summary["skipped"] == len(skipped)

    # (instances, n_range, k_values, seed, alphas): certify's config on
    # several seeds, explicit alphas that skip some rows of an instance and
    # check others, one K value only, no instance at all
    SWEEP_CASES = [
        (600, (4, 10), (2, 3, 5), 1, None),
        (200, (4, 10), (2, 3, 5), 2, None),
        (200, (4, 10), (2, 3, 5), 3, None),
        (200, (4, 10), (2, 3, 5), 7, None),
        (200, (4, 10), (2, 3, 5), 1, (0.5, 5.0, 50.0, 500.0)),
        (150, (2, 30), (2, 3, 5, 10), 5, (50.0, 2.0, 1e4)),
        (100, (3, 12), (3,), 4, None),
        (0, (4, 10), (2, 3, 5), 1, None),
    ]

    @pytest.mark.parametrize("instances, n_range, k_values, seed, alphas", SWEEP_CASES)
    def test_grouped_sweep_equals_per_list_oracle(self, instances, n_range, k_values, seed, alphas):
        """Every row and the summary equal the per-list sweep's, each value by
        repr (so a numpy scalar in place of a float or bool shows too)."""
        got = bound_sweep(instances, n_range, k_values, 0.1, seed, alphas)
        want = bound_sweep_per_list(instances, n_range, k_values, 0.1, seed, alphas)
        assert sweep_text(*got) == sweep_text(*want)
        if alphas is not None:
            statuses = {}
            for row in got[0]:
                statuses.setdefault(row["instance"], set()).add(row["status"])
            assert {"checked", "skipped_below_threshold"} in statuses.values()

    def test_groups_split_into_chunks_equal_the_oracle(self, monkeypatch):
        # at most 60 row elements per recursion, so groups split into chunks
        monkeypatch.setattr(bounds_lab, "SWEEP_CHUNK_ELEMENTS", 60)
        calls = count_calls(monkeypatch, (bounds_lab, "smooth_indicators"))
        args = (200, (4, 10), (2, 3, 5), 0.1, 6, (0.5, 50.0, 500.0))
        got = bound_sweep(*args)
        assert calls["smooth_indicators"] > len({(row["n"], row["k"]) for row in got[0]})
        assert sweep_text(*got) == sweep_text(*bound_sweep_per_list(*args))

    def test_no_usable_k_raises_before_any_row(self, monkeypatch):
        # n = 2 has no K in [2, n] among (3,); the per-list sweep raises at the
        # first such instance, after checking the ones before it
        args = (40, (2, 6), (3,), 0.1, 9)
        with pytest.raises(ValueError) as want:
            bound_sweep_per_list(*args)
        calls = count_calls(monkeypatch, (bounds_lab, "certificate"), (bounds_lab, "smooth_indicators"))
        with pytest.raises(ValueError) as got:
            bound_sweep(*args)
        assert str(got.value) == str(want.value) == "no usable k in (3,) for n=2"
        assert calls == {"certificate": 0, "smooth_indicators": 0}

    def test_one_recursion_per_group(self, monkeypatch):
        """Certify's config, with explicit alphas that skip some rows: one
        certificate per instance, one recursion per (n, K) group with a
        checked row, no per-list bound check."""
        calls = count_calls(monkeypatch, (bounds_lab, "certificate"), (bounds_lab, "smooth_indicators"),
                            (bounds_lab, "verify_indicator_bound"))
        rows, summary = bound_sweep(600, (4, 10), (2, 3, 5), 0.1, 1, (0.5, 5.0, 50.0, 500.0))
        groups = {(row["n"], row["k"]) for row in rows if row["status"] == "checked"}
        assert 0 < summary["skipped"] and 0 < summary["checked"]
        assert calls == {"certificate": 600, "smooth_indicators": len(groups),
                         "verify_indicator_bound": 0}
