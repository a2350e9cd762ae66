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
    certificates,
    epsilon_alpha,
    precision_at_k,
    smooth_metric,
    make_loss_spec,
    verify_corollary,
    verify_indicator_bound,
    verify_indicator_bounds,
    verify_metric_bounds,
)
from smoothrank import bounds_lab, smooth_metrics, smoothi
from smoothrank.bounds_lab import bound_sweep, random_strict_scores
from oracles import (
    bound_sweep_per_list,
    certificate_one_list,
    indicator_bound_one_list,
    metric_bounds_three_pass,
)


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


def drawn_lists(seed, instances=600, n_range=(4, 10), k_values=(2, 3, 5)):
    """(K, scores) of random strict instances, drawn as verify-bounds draws
    them; the defaults are the certify benchmark's config."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(instances):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        usable = [k for k in k_values if k <= n]
        out.append((usable[int(rng.integers(len(usable)))], random_strict_scores(rng, n)))
    return out


def packed(lists, fill=0.0):
    """A (B, max n) batch of the score lists, each left-aligned, with its
    mask; padded cells hold ``fill``."""
    width = max(len(scores) for scores in lists)
    mask = np.arange(width) < np.array([len(scores) for scores in lists])[:, None]
    out = np.full(mask.shape, fill)
    out[mask] = np.concatenate(lists)
    return out, mask


def report_text(report):
    """A bound report by repr, with its per-rank errors' bits, which the
    array's repr rounds."""
    return repr(report), report.per_rank_err.dtype, report.per_rank_err.tobytes()


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

    @pytest.mark.parametrize("k", [1024, 1025])
    def test_threshold_past_the_float_range_refused(self, k):
        """At K=1024 the threshold's 2**(K-1) * log-ratio is inf, at K=1025
        2**(K-1) overflows; both are refused, one list or a batch."""
        scores = np.arange(1.0, 1101.0)
        message = f"certificate threshold at K={k} is not a finite float$"
        with pytest.raises(CertificateError, match=message):
            certificate(scores, k, 0.1)
        with pytest.raises(CertificateError, match="^list 0: " + message):
            bounds_lab.certificates(scores[None], k, 0.1)
        assert math.isfinite(certificate(scores, 1000, 0.1).alpha_threshold)

    @pytest.mark.parametrize("scores", [[1.0, 1.0000000000000002], [5e-324, 1e-323]],
                             ids=["gamma rounds to 0", "divisor rounds to 0"])
    def test_threshold_that_divides_by_zero_refused(self, scores):
        with pytest.raises(CertificateError, match="K=2 is not a finite float"):
            certificate(scores, 2, 0.1)

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


class TestCertificates:
    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_equal_to_per_list_calls_on_certifys_config(self, seed):
        """Equal by repr to one ``certificate`` call per list, and both to
        the one-list oracle."""
        lists = drawn_lists(seed)
        ks = [k for k, _ in lists]
        scores, mask = packed([s for _, s in lists])
        want = [repr(certificate_one_list(s, k, 0.1)) for k, s in lists]
        assert [repr(certificate(s, k, 0.1)) for k, s in lists] == want
        assert [repr(cert) for cert in certificates(scores, ks, 0.1, mask)] == want

    def test_unmasked_batch_and_a_common_k(self):
        rng = np.random.default_rng(21)
        scores = np.stack([random_strict_scores(rng, 12, gap_range=(1e-6, 1e-2)) for _ in range(50)])
        for k in (2, 7, 12):
            want = [repr(certificate_one_list(row, k, 0.3)) for row in scores]
            assert [repr(cert) for cert in certificates(scores, k, 0.3)] == want
            assert [repr(cert) for cert in certificates(scores.tolist(), np.full(50, k), 0.3)] == want

    def test_masked_batch_ignores_what_the_padding_holds(self):
        """2-30-document lists at K in [2, n], each scattered over its row;
        the padded cells hold NaN, 0 and copies of the list's own scores."""
        rng = np.random.default_rng(22)
        lengths = rng.integers(2, 31, size=300)
        ks = [int(rng.integers(2, n + 1)) for n in lengths.tolist()]
        scores = np.full((300, 30), np.nan)
        mask = np.zeros((300, 30), dtype=bool)
        lists = []
        for b, n in enumerate(lengths.tolist()):
            values = random_strict_scores(rng, n, gap_range=(1e-4, 1.0))
            cells = rng.permutation(30)
            scores[b, cells[:n]] = values
            mask[b, cells[:n]] = True
            pad = cells[n:]
            scores[b, pad[: len(pad) // 3]] = 0.0
            scores[b, pad[len(pad) // 3: 2 * len(pad) // 3]] = values[0]
            lists.append(scores[b][mask[b]])
        want = [repr(certificate_one_list(values, k, 0.1)) for values, k in zip(lists, ks)]
        assert [repr(cert) for cert in certificates(scores, ks, 0.1, mask)] == want

    # (lists, ks, delta): list 1 fails first, list 2 fails in another way;
    # list 0 is the longest, so the others have padded cells
    ERROR_CASES = {
        "delta": ([[3.0, 1.0, 2.0, 4.0], [2.0, 1.0], [2.0, 2.0]], [2, 2, 2], 0.5),
        "nan": ([[3.0, 1.0, 2.0, 4.0], [2.0, np.nan, 1.0], [2.0, 0.0]], [2, 2, 2], 0.1),
        "inf": ([[3.0, 1.0, 2.0, 4.0], [np.inf, 1.0], [2.0, 2.0]], [2, 2, 2], 0.1),
        "negative inf": ([[3.0, 1.0, 2.0, 4.0], [-np.inf, 1.0], [2.0, 2.0]], [2, 2, 2], 0.1),
        "empty": ([[3.0, 1.0, 2.0, 4.0], [], [np.nan]], [2, 2, 2], 0.1),
        "zero before ties": ([[3.0, 1.0, 2.0, 4.0], [2.0, 0.0, 2.0], [np.nan, 1.0]], [2, 2, 2], 0.1),
        "negative": ([[3.0, 1.0, 2.0, 4.0], [2.0, -1.0], [np.nan, 1.0]], [2, 2, 2], 0.1),
        "ties before k": ([[3.0, 1.0, 2.0, 4.0], [2.0, 1.0, 2.0], [3.0, 1.0]], [2, 1, 2], 0.1),
        "k=1": ([[3.0, 1.0, 2.0, 4.0], [2.0, 1.0], [2.0, 2.0]], [2, 1, 2], 0.1),
        "k > n": ([[3.0, 1.0, 2.0, 4.0], [2.0, 1.0, 3.0], [2.0, 2.0]], [2, 4, 1], 0.1),
        "k before later scores": ([[3.0, 1.0, 2.0], [2.0, 1.0], [np.nan, 1.0]], [3, 3, 2], 0.1),
    }

    @pytest.mark.parametrize("case", list(ERROR_CASES))
    def test_raises_the_first_error_of_the_per_list_loop(self, case):
        lists, ks, delta = self.ERROR_CASES[case]
        errors = []
        for one_list in (certificate, certificate_one_list):
            for b, (values, k) in enumerate(zip(lists, ks)):
                try:
                    one_list(values, k, delta)
                except ValueError as exc:
                    errors.append((b, type(exc), str(exc)))
                    break
        assert errors[0] == errors[1]
        b, kind, exc = errors[0]
        assert b == (0 if case == "delta" else 1)
        message = str(exc) if case == "delta" else f"list {b}: {exc}"
        # padding of NaN, which the mask hides
        scores, mask = packed([np.array(values, dtype=float) for values in lists], fill=np.nan)
        with pytest.raises(kind, match=re.escape(message) + "$"):
            certificates(scores, ks, delta, mask)

    def test_unmasked_batch_names_the_first_bad_list(self):
        scores = np.array([[3.0, 1.0, 2.0], [2.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        with pytest.raises(CertificateError, match=re.escape("list 1: certificate undefined: strict mode "
                                                             "requires pairwise distinct scores (ties present)")):
            certificates(scores, 2, 0.1)
        with pytest.raises(CertificateError, match=re.escape("list 0: k=4 out of range [2, 3]")):
            certificates(scores, [4, 2, 2], 0.1)

    def test_badly_shaped_arguments_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            certificates([3.0, 1.0], 2, 0.1)
        with pytest.raises(ValueError, match="mask"):
            certificates([[3.0, 1.0]], 2, 0.1, mask=[True, True])
        with pytest.raises(ValueError, match="one value per list"):
            certificates([[3.0, 1.0], [2.0, 1.0]], [2, 2, 2], 0.1)

    def test_an_empty_batch_has_no_certificate(self):
        assert certificates(np.empty((0, 5)), 2, 0.1) == []
        assert certificates(np.empty((0, 0)), [], 0.1, mask=np.empty((0, 0), dtype=bool)) == []


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


BAD_ALPHAS = [float("nan"), float("inf"), float("-inf")]


class TestBadAlpha:
    """A NaN or infinite alpha is refused, naming it, before any recursion."""

    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_epsilon_alpha(self, alpha):
        cert = certificate([4.0, 2.0, 1.0], k=2, delta=0.1)
        with pytest.raises(ValueError, match=f"^alpha must be positive and finite, got {alpha}$"):
            epsilon_alpha(cert, alpha)

    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_one_list_checks(self, alpha, monkeypatch):
        calls = count_calls(monkeypatch, (bounds_lab, "smooth_indicators"))
        message = f"^alpha must be positive and finite, got {alpha}$"
        with pytest.raises(ValueError, match=message) as info:
            verify_indicator_bound([4.0, 2.0, 1.0], 2, alpha, 0.1)
        assert not isinstance(info.value, ThresholdNotMetError)
        with pytest.raises(ValueError, match=message):
            verify_metric_bounds([1.0, 0.0, 1.0], [4.0, 2.0, 1.0], 2, alpha, 0.1)
        with pytest.raises(ValueError, match=message):
            verify_corollary([1.0, 1.0], [1.0, 0.0, 1.0], "identity", [4.0, 2.0, 1.0], 2, alpha, 0.1)
        assert calls == {"smooth_indicators": 0}

    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_batch_names_the_list(self, alpha, monkeypatch):
        lists = [[4.0, 2.0, 1.0], [5.0, 3.0, 1.0], [6.0, 1.0, 0.5]]
        certs = [certificate(scores, 2, 0.1) for scores in lists]
        alphas = [2.0 * cert.alpha_threshold for cert in certs]
        alphas[1] = alpha
        calls = count_calls(monkeypatch, (bounds_lab, "smooth_indicators"))
        with pytest.raises(ValueError, match=f"^list 1: alpha must be positive and finite, got {alpha}$") as info:
            verify_indicator_bounds(lists, alphas, certs)
        assert not isinstance(info.value, ThresholdNotMetError)
        assert calls == {"smooth_indicators": 0}


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
        with pytest.raises(ThresholdNotMetError, match="^alpha=5.0 does not exceed the certificate threshold 9.21"):
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

    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_equal_to_the_one_list_oracle_on_certifys_config(self, seed):
        rng = np.random.default_rng(seed + 100)
        for k, scores in drawn_lists(seed):
            alpha = float(rng.uniform(1.01, 4.0)) * certificate(scores, k, 0.1).alpha_threshold
            assert report_text(verify_indicator_bound(scores, k, alpha, 0.1)) == report_text(
                indicator_bound_one_list(scores, k, alpha, 0.1))


class TestIndicatorBounds:
    def test_reports_equal_the_one_list_checks(self, monkeypatch):
        """Mixed (n, K) groups, split into chunks of at most 40 row elements,
        each report equal to verify_indicator_bound's."""
        monkeypatch.setattr(smoothi, "CHUNK_ELEMENTS", 40)
        calls = count_calls(monkeypatch, (bounds_lab, "smooth_indicators"))
        lists = drawn_lists(5, instances=150, n_range=(2, 12), k_values=(2, 3, 5, 10))
        rng = np.random.default_rng(5)
        ks = [k for k, _ in lists]
        scores = [s for _, s in lists]
        scores_batch, mask = packed(scores)
        certs = certificates(scores_batch, ks, 0.1, mask)
        alphas = [float(rng.uniform(1.01, 4.0)) * cert.alpha_threshold for cert in certs]
        got = verify_indicator_bounds(scores, alphas, certs)
        assert calls["smooth_indicators"] > len({(len(s), k) for s, k in zip(scores, ks)})
        want = [report_text(indicator_bound_one_list(s, k, alpha, 0.1)) for s, k, alpha in zip(scores, ks, alphas)]
        assert [report_text(r) for r in got] == want
        assert [report_text(verify_indicator_bound(s, k, alpha, 0.1))
                for s, k, alpha in zip(scores, ks, alphas)] == want
        assert all(report.holds for report in got)

    def test_top_k_error_reads_every_top_column(self):
        """Ranks 2 and 3 are close and rank 1 far ahead, so the top-2 error
        sits in the column of rank 2; rank 1's column reads 0."""
        scores = np.array([1.9, 10.0, 2.0])
        cert = certificate(scores, 2, 0.1)
        alpha = 1.5 * cert.alpha_threshold
        (got,) = verify_indicator_bounds([scores], [alpha], [cert])
        assert report_text(got) == report_text(indicator_bound_one_list(scores, 2, alpha, 0.1))
        assert got.max_indicator_err_topk > 0.0

    def test_first_list_below_its_threshold_raises_before_any_recursion(self, monkeypatch):
        lists = drawn_lists(6, instances=6)
        ks = [k for k, _ in lists]
        scores = [s for _, s in lists]
        certs = [certificate(s, k, 0.1) for k, s in lists]
        alphas = [2.0 * cert.alpha_threshold for cert in certs]
        alphas[2] = certs[2].alpha_threshold  # at the threshold: not claimed
        alphas[4] = 0.5 * certs[4].alpha_threshold
        with pytest.raises(ThresholdNotMetError) as want:
            verify_indicator_bound(scores[2], ks[2], alphas[2], 0.1)
        calls = count_calls(monkeypatch, (bounds_lab, "smooth_indicators"))
        with pytest.raises(ThresholdNotMetError, match=re.escape(f"list 2: {want.value}") + "$"):
            verify_indicator_bounds(scores, alphas, certs)
        assert calls == {"smooth_indicators": 0}

    def test_certificates_must_match_the_lists(self):
        cert = certificate([4.0, 2.0, 1.0], 2, 0.1)
        with pytest.raises(ValueError, match="differ in length"):
            verify_indicator_bounds([[4.0, 2.0, 1.0]], [20.0, 20.0], [cert])

    def test_each_list_checked_at_its_certificates_delta(self, monkeypatch):
        """Lists of one (n, K) certified at two deltas: one recursion per
        delta, each report equal to the oracle's at its own delta."""
        calls = count_calls(monkeypatch, (bounds_lab, "smooth_indicators"))
        rng = np.random.default_rng(8)
        scores = [random_strict_scores(rng, 6) for _ in range(20)]
        deltas = [0.1, 0.3] * 10
        certs = [certificate(s, 3, delta) for s, delta in zip(scores, deltas)]
        alphas = [float(rng.uniform(1.01, 4.0)) * cert.alpha_threshold for cert in certs]
        got = verify_indicator_bounds(scores, alphas, certs)
        assert calls == {"smooth_indicators": 2}
        assert [report_text(r) for r in got] == [
            report_text(indicator_bound_one_list(s, 3, alpha, delta))
            for s, alpha, delta in zip(scores, alphas, deltas)
        ]


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

    def test_a_non_integer_k_is_refused_before_the_weights(self):
        """The weights' lengths are checked against a certified K, so a K
        that is not an integer gets the other bound checks' error."""
        with pytest.raises(CertificateError, match=r"^k must be an integer, got 2\.5$"):
            verify_corollary([1.0, 1.0], [1.0, 0.0, 0.0, 1.0], "identity", [4.0, 1.0, 3.0, 2.0], 2.5, 1e4)

    def test_unknown_gain_rejected(self):
        with pytest.raises(ValueError, match="g must be"):
            verify_corollary([1.0, 1.0], [1.0, 0.0, 1.0], "square", [4.0, 2.0, 1.0], 2, 25.0, 0.1)


class TestBoundSweep:
    @pytest.mark.parametrize("gap_range", [(0.05, 1.0), (1e-6, 1e-2)])
    def test_random_strict_scores_keep_the_bits_of_the_literal_formula(self, gap_range):
        """The base plus the cumulative gaps written as one expression, with
        the same RNG calls in the same order: equal bits, equal RNG state."""
        got_rng, want_rng = np.random.default_rng(21), np.random.default_rng(21)
        for n in range(1, 41):
            got = random_strict_scores(got_rng, n, gap_range=gap_range)
            base = want_rng.uniform(0.5, 2.0)
            gaps = want_rng.uniform(*gap_range, size=n - 1) if n > 1 else np.empty(0)
            want = base + np.concatenate([[0.0], np.cumsum(gaps)])
            want_rng.shuffle(want)
            assert got.tobytes() == want.tobytes(), n
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

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
        monkeypatch.setattr(smoothi, "CHUNK_ELEMENTS", 60)
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
        calls = count_calls(monkeypatch, (bounds_lab, "certificate"), (bounds_lab, "certificates"),
                            (bounds_lab, "smooth_indicators"))
        with pytest.raises(ValueError) as got:
            bound_sweep(*args)
        assert str(got.value) == str(want.value) == "no usable k in (3,) for n=2"
        assert calls == {"certificate": 0, "certificates": 0, "smooth_indicators": 0}

    def test_one_recursion_per_group(self, monkeypatch):
        """Certify's config, with explicit alphas that skip some rows: one
        batched certificate call for all instances, one recursion per (n, K)
        group with a checked row, no per-list certificate or bound check."""
        calls = count_calls(monkeypatch, (bounds_lab, "certificate"), (bounds_lab, "certificates"),
                            (bounds_lab, "smooth_indicators"), (bounds_lab, "verify_indicator_bound"),
                            (bounds_lab, "verify_indicator_bounds"))
        rows, summary = bound_sweep(600, (4, 10), (2, 3, 5), 0.1, 1, (0.5, 5.0, 50.0, 500.0))
        groups = {(row["n"], row["k"]) for row in rows if row["status"] == "checked"}
        assert 0 < summary["skipped"] and 0 < summary["checked"]
        assert calls == {"certificate": 0, "certificates": 1, "smooth_indicators": len(groups),
                         "verify_indicator_bound": 0, "verify_indicator_bounds": 1}
