"""Independent reference implementations used as test oracles.

Everything here evaluates the defining formulas literally: explicit sorting,
plain Python loops, no code shared with the package under test.
Transcendentals call numpy's scalar functions so that exact-equality
comparisons against the vectorized implementations are meaningful.

The exceptions are ``query_metrics``, the one-query metric path that
``evaluate`` ran per query before it worked on whole splits: it builds on
``rank_core``'s one-list functions and is the oracle the split evaluation
must equal bit for bit; ``scorer_training_pass``, the scorer's
training-mode forward and backward written with the unfused batch-norm
formulas ``bn_forward`` and ``bn_backward``, which the scorer meets to a
stated bound; ``scorer_covariance_pass``, the same pass with the hidden batch
statistics taken from the input covariance, step by step, whose scores and
running statistics the scorer must equal bit for bit (both oracles score with
the scorer's own per-row ``einsum`` head); ``folded_eval_scores``, the eval
forward's folded formula on the scorer's own slice height, which eval-mode scores must equal bit for bit;
``finite_difference_loop``, the float64 finite-difference check as
``gradients.finite_difference_check`` ran it before it was batched: one
loss evaluation per perturbation, rebuilding the softmax rows one by one on
the package's own preparation, shift and metric. Its analytic gradient must
equal the batched check's bit for bit; its central differences, which the
complex-step check no longer uses, are an independent estimate of the
numeric gradient where the exact dual-number oracle of
``test_gradients_dual`` does not reach (AP's list cap, long lists);
``gradcheck_rows_one_by_one``, the ``gradcheck`` command as
``cli.cmd_gradcheck`` ran it before it checked each (kind, mode) of all its
instances in one grouped call: each instance drawn just before its checks,
and one ``finite_difference_check`` per instance, kind and mode, in that
order. The command's ``gradcheck.csv`` must equal its lines byte for byte;
``svmlight_per_line``, the SVMlight reader as ``parse_svmlight`` was before
it read dense files with ``np.loadtxt``: ``data_io._parse_line`` per line
and a scatter per feature value; and ``metric_bounds_three_pass``, the
metric-bound check as ``bounds_lab.verify_metric_bounds`` ran it before it
shared one recursion at K=N: three ``smooth_metric`` calls, each with its own
preparation and recursion, and both certificate thresholds checked; and
``bound_sweep_per_list``, the verify-bounds sweep as ``bounds_lab.bound_sweep``
ran it before it grouped its rows by (n, K): one certificate per instance
and one indicator-bound check per checked row, in instance order, each by
the one-list oracles below;
``certificate_one_list`` and ``indicator_bound_one_list``, the certificate and
the indicator-bound check of one list as they ran before lists were
certified and checked in batches: a validation, a descending sort and the
scalar certificate arithmetic, then the list's own recursion against its
hard indicator matrix; and
``rectangular_smooth_indicators`` and ``rectangular_loss_and_gradient``, the
recursion and the batched loss as they ran before the staircase: every rank
step over the whole batch, up to its longest cutoff, and the full-mode
backward over every rank of every list. The loss oracle takes a batch one
list at a time, each a one-list batch at the batch's padded width, through
the package's preparation, shift, metric and upstream coefficients.
"""

import math
from pathlib import Path

import numpy as np

from smoothrank import data_io
from smoothrank.bounds_lab import (
    METRIC_ROUNDING_SLACK,
    BoundCertificate,
    BoundReport,
    CertificateError,
    MetricBoundReport,
    ThresholdNotMetError,
    certificate,
    epsilon_alpha,
    random_strict_scores,
)
from smoothrank.gradients import (
    REL_ERR_FLOOR,
    GradientReport,
    _upstream_coeffs,
    finite_difference_check,
    loss_and_gradient,
)
from smoothrank.ltr_model import eval_slice_shape
from smoothrank.rank_core import (
    UndefinedMetricError,
    as_relevance,
    as_scores,
    average_precision,
    hard_indicator_matrix,
    ideal_dcg_at_k,
    ndcg_at_k,
    precision_at_k,
    rank_permutation,
)
from smoothrank.smooth_metrics import (
    SMOOTH_AP,
    SMOOTH_NDCG_AT_K,
    SMOOTH_P_AT_K,
    STOP_GRADIENT,
    LossSpec,
    _prepare,
    _shift,
    make_loss_spec,
    metric_from_weighted_sums,
    shift_scores,
    smooth_metric,
)
from smoothrank.smoothi import SmoothIndicatorMatrix, SmoothIParams, smooth_indicators, stable_softmax


def descending_order(scores):
    """Stable descending sort order, ties broken by original index."""
    return sorted(range(len(scores)), key=lambda j: (-scores[j], j))


def brute_precision_at_k(rel, scores, k):
    order = descending_order(scores)
    hits = 0.0
    for r in range(k):
        hits += rel[order[r]]
    return hits / k


def brute_average_precision(rel, scores):
    order = descending_order(scores)
    hits = 0.0
    terms = []
    for rank, j in enumerate(order, start=1):
        hits += rel[j]
        if rel[j]:
            terms.append(hits / rank)
    # exactly-rounded sums keep the comparison independent of term order
    return math.fsum(terms) / sum(rel)


def _dcg(grades_in_rank_order):
    return math.fsum(
        (float(np.exp2(g)) - 1.0) / float(np.log2(r + 1))
        for r, g in enumerate(grades_in_rank_order, start=1)
    )


def brute_ndcg_at_k(rel, scores, k):
    order = descending_order(scores)
    dcg = _dcg([rel[j] for j in order[:k]])
    ideal = _dcg(sorted(rel, reverse=True)[:k])
    return dcg / ideal


def naive_smooth_rows(scores, alpha, delta, k):
    """Literal recursive evaluation: plain softmax, no stabilization."""
    n = len(scores)
    rows = []
    prefix = [1.0] * n
    for _ in range(k):
        logits = [alpha * scores[j] * prefix[j] for j in range(n)]
        exps = [float(np.exp(x)) for x in logits]
        z = sum(exps)
        row = [e / z for e in exps]
        rows.append(row)
        prefix = [prefix[j] * (1.0 - row[j] - delta) for j in range(n)]
    return np.array(rows)


def naive_smooth_metric(rel, scores, kind, k, alpha, delta):
    """Smooth metric evaluated directly from the naive rows."""
    n = len(scores)
    if kind == "p@k":
        rows = naive_smooth_rows(scores, alpha, delta, k)
        return sum(
            sum(rel[j] * rows[r][j] for j in range(n)) for r in range(k)
        ) / k
    if kind == "ap":
        rows = naive_smooth_rows(scores, alpha, delta, n)
        u = [sum(rel[j] * rows[r][j] for j in range(n)) for r in range(n)]
        total = 0.0
        for kk in range(1, n + 1):
            p_kk = sum(u[:kk]) / kk
            total += u[kk - 1] * p_kk
        return total / sum(rel)
    if kind == "ndcg@k":
        rows = naive_smooth_rows(scores, alpha, delta, k)
        u = [sum(rel[j] * rows[r][j] for j in range(n)) for r in range(k)]
        dcg = sum(
            (float(np.exp2(u[r])) - 1.0) / float(np.log2(r + 2)) for r in range(k)
        )
        ideal = _dcg(sorted(rel, reverse=True)[:k])
        return dcg / ideal
    raise ValueError(kind)


def random_ranking_instance(rng, n_max=10, k_max=5):
    """Raw scores, mixed binary relevance, and a cutoff, as one draw.

    Scores are uniform on (0, 1); relevance keeps at least one relevant and
    one irrelevant document (an all-relevant list has a constant loss);
    alpha is drawn log-uniformly over [0.1, 10], matching the log-spaced
    hyperparameter grid.
    """
    n = int(rng.integers(2, n_max + 1))
    raw = rng.random(n)
    rel = (rng.random(n) < 0.4).astype(float)
    if rel.sum() == 0:
        rel[int(rng.integers(n))] = 1.0
    if rel.sum() == n:
        rel[int(rng.integers(n))] = 0.0
    k = int(rng.integers(1, min(k_max, n) + 1))
    alpha = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    return raw, rel, k, alpha


def query_metrics(rel: np.ndarray, scores: np.ndarray, cutoffs) -> dict[str, float]:
    n = scores.size
    binary = (rel >= 1.0).astype(np.float64)
    perm = rank_permutation(scores)
    out: dict[str, float] = {}
    for c in cutoffs:
        # TREC-style: documents past the end of the list count as non-relevant
        out[f"p@{c}"] = float(binary[perm[: min(c, n)]].sum() / c)
    for c in cutoffs:
        k = min(c, n)
        ideal = ideal_dcg_at_k(rel, k)
        gains = np.exp2(rel[perm[:k]]) - 1.0
        dcg = math.fsum(gains / np.log2(np.arange(2.0, k + 2.0)))
        out[f"ndcg@{c}"] = dcg / ideal if ideal > 0 else 0.0
    ideal_full = ideal_dcg_at_k(rel, n)
    gains = np.exp2(rel[perm]) - 1.0
    out["ndcg"] = math.fsum(gains / np.log2(np.arange(2.0, n + 2.0))) / ideal_full
    try:
        out["map"] = average_precision(binary, scores)
    except UndefinedMetricError:
        out["map"] = 0.0
    return out


def bn_forward(x, gamma, beta, mean, var, eps):
    """Batch norm with the given statistics: ``(gamma * xhat + beta, xhat, inv_std)``."""
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    return gamma * xhat + beta, xhat, inv_std


def bn_backward(dout, xhat, inv_std, gamma):
    """Backward through batch norm with batch statistics (training mode):
    ``(dx, dgamma, dbeta)``."""
    m = dout.shape[0]
    dgamma = (dout * xhat).sum(axis=0)
    dbeta = dout.sum(axis=0)
    dxhat = dout * gamma
    dx = (inv_std / m) * (m * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    return dx, dgamma, dbeta


def score_head(h, scorer):
    """One dot product per row of hidden activations, as the scorer's head."""
    return np.einsum("ij,j->i", h, scorer.w2) + scorer.b2[0]


def unfused_eval_scores(scorer, x, b1=0.0, bn1_beta=0.0):
    """Eval-mode scores with each batch norm applied as ``bn_forward`` states
    it. ``b1`` and ``bn1_beta`` are the first layer's bias and the input
    batch norm's shift, which version 1 checkpoints held."""
    s = scorer
    a1, _, _ = bn_forward(x, s.bn1_gamma, bn1_beta, s.bn1_mean, s.bn1_var, s.bn_eps)
    z2, _, _ = bn_forward(a1 @ s.w1 + b1, s.bn2_gamma, s.bn2_beta, s.bn2_mean, s.bn2_var, s.bn_eps)
    return score_head(np.maximum(z2, 0.0), s)


def folded_eval_scores(scorer, x):
    """Eval-mode scores ``relu(x @ W + b) . w2 + b2`` with both batch norms
    folded into ``W`` and ``b``, each product of ``eval_slice_shape``: slices
    of ``x`` padded with zero rows, ``W`` with zero columns."""
    s = scorer
    s1 = s.bn1_gamma / np.sqrt(s.bn1_var + s.bn_eps)
    s2 = s.bn2_gamma / np.sqrt(s.bn2_var + s.bn_eps)
    rows, cols = eval_slice_shape(s.hidden_dim)
    w = np.hstack([s1[:, None] * s.w1 * s2, np.zeros((s.input_dim, cols - s.hidden_dim))])
    b = s.bn2_beta - (s.bn2_mean + (s.bn1_mean * s1) @ s.w1) * s2
    out = []
    for start in range(0, len(x), rows):
        part = x[start : start + rows]
        padded = np.vstack([part, np.zeros((rows - len(part), x.shape[1]))])
        h = (padded @ w)[:, : s.hidden_dim] + b
        out.append(score_head(np.maximum(h, 0.0), s)[: len(part)])
    return np.concatenate(out)


def scorer_training_pass(scorer, x, dscores):
    """A training-mode forward pass of ``scorer`` on ``x`` and the backward
    pass of ``dscores``, step by step: batch statistics from ``mean`` and
    ``var``, the full ``outer(dscores, w2)`` upstream gradient and both batch
    norms' complete backward. Returns the scores, the running statistics the
    pass leaves and the parameter gradients; ``scorer`` is not changed."""
    s, keep = scorer, scorer.bn_momentum
    mu1, var1 = x.mean(axis=0), x.var(axis=0)
    a1, xhat1, inv1 = bn_forward(x, s.bn1_gamma, 0.0, mu1, var1, s.bn_eps)
    pre = a1 @ s.w1
    mu2, var2 = pre.mean(axis=0), pre.var(axis=0)
    z2, xhat2, inv2 = bn_forward(pre, s.bn2_gamma, s.bn2_beta, mu2, var2, s.bn_eps)
    h = np.maximum(z2, 0.0)
    scores = score_head(h, s)
    running = {
        "bn1_mean": keep * s.bn1_mean + (1 - keep) * mu1,
        "bn1_var": keep * s.bn1_var + (1 - keep) * var1,
        "bn2_mean": keep * s.bn2_mean + (1 - keep) * mu2,
        "bn2_var": keep * s.bn2_var + (1 - keep) * var2,
    }
    dz2 = np.outer(dscores, s.w2) * (z2 > 0.0)
    dpre, dg2, dbt2 = bn_backward(dz2, xhat2, inv2, s.bn2_gamma)
    da1 = dpre @ s.w1.T
    _, dg1, _ = bn_backward(da1, xhat1, inv1, s.bn1_gamma)
    grads = {
        "w1": a1.T @ dpre,
        "w2": h.T @ dscores,
        "b2": np.array([dscores.sum()]),
        "bn1_gamma": dg1,
        "bn2_gamma": dg2,
        "bn2_beta": dbt2,
    }
    return scores, running, grads


def scorer_covariance_pass(scorer, x, dscores):
    """``scorer_training_pass`` with the hidden batch norm folded into the
    first layer. With ``a = gamma1 * xhat1``, its mean ``abar`` and covariance
    ``C``, the pre-activations ``a @ w1`` have mean ``abar @ w1`` and variance
    ``diag(w1' C w1)``, clamped at 0; ``h = relu(a @ (w1 * s) + beta2 - mu2 *
    s)`` with ``s = gamma2 / sqrt(var2 + eps)``. Backward builds ``P = 1[h >
    0] * dscores``, ``gx = xhat1' P``, ``G = gamma1 * gx`` (``a' P``) and
    ``colsum(P)``; every later step is a d x H formula, using ``a' xhat2 = m
    C w1 inv2`` for ``w1`` and ``xhat1' xhat2 = xhat1' (a - abar) w1 inv2``
    for ``gamma1``. Same returns as ``scorer_training_pass``."""
    s, keep, m = scorer, scorer.bn_momentum, len(x)
    mu1, var1 = x.mean(axis=0), x.var(axis=0)
    xhat1 = (x - mu1) * (1.0 / np.sqrt(var1 + s.bn_eps))
    a = s.bn1_gamma * xhat1
    abar = a.mean(axis=0)
    centered = a - abar
    cov = centered.T @ centered / m
    cov_w1 = cov @ s.w1
    mu2 = abar @ s.w1
    var2 = np.maximum(np.einsum("kj,kj->j", s.w1, cov_w1), 0.0)
    inv2 = 1.0 / np.sqrt(var2 + s.bn_eps)
    col = s.bn2_gamma * inv2
    # the bias enters the product as a row of the weights, met by a column of ones
    folded = np.vstack([s.w1 * col, s.bn2_beta - mu2 * col])
    h = np.maximum(np.hstack([a, np.ones((m, 1))]) @ folded, 0.0)
    scores = score_head(h, s)
    running = {
        "bn1_mean": keep * s.bn1_mean + (1 - keep) * mu1,
        "bn1_var": keep * s.bn1_var + (1 - keep) * var1,
        "bn2_mean": keep * s.bn2_mean + (1 - keep) * mu2,
        "bn2_var": keep * s.bn2_var + (1 - keep) * var2,
    }
    p = (h > 0.0) * dscores[:, None]
    gx = xhat1.T @ p
    big_g = s.bn1_gamma[:, None] * gx
    cs = p.sum(axis=0)
    dbt2 = s.w2 * cs
    dg2 = s.w2 * inv2 * ((s.w1 * big_g).sum(axis=0) - cs * mu2)
    dw1 = col * (big_g * s.w2 - np.outer(abar, dbt2) - cov_w1 * inv2 * dg2)
    xhat1_xhat2 = (xhat1.T @ centered) @ s.w1 * inv2
    dz_xhat1 = col * (gx * s.w2 - np.outer(xhat1.sum(axis=0), dbt2) / m - xhat1_xhat2 * dg2 / m)
    grads = {
        "w1": dw1,
        "w2": h.T @ dscores,
        "b2": np.array([dscores.sum()]),
        "bn1_gamma": (s.w1 * dz_xhat1).sum(axis=1),
        "bn2_gamma": dg2,
        "bn2_beta": dbt2,
    }
    return scores, running, grads


def finite_difference_loop(rel, raw_scores, spec: LossSpec, h: float = 1e-4) -> GradientReport:
    """Central differences of the mode-consistent loss, one float64 loss
    evaluation per perturbation, versus the analytic gradient."""
    raw = as_scores(raw_scores)
    analytic = loss_and_gradient(rel, raw, spec)[1]

    base = shift_scores(raw, spec.shift_margin)
    lists = _prepare(rel, base, spec)
    k = int(lists.k[0])
    if spec.grad_mode == STOP_GRADIENT:
        frozen = smooth_indicators(lists.scores[0], spec.params, k=k).prefix_products
    else:
        frozen = None

    def loss_at(shifted: np.ndarray) -> float:
        sub = shifted if lists.keep is None else shifted[lists.keep[0]]
        if frozen is not None:
            rows = np.empty_like(frozen)
            for r in range(k):
                rows[r] = stable_softmax(spec.params.alpha * sub * frozen[r])
        else:
            rows = smooth_indicators(sub, spec.params, k=k).rows
        u = rows @ lists.rel[0]
        return 1.0 - metric_from_weighted_sums(u, spec.kind, k, lists.rel_total[0], lists.ideal[0])

    numeric = np.empty(raw.size)
    for j in range(raw.size):
        step = np.zeros(raw.size)
        step[j] = h
        numeric[j] = (loss_at(base + step) - loss_at(base - step)) / (2.0 * h)

    max_abs_err = float(np.abs(analytic - numeric).max())
    denom = max(float(np.abs(analytic).max()), float(np.abs(numeric).max()), REL_ERR_FLOOR)
    return GradientReport(
        analytic=analytic,
        numeric=numeric,
        max_abs_err=max_abs_err,
        max_rel_err=max_abs_err / denom,
        step_h=h,
    )


def gradcheck_rows_one_by_one(settings) -> list[str]:
    """The lines of ``gradcheck.csv`` for a ``cli.GradcheckSettings``, header
    first, one ``finite_difference_check`` at a time."""
    rng = np.random.default_rng(settings.seed)
    lines = ["instance,kind,mode,n,k,alpha,max_abs_err,max_rel_err,pass"]
    for i in range(settings.instances):
        n = int(rng.integers(settings.min_docs, settings.max_docs + 1))
        raw = rng.random(n)
        rel = (rng.random(n) < 0.4).astype(float)
        if rel.sum() == 0:
            rel[int(rng.integers(n))] = 1.0
        if rel.sum() == n and n > 1:
            rel[int(rng.integers(n))] = 0.0
        k = int(rng.integers(1, min(settings.max_cutoff, n) + 1))
        alpha = float(np.exp(rng.uniform(np.log(0.1), np.log(settings.alpha_max))))
        for kind in settings.loss_kinds:
            for mode in settings.grad_modes:
                spec = make_loss_spec(kind, k=None if kind == SMOOTH_AP else k,
                                      alpha=alpha, delta=settings.delta, grad_mode=mode)
                report = finite_difference_check(rel, raw, spec, h=settings.step_h)
                passed = "true" if report.max_rel_err <= settings.tolerance else "false"
                lines.append(f"{i},{kind},{mode},{n},{0 if kind == SMOOTH_AP else k},{alpha!r},"
                             f"{report.max_abs_err!r},{report.max_rel_err!r},{passed}")
    return lines


def metric_bounds_three_pass(rel, scores, k: int, alpha: float, delta: float = 0.1) -> MetricBoundReport:
    """Check the three metric-level bounds on one instance with binary grades.

    P@K and NDCG@K use the error radius certified at K; AP walks every rank,
    so its radius is certified at K=N. The bounds are m*eps for P@K (m =
    number of relevant documents), 2N*(eps + eps^2) for AP, and N*eps for
    NDCG@K. alpha must clear both certificate thresholds.
    """
    arr = as_scores(scores)  # certificate() below rejects ties and non-positive scores
    n = arr.size
    rel = as_relevance(rel, n, binary=True)
    if rel.sum() == 0.0:
        raise ValueError("metric bounds need at least one relevant document")
    cert_k = certificate(arr, k, delta)
    cert_n = certificate(arr, n, delta)
    needed = max(cert_k.alpha_threshold, cert_n.alpha_threshold)
    if alpha <= needed:
        raise ThresholdNotMetError(
            f"alpha={alpha} does not exceed the certificate thresholds "
            f"(K={k}: {cert_k.alpha_threshold:.6g}, N={n}: {cert_n.alpha_threshold:.6g})"
        )
    eps_k = epsilon_alpha(cert_k, alpha)
    eps_n = epsilon_alpha(cert_n, alpha)
    params = SmoothIParams(alpha=alpha, delta=delta)

    p_diff = abs(
        precision_at_k(rel, arr, k)
        - smooth_metric(rel, arr, LossSpec(kind=SMOOTH_P_AT_K, params=params, k=k))
    )
    p_bound = float(rel.sum()) * eps_k
    ap_diff = abs(
        average_precision(rel, arr)
        - smooth_metric(rel, arr, LossSpec(kind=SMOOTH_AP, params=params))
    )
    ap_bound = 2.0 * n * (eps_n + eps_n**2)
    ndcg_diff = abs(
        ndcg_at_k(rel, arr, k)
        - smooth_metric(rel, arr, LossSpec(kind=SMOOTH_NDCG_AT_K, params=params, k=k))
    )
    ndcg_bound = n * eps_k
    return MetricBoundReport(
        precision_diff=float(p_diff),
        precision_bound=p_bound,
        precision_holds=p_diff <= p_bound + METRIC_ROUNDING_SLACK,
        ap_diff=float(ap_diff),
        ap_bound=ap_bound,
        ap_holds=ap_diff <= ap_bound + METRIC_ROUNDING_SLACK,
        ndcg_diff=float(ndcg_diff),
        ndcg_bound=ndcg_bound,
        ndcg_holds=ndcg_diff <= ndcg_bound + METRIC_ROUNDING_SLACK,
        epsilon_at_k=eps_k,
        epsilon_at_n=eps_n,
    )


def certificate_one_list(scores, k: int, delta: float) -> BoundCertificate:
    """The certificate of one list: delta, then the scores (finite, strictly
    positive, no equal neighbours in the descending sort), then K; beta is
    the smallest ratio of sorted neighbours, and the rest is scalar Python."""
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 0.5), got {delta}")
    try:
        arr = as_scores(scores)
    except ValueError as exc:
        raise CertificateError(f"certificate undefined: {exc}") from exc
    if np.any(arr <= 0.0):
        raise CertificateError("certificate undefined: strict mode requires strictly positive scores")
    ordered = np.sort(arr)[::-1]
    if np.any(ordered[1:] == ordered[:-1]):
        raise CertificateError(
            "certificate undefined: strict mode requires pairwise distinct scores (ties present)"
        )
    if k == 1:
        raise CertificateError("certificate undefined for K=1 (exponent 1/(K-1))")
    if not 2 <= k <= ordered.size:
        raise CertificateError(f"k={k} out of range [2, {ordered.size}]")
    beta = float((ordered[:-1] / ordered[1:]).min())
    s_min = float(ordered[-1])
    c = ((beta + 1.0) / 2.0) ** (1.0 / (k - 1))
    gamma = min(delta, 0.5 - delta, (1.0 - delta) * (c - 1.0) / (c + 1.0))
    threshold = 2.0 ** (k - 1) * (math.log(k - 1) - math.log(gamma)) / (s_min * min(1.0, (beta - 1.0) / 2.0))
    return BoundCertificate(beta=beta, s_min=s_min, c=c, gamma=gamma, alpha_threshold=threshold, k=k, delta=delta)


def indicator_bound_one_list(scores, k: int, alpha: float, delta: float) -> BoundReport:
    """The indicator-bound check of one list above its threshold: its own
    recursion at ``alpha`` against ``hard_indicator_matrix``; the top-k error
    over the columns of the hard rows' ones."""
    arr = as_scores(scores)
    cert = certificate_one_list(arr, k, delta)
    if alpha <= cert.alpha_threshold:
        raise ThresholdNotMetError(
            f"alpha={alpha} does not exceed the certificate threshold "
            f"{cert.alpha_threshold:.6g}; the bound is not certified there"
        )
    eps = epsilon_alpha(cert, alpha)
    hard = hard_indicator_matrix(arr, k)
    err = np.abs(hard - smooth_indicators(arr, SmoothIParams(alpha=alpha, delta=delta), k=k).rows)
    max_err = float(err.max())
    return BoundReport(
        alpha=alpha,
        epsilon_alpha=eps,
        max_indicator_err=max_err,
        max_indicator_err_topk=float(err[:, hard.argmax(axis=1)].max()),
        per_rank_err=err.max(axis=1),
        holds=max_err <= eps,
        certificate=cert,
    )


def bound_sweep_per_list(
    instances: int,
    n_range: tuple[int, int],
    k_values,
    delta: float,
    seed: int,
    alphas=None,
    alpha_factors=(1.05, 1.5, 3.0),
) -> tuple[list[dict], dict]:
    """Indicator-bound rows over random instances, one row per (instance, alpha),
    each instance through ``certificate_one_list`` and each checked row
    through its own ``indicator_bound_one_list`` call."""
    rng = np.random.default_rng(seed)
    rows = []
    checked = held = skipped = 0
    for idx in range(instances):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        k_choices = [k for k in k_values if 2 <= k <= n]
        if not k_choices:
            raise ValueError(f"no usable k in {k_values} for n={n}")
        k = int(k_choices[int(rng.integers(len(k_choices)))])
        scores = random_strict_scores(rng, n)
        cert = certificate_one_list(scores, k, delta)
        alpha_list = list(alphas) if alphas is not None else [
            f * cert.alpha_threshold for f in alpha_factors
        ]
        for alpha in alpha_list:
            row = {
                "instance": idx,
                "n": n,
                "k": k,
                "alpha": float(alpha),
                "delta": delta,
                "beta": cert.beta,
                "gamma": cert.gamma,
                "alpha_threshold": cert.alpha_threshold,
                "epsilon_alpha": epsilon_alpha(cert, alpha),
            }
            if alpha <= cert.alpha_threshold:
                row.update(max_err="", holds="", status="skipped_below_threshold")
                skipped += 1
            else:
                report = indicator_bound_one_list(scores, k, alpha, delta)
                row.update(
                    max_err=report.max_indicator_err,
                    holds=report.holds,
                    status="checked",
                )
                checked += 1
                held += int(report.holds)
            rows.append(row)
    return rows, {
        "instances": instances,
        "rows": len(rows),
        "checked": checked,
        "skipped": skipped,
        "violations": checked - held,
        "fraction_holding": (held / checked) if checked else 1.0,
    }


def svmlight_per_line(path) -> data_io.Dataset:
    path = Path(path)
    records: dict[str, list] = {}
    max_idx = 0
    with path.open(encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.strip():
                    continue
                rel, qid, feats, comment = data_io._parse_line(raw, lineno, path.name)
                records.setdefault(qid, []).append((rel, feats, comment))
                if feats:
                    max_idx = max(max_idx, max(feats))
        except UnicodeDecodeError as exc:
            raise data_io.ParseError(f"{path.name}: not UTF-8 text ({exc.reason})") from None
    if not records:
        raise data_io.DatasetError(f"{path.name}: empty dataset")
    groups = {}
    for qid, rows in records.items():
        features = np.zeros((len(rows), max_idx))
        relevance = np.zeros(len(rows))
        doc_ids = []
        for j, (rel, feats, comment) in enumerate(rows):
            relevance[j] = rel
            for i, v in feats.items():
                features[j, i - 1] = v
            doc_ids.append(comment if comment else f"{qid}_{j}")
        groups[qid] = data_io.QueryGroup(qid, doc_ids, features, relevance)
    return data_io.Dataset(groups=groups, feature_dim=max_idx)


def rectangular_smooth_indicators(scores, params: SmoothIParams, mask=None, k: int | None = None):
    """Rows 1..k of a batch, every rank step over every list: the recursion
    of ``smooth_indicators`` before the staircase, for an int ``k``. Complex
    scores run in complex128, each row shifted by the max of its real part."""
    arr = np.asarray(scores)
    arr = arr.astype(np.complex128 if arr.dtype.kind == "c" else np.float64)
    batch = arr.reshape(-1, arr.shape[-1])
    valid = None if mask is None else np.asarray(mask, dtype=bool).reshape(batch.shape)
    k = batch.shape[1] if k is None else k
    if valid is not None:
        batch = np.where(valid, batch, 1.0)
    scaled = params.alpha * batch
    pad = None if valid is None else np.where(valid, 0.0, -np.inf)
    rows = np.empty((batch.shape[0], k, batch.shape[1]), dtype=batch.dtype)
    prefixes = np.empty_like(rows)
    prefix = np.ones(batch.shape, dtype=batch.dtype)
    for r in range(k):
        prefixes[:, r] = prefix
        logits = scaled * prefix
        if pad is not None:
            logits += pad
        exps = np.exp(logits - logits.real.max(axis=1, keepdims=True))
        row = rows[:, r]
        np.divide(exps, exps.sum(axis=1, keepdims=True), out=row)
        prefix = prefix * (1.0 - row - params.delta)
    if arr.ndim == 1:
        rows, prefixes = rows[0], prefixes[0]
    return SmoothIndicatorMatrix(
        rows=rows, prefix_products=prefixes, scores=batch.reshape(arr.shape), params=params
    )


def _rectangular_backward(mat: SmoothIndicatorMatrix, upstream: np.ndarray, grad_mode: str) -> np.ndarray:
    rows, prefixes = mat.rows, mat.prefix_products
    alpha, delta = mat.params.alpha, mat.params.delta
    if grad_mode == STOP_GRADIENT:
        inner = (upstream * rows).sum(axis=-1, keepdims=True)
        dz = rows * (upstream - inner)
        return alpha * (prefixes * dz).sum(axis=-2)
    scores = mat.scores
    ds = np.zeros(scores.shape)
    q = np.zeros(scores.shape)
    for r in range(rows.shape[1] - 1, -1, -1):
        row, prefix = rows[:, r], prefixes[:, r]
        a = upstream[:, r] - q * prefix
        dz = row * (a - (a * row).sum(axis=1, keepdims=True))
        ds += alpha * prefix * dz
        q = alpha * scores * dz + q * (1.0 - row - delta)
    return ds


def rectangular_loss_and_gradient(rel, raw_scores, spec: LossSpec, mask):
    """``loss_and_gradient`` of a padded ``(B, N)`` batch as it ran before
    the staircase, one list at a time at the batch's padded width: every list
    recursed up to the batch's longest cutoff, its weighted sums then set to
    0 past its own."""
    prepared = [
        _prepare(rel[b:b + 1], _shift(raw_scores[b:b + 1], spec.shift_margin, mask[b:b + 1]), spec, mask[b:b + 1])
        for b in range(len(raw_scores))
    ]
    k_max = max(int(lists.k[0]) for lists in prepared)
    values, grads = [], []
    for lists in prepared:
        mat = rectangular_smooth_indicators(lists.scores, spec.params, lists.mask, k=k_max)
        u = (mat.rows @ lists.rel[:, :, None])[:, :, 0]
        u = np.where(np.arange(1, k_max + 1) <= lists.k[:, None], u, 0.0)
        value = metric_from_weighted_sums(u, spec.kind, lists.k, lists.rel_total, lists.ideal)
        coeffs = _upstream_coeffs(u, spec.kind, lists.k, lists.rel_total, lists.ideal)
        upstream = coeffs[:, :, None] * lists.rel[:, None, :]
        values.append(1.0 - lists.values(value)[0])
        grads.append(-lists.restore(_rectangular_backward(mat, upstream, spec.grad_mode))[0])
    return np.array(values), np.array(grads)
