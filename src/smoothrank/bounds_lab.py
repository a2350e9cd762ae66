"""Numerical certification of the smooth-indicator approximation error.

For strictly positive, pairwise distinct scores the indicator error at every
rank r <= K is bounded by

    eps_alpha = (K - 1) * exp(-alpha * s_min * min(1, (beta - 1) / 2) / 2**(K - 1))

once ``alpha`` clears an instance-specific threshold, where ``beta`` is the
minimal ratio between a larger and a smaller score and ``s_min`` the smallest
score. The same machinery bounds the gap between every smooth metric and its
exact counterpart, and between any Lipschitz composition of indicator rows.
This module computes the certificate quantities, checks the inequalities on
concrete instances, and exposes a sweep harness that emits one CSV-ready row
per (instance, alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rank_core import (
    as_relevance,
    as_scores,
    average_precision,
    ideal_dcg_at_k,
    ndcg_at_k,
    precision_at_k,
)
from .smooth_metrics import SMOOTH_AP, SMOOTH_NDCG_AT_K, SMOOTH_P_AT_K, metric_from_weighted_sums
from .smoothi import SmoothIParams, smooth_indicators


LN2 = float(np.log(2.0))

# Absolute slack added to each metric bound before comparing. The exact and
# smooth metrics are summed in different orders (math.fsum against .sum()),
# so even when the bound is 0 (eps_K underflows at large alpha) their gap
# can be a few ulps of 1, the metrics' scale.
METRIC_ROUNDING_SLACK = 4 * float(np.finfo(np.float64).eps)

# bound_sweep splits a (n, K) group so that one recursion holds at most this
# many row elements (8 MiB per float64 array)
SWEEP_CHUNK_ELEMENTS = 2**20


class CertificateError(ValueError):
    """No certificate exists for this instance (ties, non-positive scores, K=1)."""


class ThresholdNotMetError(ValueError):
    """alpha does not exceed the certificate threshold, so the bound is not claimed."""


@dataclass(frozen=True)
class BoundCertificate:
    """Quantities the error bound is built from, for one score list.

    ``beta``: minimal ratio of a larger over a smaller score (> 1);
    ``c = ((beta + 1) / 2)**(1 / (K - 1))``;
    ``gamma = min(delta, 0.5 - delta, (1 - delta) * (c - 1) / (c + 1))``;
    ``alpha_threshold``: smallest sharpness above which the bound is certified.
    """

    beta: float
    s_min: float
    c: float
    gamma: float
    alpha_threshold: float
    k: int
    delta: float

    @property
    def decay_rate(self) -> float:
        """Positive rate r such that eps_alpha = (K-1) * exp(-alpha * r)."""
        return self.s_min * min(1.0, (self.beta - 1.0) / 2.0) / 2.0 ** (self.k - 1)


@dataclass
class BoundReport:
    """Outcome of checking |hard - smooth| <= eps_alpha on one instance."""

    alpha: float
    epsilon_alpha: float
    max_indicator_err: float
    max_indicator_err_topk: float
    per_rank_err: np.ndarray
    holds: bool
    certificate: BoundCertificate


@dataclass
class MetricBoundReport:
    """Exact-versus-smooth gaps of the three metrics against their bounds."""

    precision_diff: float
    precision_bound: float
    precision_holds: bool
    ap_diff: float
    ap_bound: float
    ap_holds: bool
    ndcg_diff: float
    ndcg_bound: float
    ndcg_holds: bool
    epsilon_at_k: float
    epsilon_at_n: float

    @property
    def all_hold(self) -> bool:
        return self.precision_holds and self.ap_holds and self.ndcg_holds


@dataclass
class CorollaryReport:
    """Lipschitz-composition bound check: |h(hard) - h(smooth)| <= rhs."""

    lhs: float
    rhs: float
    holds: bool
    slack: float
    epsilon_alpha: float
    lipschitz: float


def _strict_descending(scores, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The scores of a certificate as float64, and their descending sort.

    Checks delta first, then that the scores are strictly positive and
    pairwise distinct: ties are equal neighbours in the sort, which the
    certificate needs anyway.
    """
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
    return arr, ordered


def _certificate(ordered: np.ndarray, k: int, delta: float) -> BoundCertificate:
    """Certificate at K from the descending sort of validated scores."""
    if k == 1:
        raise CertificateError("certificate undefined for K=1 (exponent 1/(K-1))")
    if not 2 <= k <= ordered.size:
        raise CertificateError(f"k={k} out of range [2, {ordered.size}]")
    # adjacent ratios in sorted order attain the pairwise minimum
    beta = float((ordered[:-1] / ordered[1:]).min())
    s_min = float(ordered[-1])
    c = ((beta + 1.0) / 2.0) ** (1.0 / (k - 1))
    gamma = min(delta, 0.5 - delta, (1.0 - delta) * (c - 1.0) / (c + 1.0))
    threshold = (
        2.0 ** (k - 1)
        * (math.log(k - 1) - math.log(gamma))
        / (s_min * min(1.0, (beta - 1.0) / 2.0))
    )
    return BoundCertificate(
        beta=beta, s_min=s_min, c=c, gamma=gamma, alpha_threshold=threshold, k=k, delta=delta
    )


def certificate(scores, k: int, delta: float) -> BoundCertificate:
    """Certificate for one instance; requires distinct positive scores, K >= 2.

    K=1 is refused: the exponent 1/(K-1) is undefined there, and the top row
    is a plain softmax whose convergence needs no certificate.
    """
    return _certificate(_strict_descending(scores, delta)[1], k, delta)


def epsilon_alpha(cert: BoundCertificate, alpha: float) -> float:
    """Certified error radius (K-1) * exp(-alpha * decay_rate)."""
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return (cert.k - 1) * math.exp(-alpha * cert.decay_rate)


def _certified_epsilon(cert: BoundCertificate, alpha: float) -> float:
    """eps_alpha at ``alpha``; raises ThresholdNotMetError unless alpha
    exceeds the certificate threshold."""
    if alpha <= cert.alpha_threshold:
        raise ThresholdNotMetError(
            f"alpha={alpha} does not exceed the certificate threshold "
            f"{cert.alpha_threshold:.6g}; the bound is not certified there"
        )
    return epsilon_alpha(cert, alpha)


def _indicator_rows(scores: np.ndarray, alphas: np.ndarray, k: int, delta: float):
    """Hard and smooth indicator rows 1..k, each ``(B, k, n)``, of a ``(B, n)``
    batch of validated scores, list b at sharpness ``alphas[b]``.

    One recursion serves the batch: each list's alpha is folded into its
    scores and the recursion runs at alpha = 1. It reads only alpha * score,
    and 1.0 * x == x, so every row has the bits of a one-list call at that
    list's alpha.
    """
    smooth = smooth_indicators(alphas[:, None] * scores, SmoothIParams(alpha=1.0, delta=delta), k=k).rows
    top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    hard = np.zeros_like(smooth)
    hard[np.arange(len(scores))[:, None], np.arange(k), top] = 1.0
    return hard, smooth


def _one_list_rows(scores, k: int, alpha: float, delta: float):
    """``(scores, certificate, eps_alpha, hard rows, smooth rows)`` of one
    instance, rows 1..k, above its certificate threshold."""
    arr, ordered = _strict_descending(scores, delta)
    cert = _certificate(ordered, k, delta)
    eps = _certified_epsilon(cert, alpha)
    hard, smooth = _indicator_rows(arr[None], np.array([alpha], dtype=np.float64), k, delta)
    return arr, cert, eps, hard[0], smooth[0]


def verify_indicator_bound(scores, k: int, alpha: float, delta: float = 0.1) -> BoundReport:
    """Check max_{r<=k, all j} |hard - smooth| <= eps_alpha for one instance.

    The bound is only claimed above the certificate threshold; below it this
    raises instead of reporting, naming the threshold. The top-k error is
    additionally reported over the columns of the k highest-scoring documents.
    """
    _, cert, eps, hard, smooth = _one_list_rows(scores, k, alpha, delta)
    err = np.abs(hard - smooth)
    max_err = float(err.max())
    return BoundReport(
        alpha=alpha,
        epsilon_alpha=eps,
        max_indicator_err=max_err,
        # the hard rows' ones sit in the columns of the k top documents
        max_indicator_err_topk=float(err[:, hard.argmax(axis=1)].max()),
        per_rank_err=err.max(axis=1),
        holds=max_err <= eps,
        certificate=cert,
    )


def verify_metric_bounds(rel, scores, k: int, alpha: float, delta: float = 0.1) -> MetricBoundReport:
    """Check the three metric-level bounds on one instance with binary grades.

    P@K and NDCG@K use the error radius certified at K; AP walks every rank,
    so its radius is certified at K=N. The bounds are m*eps for P@K (m =
    number of relevant documents), 2N*(eps + eps^2) for AP, and N*eps for
    NDCG@K. One recursion at K=N serves all three: rows 1..K of it are the
    K-row recursion's rows. alpha must clear N's certificate threshold, which
    is larger than K's (the threshold grows strictly with K).
    """
    arr, ordered = _strict_descending(scores, delta)
    n = arr.size
    rel = as_relevance(rel, n, binary=True)
    if rel.sum() == 0.0:
        raise ValueError("metric bounds need at least one relevant document")
    cert_k = _certificate(ordered, k, delta)
    eps_n = _certified_epsilon(_certificate(ordered, n, delta), alpha)
    eps_k = epsilon_alpha(cert_k, alpha)
    rows = smooth_indicators(arr, SmoothIParams(alpha=alpha, delta=delta), k=n).rows
    u = np.einsum("rj,j->r", rows, rel)
    p_diff = abs(
        precision_at_k(rel, arr, k) - metric_from_weighted_sums(u[:k], SMOOTH_P_AT_K, k, None, None)
    )
    p_bound = float(rel.sum()) * eps_k
    ap_diff = abs(
        average_precision(rel, arr) - metric_from_weighted_sums(u, SMOOTH_AP, n, rel.sum(), None)
    )
    ap_bound = 2.0 * n * (eps_n + eps_n**2)
    ndcg_diff = abs(
        ndcg_at_k(rel, arr, k)
        - metric_from_weighted_sums(u[:k], SMOOTH_NDCG_AT_K, k, None, ideal_dcg_at_k(rel, k))
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


GAIN_FUNCTIONS = ("identity", "exp2m1")


def verify_corollary(
    a_weights,
    b_weights,
    g: str,
    scores,
    k: int,
    alpha: float,
    delta: float = 0.1,
    domain_bound: float | None = None,
) -> CorollaryReport:
    """Check the Lipschitz-composition bound for h(M) = sum_k a_k g(sum_j b_j M_kj).

    ``g`` is "identity" (Lipschitz constant 1) or "exp2m1" (x -> 2^x - 1, with
    constant 2^G * ln 2 on [0, G]); ``domain_bound`` overrides G, which
    defaults to sum(|b|), the largest magnitude a row-stochastic combination
    can reach.
    """
    if g not in GAIN_FUNCTIONS:
        raise ValueError(f"g must be one of {GAIN_FUNCTIONS}, got {g!r}")
    a = np.asarray(a_weights, dtype=np.float64)
    b = np.asarray(b_weights, dtype=np.float64)
    if a.shape != (k,):
        raise ValueError(f"a_weights must have length k={k}, got shape {a.shape}")
    arr, _, eps, hard, smooth = _one_list_rows(scores, k, alpha, delta)
    if b.shape != (arr.size,):
        raise ValueError(f"b_weights must have length n={arr.size}, got shape {b.shape}")
    if g == "identity":
        lip = 1.0
        gain = lambda x: x
    else:
        bound = float(np.abs(b).sum()) if domain_bound is None else float(domain_bound)
        lip = 2.0**bound * LN2
        gain = lambda x: np.exp2(x) - 1.0

    lhs = abs(float(a @ gain(hard @ b)) - float(a @ gain(smooth @ b)))
    rhs = float(np.abs(a).sum() * np.abs(b).sum() * lip * eps)
    return CorollaryReport(
        lhs=lhs, rhs=rhs, holds=lhs <= rhs, slack=rhs - lhs, epsilon_alpha=eps, lipschitz=lip
    )


def random_strict_scores(rng: np.random.Generator, n: int, s_min_range=(0.5, 2.0), gap_range=(0.05, 1.0)) -> np.ndarray:
    """Strictly positive, pairwise distinct scores with a guaranteed gap.

    Built as a base value plus cumulative gaps, then shuffled, so adjacent
    sorted scores differ by at least ``gap_range[0]`` and the certificate
    threshold stays moderate.
    """
    base = rng.uniform(*s_min_range)
    gaps = rng.uniform(*gap_range, size=n - 1) if n > 1 else np.empty(0)
    scores = base + np.concatenate([[0.0], np.cumsum(gaps)])
    rng.shuffle(scores)
    return scores


def bound_sweep(
    instances: int,
    n_range: tuple[int, int],
    k_values,
    delta: float,
    seed: int,
    alphas=None,
    alpha_factors=(1.05, 1.5, 3.0),
) -> tuple[list[dict], dict]:
    """Indicator-bound rows over random instances, one row per (instance, alpha).

    With explicit ``alphas``, sub-threshold values are kept as rows marked
    ``skipped_below_threshold`` (the bound is not claimed there); otherwise
    each instance is probed at ``alpha_factors`` times its own threshold.
    Every instance is drawn first and certified once; the rows to check are
    then grouped by (n, K) and each group runs one recursion (of at most
    ``SWEEP_CHUNK_ELEMENTS`` row elements), with the same bits as one check
    per row. Rows come back in instance order. Returns (rows, summary) where
    summary carries the fraction of checked rows on which the bound held.
    """
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(instances):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        k_choices = [k for k in k_values if 2 <= k <= n]
        if not k_choices:
            raise ValueError(f"no usable k in {k_values} for n={n}")
        k = int(k_choices[int(rng.integers(len(k_choices)))])
        drawn.append((n, k, random_strict_scores(rng, n)))
    rows = []
    # rows above their threshold, by (n, K): (row, scores, alpha)
    pending: dict[tuple[int, int], list] = {}
    for idx, (n, k, scores) in enumerate(drawn):
        cert = certificate(scores, k, delta)
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
            else:
                pending.setdefault((n, k), []).append((row, scores, alpha))
            rows.append(row)
    checked = held = 0
    for (n, k), group in pending.items():
        per_call = max(1, SWEEP_CHUNK_ELEMENTS // (k * n))
        for start in range(0, len(group), per_call):
            part = group[start:start + per_call]
            hard, smooth = _indicator_rows(
                np.stack([scores for _, scores, _ in part]),
                np.array([alpha for _, _, alpha in part], dtype=np.float64),
                k,
                delta,
            )
            max_errs = np.abs(hard - smooth).max(axis=(1, 2)).tolist()
            for (row, _, _), max_err in zip(part, max_errs):
                holds = max_err <= row["epsilon_alpha"]
                row.update(max_err=max_err, holds=holds, status="checked")
                held += holds
            checked += len(part)
    skipped = len(rows) - checked
    return rows, {
        "instances": instances,
        "rows": len(rows),
        "checked": checked,
        "skipped": skipped,
        "violations": checked - held,
        "fraction_holding": (held / checked) if checked else 1.0,
    }
