"""Numerical certification of the smooth-indicator approximation error.

For strictly positive, pairwise distinct scores the indicator error at every
rank r <= K is bounded by

    eps_alpha = (K - 1) * exp(-alpha * s_min * min(1, (beta - 1) / 2) / 2**(K - 1))

once ``alpha`` clears an instance-specific threshold, where ``beta`` is the
minimal ratio between a larger and a smaller score and ``s_min`` the smallest
score. The same machinery bounds the gap between every smooth metric and its
exact counterpart, and between any Lipschitz composition of indicator rows.
This module computes the certificate quantities, for one list or a padded
batch; checks the indicator inequality on a batch of certified lists, one
list being a batch of one, and the metric and composition inequalities on
concrete instances; and exposes a sweep harness that emits one CSV-ready row
per (instance, alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rank_core import _list_metrics, as_relevance, as_scores
from .smooth_metrics import SMOOTH_AP, SMOOTH_NDCG_AT_K, SMOOTH_P_AT_K, metric_from_weighted_sums
from .smoothi import SmoothIParams, check_alpha, smooth_indicators


LN2 = float(np.log(2.0))

# Absolute slack added to each metric bound before comparing. The exact and
# smooth metrics are summed in different orders (math.fsum against .sum()),
# so even when the bound is 0 (eps_K underflows at large alpha) their gap
# can be a few ulps of 1, the metrics' scale.
METRIC_ROUNDING_SLACK = 4 * float(np.finfo(np.float64).eps)

# verify_indicator_bounds splits a (n, K, delta) group so that one recursion
# holds at most this many row elements (8 MiB per float64 array)
SWEEP_CHUNK_ELEMENTS = 2**20

# bound_sweep's default multiples of each instance's certificate threshold
ALPHA_FACTORS = (1.05, 1.5, 3.0)


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


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 0.5), got {delta}")


def _score_error(values: np.ndarray) -> CertificateError:
    """The error ``certificate`` raises for scores that fail its checks: not
    a non-empty, finite 1-d vector, then not strictly positive, then tied."""
    try:
        as_scores(values)
    except ValueError as exc:
        return CertificateError(f"certificate undefined: {exc}")
    if np.any(values <= 0.0):
        return CertificateError("certificate undefined: strict mode requires strictly positive scores")
    return CertificateError(
        "certificate undefined: strict mode requires pairwise distinct scores (ties present)"
    )


def _list_stats(arr: np.ndarray, mask: np.ndarray | None) -> list[tuple[int, float, float] | None]:
    """``(n, s_min, beta)`` of each row of a ``(B, N)`` float64 batch, over
    the cells ``mask`` marks (every cell for None), from one sort; None for
    a row that fails ``certificate``'s score checks.

    ``beta`` is the smallest ratio of adjacent sorted scores, which attains
    the pairwise minimum (inf for one score). Each value is one entry or one
    division of two, so its bits do not depend on the batch or the padding.
    A row passes exactly when ``n > 0``, ``s_min > 0``, its largest score is
    below inf and ``beta > 1``: NaN sorts last, and the ratio of two distinct
    positive floats rounds above 1.
    """
    if arr.shape[1] == 0:
        return [None] * len(arr)
    if mask is None:
        lengths = [arr.shape[1]] * len(arr)
        ordered = np.sort(arr, axis=1)
        last = ordered[:, -1]
    else:
        counts = mask.sum(axis=1)
        lengths = counts.tolist()
        # padding sorts after every finite score
        ordered = np.sort(np.where(mask, arr, np.inf), axis=1)
        last = ordered[np.arange(len(arr)), np.maximum(counts - 1, 0)]
    # a row that fails the checks may divide by 0 or inf / inf here
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = ordered[:, 1:] / ordered[:, :-1]
    if mask is None:
        beta = ratios.min(axis=1, initial=np.inf)
    else:
        pairs = np.arange(arr.shape[1] - 1) < (counts - 1)[:, None]
        beta = ratios.min(axis=1, initial=np.inf, where=pairs)
    return [
        (n, s_min, b) if n > 0 and s_min > 0.0 and s_max < math.inf and b > 1.0 else None
        for n, s_min, s_max, b in zip(lengths, ordered[:, 0].tolist(), last.tolist(), beta.tolist())
    ]


def _checked(scores, delta: float) -> tuple[np.ndarray, tuple[int, float, float]]:
    """One list's scores as float64 and their ``_list_stats``, after every
    check ``certificate`` makes before K: delta, then the scores."""
    _check_delta(delta)
    try:
        arr = as_scores(scores)
    except ValueError as exc:
        raise CertificateError(f"certificate undefined: {exc}") from exc
    (stats,) = _list_stats(arr[None], None)
    if stats is None:
        raise _score_error(arr)
    return arr, stats


def _certificate_at(stats: tuple[int, float, float], k: int, delta: float) -> BoundCertificate:
    """Certificate at K of a list from its ``_list_stats``.

    Scalar Python arithmetic over Python floats: numpy's vector ``log`` and
    ``power`` can round differently from ``math.log`` and ``**``.
    """
    n, s_min, beta = stats
    if k == 1:
        raise CertificateError("certificate undefined for K=1 (exponent 1/(K-1))")
    if not 2 <= k <= n:
        raise CertificateError(f"k={k} out of range [2, {n}]")
    c = ((beta + 1.0) / 2.0) ** (1.0 / (k - 1))
    gamma = min(delta, 0.5 - delta, (1.0 - delta) * (c - 1.0) / (c + 1.0))
    threshold = (
        2.0 ** (k - 1)
        * (math.log(k - 1) - math.log(gamma))
        / (s_min * min(1.0, (beta - 1.0) / 2.0))
    )
    return BoundCertificate(beta, s_min, c, gamma, threshold, k, delta)


def certificate(scores, k: int, delta: float) -> BoundCertificate:
    """Certificate for one instance; requires distinct positive scores, K >= 2.

    K=1 is refused: the exponent 1/(K-1) is undefined there, and the top row
    is a plain softmax whose convergence needs no certificate. This is the
    one-list case of ``certificates``, with the same bits.
    """
    return _certificate_at(_checked(scores, delta)[1], k, delta)


def certificates(scores, k, delta: float, mask=None) -> list[BoundCertificate]:
    """Certificates for a ``(B, N)`` batch of lists, each equal by ``repr`` to
    ``certificate`` of that list.

    List b's scores are ``scores[b][mask[b]]``, or the whole row for
    ``mask=None``; padded cells may hold anything. ``k`` is an int or one
    value per list. The validation, the sort, the tie check, ``beta`` and
    ``s_min`` run on the whole batch; the rest is the one-list arithmetic.
    A bad delta or a badly shaped argument raises first. Otherwise a bad list
    raises the error that ``certificate`` calls in list order would raise
    first, its message prefixed with ``list <b>: ``.
    """
    _check_delta(delta)
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"scores must be a (B, N) batch, got shape {arr.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != arr.shape:
            raise ValueError(f"mask has shape {mask.shape}, expected {arr.shape}")
    ks = np.asarray(k)
    if ks.ndim and ks.shape != (len(arr),):
        raise ValueError(f"k must be an int or one value per list ({len(arr)}), got shape {ks.shape}")
    out = []
    for b, (stats, list_k) in enumerate(zip(_list_stats(arr, mask), np.broadcast_to(ks, len(arr)).tolist())):
        try:
            if stats is None:
                raise _score_error(arr[b] if mask is None else arr[b][mask[b]])
            out.append(_certificate_at(stats, list_k, delta))
        except CertificateError as exc:
            raise CertificateError(f"list {b}: {exc}") from None
    return out


def epsilon_alpha(cert: BoundCertificate, alpha: float) -> float:
    """Certified error radius (K-1) * exp(-alpha * decay_rate); alpha must
    lie in (0, inf)."""
    check_alpha(alpha)
    return (cert.k - 1) * math.exp(-alpha * cert.decay_rate)


def _certified_epsilon(cert: BoundCertificate, alpha: float) -> float:
    """eps_alpha at ``alpha``; raises ValueError unless alpha lies in (0,
    inf), and ThresholdNotMetError unless it exceeds the certificate
    threshold."""
    check_alpha(alpha)
    if alpha <= cert.alpha_threshold:
        raise ThresholdNotMetError(
            f"alpha={alpha} does not exceed the certificate threshold "
            f"{cert.alpha_threshold:.6g}; the bound is not certified there"
        )
    return epsilon_alpha(cert, alpha)


def _indicator_rows(scores: np.ndarray, alphas: np.ndarray, k: int, delta: float):
    """The ``(B, k)`` indices of each list's k top documents, and the hard and
    smooth indicator rows 1..k, each ``(B, k, n)``, of a ``(B, n)`` batch of
    validated scores, list b at sharpness ``alphas[b]``.

    One recursion serves the batch: each list's alpha is folded into its
    scores and the recursion runs at alpha = 1. It reads only alpha * score,
    and 1.0 * x == x, so every row has the bits of a one-list call at that
    list's alpha.
    """
    smooth = smooth_indicators(alphas[:, None] * scores, SmoothIParams(alpha=1.0, delta=delta), k=k).rows
    top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    hard = np.zeros_like(smooth)
    hard[np.arange(len(scores))[:, None], np.arange(k), top] = 1.0
    return top, hard, smooth


def verify_indicator_bound(scores, k: int, alpha: float, delta: float = 0.1) -> BoundReport:
    """Check max_{r<=k, all j} |hard - smooth| <= eps_alpha for one instance.

    The bound is only claimed above the certificate threshold; below it this
    raises instead of reporting, naming the threshold. The top-k error is
    additionally reported over the columns of the k highest-scoring documents.
    This is ``verify_indicator_bounds`` on a batch of one list.
    """
    arr, stats = _checked(scores, delta)
    cert = _certificate_at(stats, k, delta)
    _certified_epsilon(cert, alpha)  # raises without the batch's "list 0: " prefix
    return verify_indicator_bounds([arr], [alpha], [cert])[0]


def verify_indicator_bounds(lists, alphas, certs) -> list[BoundReport]:
    """The indicator-bound check of ``verify_indicator_bound`` on many lists
    whose certificates the caller already holds, one report per list.

    ``certs[i]`` is the certificate of ``lists[i]``, from ``certificates`` or
    ``certificate``, and fixes the list's K and delta; the list is neither
    validated nor certified again, so pass the float64 scores it was made
    from. Before any recursion, the first list whose ``alphas[i]`` is not in
    (0, inf) or does not exceed its threshold raises ``ValueError`` or
    ``ThresholdNotMetError``, its message prefixed with ``list <i>: ``. The
    lists of one (n, K, delta) share one recursion per chunk of at most
    ``SWEEP_CHUNK_ELEMENTS`` row elements.
    """
    if not len(lists) == len(alphas) == len(certs):
        raise ValueError(
            f"lists, alphas and certs differ in length: {len(lists)}, {len(alphas)}, {len(certs)}"
        )
    epsilons = []
    groups: dict[tuple[int, int, float], list[int]] = {}
    for i, (scores, alpha, cert) in enumerate(zip(lists, alphas, certs)):
        try:
            epsilons.append(_certified_epsilon(cert, alpha))
        except ValueError as exc:  # a NaN, infinite or non-positive alpha, or one below the threshold
            raise type(exc)(f"list {i}: {exc}") from None
        groups.setdefault((len(scores), cert.k, cert.delta), []).append(i)
    reports = [None] * len(lists)
    for (n, k, delta), members in groups.items():
        per_call = max(1, SWEEP_CHUNK_ELEMENTS // (k * n))
        for start in range(0, len(members), per_call):
            part = members[start:start + per_call]
            top, hard, smooth = _indicator_rows(
                np.array([lists[i] for i in part], dtype=np.float64),
                np.array([alphas[i] for i in part], dtype=np.float64),
                k,
                delta,
            )
            err = np.abs(hard - smooth)
            per_rank = err.max(axis=2)
            # each list's largest error in the columns of its k top documents
            top_errs = err.max(axis=1)[np.arange(len(part))[:, None], top].max(axis=1)
            for i, max_err, top_err, rank_err in zip(
                part, per_rank.max(axis=1).tolist(), top_errs.tolist(), per_rank
            ):
                # positional: a third of the keyword call's cost, which shows over thousands of lists
                reports[i] = BoundReport(
                    alphas[i], epsilons[i], max_err, top_err, rank_err, max_err <= epsilons[i], certs[i]
                )
    return reports


def verify_metric_bounds(rel, scores, k: int, alpha: float, delta: float = 0.1) -> MetricBoundReport:
    """Check the three metric-level bounds on one instance with binary grades.

    P@K and NDCG@K use the error radius certified at K; AP walks every rank,
    so its radius is certified at K=N. The bounds are m*eps for P@K (m =
    number of relevant documents), 2N*(eps + eps^2) for AP, and N*eps for
    NDCG@K. One recursion at K=N serves all three: rows 1..K of it are the
    K-row recursion's rows, and one exact-metric pass at K serves the exact
    side. alpha must clear N's certificate threshold, which is larger than
    K's (the threshold grows strictly with K).
    """
    arr, stats = _checked(scores, delta)
    n = arr.size
    rel = as_relevance(rel, n, binary=True)
    if rel.sum() == 0.0:
        raise ValueError("metric bounds need at least one relevant document")
    cert_k = _certificate_at(stats, k, delta)
    eps_n = _certified_epsilon(_certificate_at(stats, n, delta), alpha)
    eps_k = epsilon_alpha(cert_k, alpha)
    rows = smooth_indicators(arr, SmoothIParams(alpha=alpha, delta=delta), k=n).rows
    u = np.einsum("rj,j->r", rows, rel)
    exact, ideal = _list_metrics(rel, arr, k)
    p_diff = abs(exact[f"p@{k}"] - metric_from_weighted_sums(u[:k], SMOOTH_P_AT_K, k, None, None))
    p_bound = float(rel.sum()) * eps_k
    ap_diff = abs(exact["map"] - metric_from_weighted_sums(u, SMOOTH_AP, n, rel.sum(), None))
    ap_bound = 2.0 * n * (eps_n + eps_n**2)
    ndcg_diff = abs(exact[f"ndcg@{k}"] - metric_from_weighted_sums(u[:k], SMOOTH_NDCG_AT_K, k, None, ideal))
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
    arr, stats = _checked(scores, delta)
    eps = _certified_epsilon(_certificate_at(stats, k, delta), alpha)
    if b.shape != (arr.size,):
        raise ValueError(f"b_weights must have length n={arr.size}, got shape {b.shape}")
    _, hard, smooth = (
        rows[0] for rows in _indicator_rows(arr[None], np.array([alpha], dtype=np.float64), k, delta)
    )
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
    alpha_factors=ALPHA_FACTORS,
) -> tuple[list[dict], dict]:
    """Indicator-bound rows over random instances, one row per (instance, alpha).

    With explicit ``alphas``, sub-threshold values are kept as rows marked
    ``skipped_below_threshold`` (the bound is not claimed there); otherwise
    each instance is probed at ``alpha_factors`` times its own threshold.
    Every instance is drawn first, then all are certified in one
    ``certificates`` call, and the rows above their thresholds go through
    one ``verify_indicator_bounds`` call. No value depends on the batch:
    each row has the bits of certifying and checking its instance alone.
    Rows come back in instance order. Returns (rows, summary) where summary
    carries the fraction of checked rows on which the bound held.
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
    lengths = np.array([n for n, _, _ in drawn], dtype=np.int64)
    mask = np.arange(lengths.max(initial=0)) < lengths[:, None]
    packed = np.zeros(mask.shape)
    for row, (n, _, scores) in zip(packed, drawn):
        row[:n] = scores
    certs = certificates(packed, [k for _, k, _ in drawn], delta, mask)
    # one (instance, alpha) per row, in row order
    probes = [
        (idx, alpha)
        for idx, cert in enumerate(certs)
        for alpha in (alphas if alphas is not None else [f * cert.alpha_threshold for f in alpha_factors])
    ]
    above = [(idx, alpha) for idx, alpha in probes if not alpha <= certs[idx].alpha_threshold]
    reports = verify_indicator_bounds(
        [drawn[idx][2] for idx, _ in above], [alpha for _, alpha in above], [certs[idx] for idx, _ in above]
    )
    pending = iter(reports)
    rows = []
    for idx, alpha in probes:
        n, k, _ = drawn[idx]
        cert = certs[idx]
        row = {"instance": idx, "n": n, "k": k, "alpha": float(alpha), "delta": delta, "beta": cert.beta,
               "gamma": cert.gamma, "alpha_threshold": cert.alpha_threshold}
        if alpha <= cert.alpha_threshold:
            row.update(epsilon_alpha=epsilon_alpha(cert, alpha), max_err="", holds="",
                       status="skipped_below_threshold")
        else:
            report = next(pending)
            row.update(epsilon_alpha=report.epsilon_alpha, max_err=report.max_indicator_err,
                       holds=report.holds, status="checked")
        rows.append(row)
    checked = len(reports)
    held = sum(report.holds for report in reports)
    skipped = len(rows) - checked
    return rows, {
        "instances": instances,
        "rows": len(rows),
        "checked": checked,
        "skipped": skipped,
        "violations": checked - held,
        "fraction_holding": (held / checked) if checked else 1.0,
    }
