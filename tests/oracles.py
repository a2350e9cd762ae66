"""Independent reference implementations used as test oracles.

Everything here evaluates the defining formulas literally: explicit sorting,
plain Python loops, no code shared with the package under test.
Transcendentals call numpy's scalar functions so that exact-equality
comparisons against the vectorized implementations are meaningful.

The exception is ``query_metrics``, the one-query metric path that
``evaluate`` ran per query before it worked on whole splits: it builds on
``rank_core``'s one-list functions and is the oracle the split evaluation
must equal bit for bit.
"""

import math

import numpy as np

from smoothrank.rank_core import UndefinedMetricError, average_precision, ideal_dcg_at_k, rank_permutation


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
        dcg = float((gains / np.log2(np.arange(2.0, k + 2.0))).sum())
        out[f"ndcg@{c}"] = dcg / ideal if ideal > 0 else 0.0
    ideal_full = ideal_dcg_at_k(rel, n)
    gains = np.exp2(rel[perm]) - 1.0
    out["ndcg"] = float((gains / np.log2(np.arange(2.0, n + 2.0))).sum() / ideal_full)
    try:
        out["map"] = average_precision(binary, scores)
    except UndefinedMetricError:
        out["map"] = 0.0
    return out
