"""Reference computations made apart from the package.

Each function evaluates a defining formula literally, with explicit sorting
and plain Python loops, and shares no code with ``smoothrank``. The workload
checks compare the program's outputs against these.
"""

from __future__ import annotations

import math


def descending_order(scores) -> list[int]:
    """Stable descending order, ties broken by original index."""
    return sorted(range(len(scores)), key=lambda j: (-scores[j], j))


def precision_at_k(rel, scores, k: int) -> float:
    """Binary grades (>= 1 counts as relevant); ranks past the list end are
    non-relevant, so the denominator is ``k`` even for shorter lists."""
    order = descending_order(scores)
    return math.fsum(1.0 for j in order[:k] if rel[j] >= 1.0) / k


def average_precision(rel, scores) -> float:
    order = descending_order(scores)
    hits = 0
    terms = []
    for rank, j in enumerate(order, start=1):
        if rel[j] >= 1.0:
            hits += 1
            terms.append(hits / rank)
    return math.fsum(terms) / hits


def _dcg(grades_in_rank_order) -> float:
    return math.fsum(
        (2.0 ** g - 1.0) / math.log2(r + 1) for r, g in enumerate(grades_in_rank_order, start=1)
    )


def ndcg_at_k(rel, scores, k: int) -> float:
    """NDCG with gains 2^grade - 1; the cutoff is clipped to the list length."""
    k = min(k, len(scores))
    order = descending_order(scores)
    return _dcg([rel[j] for j in order[:k]]) / _dcg(sorted(rel, reverse=True)[:k])


def exact_metrics(rel, scores, cutoffs=(1, 5, 10)) -> dict[str, float]:
    """The per-query metrics ``evaluate`` reports, from brute-force sorting."""
    out = {f"p@{c}": precision_at_k(rel, scores, c) for c in cutoffs}
    out.update({f"ndcg@{c}": ndcg_at_k(rel, scores, c) for c in cutoffs})
    out["ndcg"] = ndcg_at_k(rel, scores, len(scores))
    out["map"] = average_precision(rel, scores) if any(g >= 1.0 for g in rel) else 0.0
    return out


def smooth_rows(scores, alpha: float, delta: float, k: int) -> list[list[float]]:
    """The smooth indicator recursion as the paper writes it.

    Row r is the softmax of alpha * s * prod_{l<r} (1 - row_l - delta). The
    largest logit is subtracted before exponentiating, which leaves each
    softmax unchanged and keeps exp() from overflowing.
    """
    n = len(scores)
    rows = []
    for _ in range(k):
        logits = []
        for j in range(n):
            prod = 1.0
            for prev in rows:
                prod *= 1.0 - prev[j] - delta
            logits.append(alpha * scores[j] * prod)
        top = max(logits)
        exps = [math.exp(x - top) for x in logits]
        z = math.fsum(exps)
        rows.append([e / z for e in exps])
    return rows


def smooth_loss(rel, raw_scores, kind: str, alpha: float, delta: float, k: int | None = None,
                margin: float = 1.0) -> float:
    """``1 - smooth metric`` on scores shifted so their minimum is ``margin``.

    ``kind`` is "p@k", "ap" (binary grades, every rank) or "ndcg@k";
    ``k=None`` means the full list.
    """
    low = min(raw_scores)
    s = [x - low + margin for x in raw_scores]
    n = len(s)
    k = n if k is None or kind == "ap" else k
    rows = smooth_rows(s, alpha, delta, k)
    u = [math.fsum(rel[j] * rows[r][j] for j in range(n)) for r in range(k)]
    if kind == "p@k":
        value = math.fsum(u) / k
    elif kind == "ap":
        value = math.fsum(u[r] * math.fsum(u[: r + 1]) / (r + 1) for r in range(n)) / sum(rel)
    elif kind == "ndcg@k":
        dcg = math.fsum((2.0 ** u[r] - 1.0) / math.log2(r + 2) for r in range(k))
        value = dcg / _dcg(sorted(rel, reverse=True)[:k])
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return 1.0 - value


def alpha_threshold(scores, k: int, delta: float) -> float:
    """The alpha above which the indicator bound is certified, in closed form.

    threshold = 2^(K-1) * (ln(K-1) - ln(gamma)) / (s_min * min(1, (beta-1)/2)),
    gamma = min(delta, 1/2 - delta, (1-delta)(c-1)/(c+1)), c = ((beta+1)/2)^(1/(K-1)).
    """
    ordered = sorted(scores, reverse=True)
    beta = min(ordered[i] / ordered[i + 1] for i in range(len(ordered) - 1))
    c = ((beta + 1.0) / 2.0) ** (1.0 / (k - 1))
    gamma = min(delta, 0.5 - delta, (1.0 - delta) * (c - 1.0) / (c + 1.0))
    return 2.0 ** (k - 1) * (math.log(k - 1) - math.log(gamma)) / (
        ordered[-1] * min(1.0, (beta - 1.0) / 2.0))


def eps_alpha(scores, k: int, alpha: float) -> float:
    """Certified indicator error radius from its closed form.

    eps = (K-1) * exp(-alpha * s_min * min(1, (beta-1)/2) / 2^(K-1)), with
    beta the smallest ratio of a larger over a smaller score.
    """
    ordered = sorted(scores, reverse=True)
    beta = min(ordered[i] / ordered[i + 1] for i in range(len(ordered) - 1))
    s_min = ordered[-1]
    return (k - 1) * math.exp(-alpha * s_min * min(1.0, (beta - 1.0) / 2.0) / 2.0 ** (k - 1))
