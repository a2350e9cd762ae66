"""Exact (non-differentiable) ranking primitives and IR metrics.

Hard rank indicators obtained by sorting, plus exact P@K, AP and NDCG@K.
These serve both as evaluation metrics and as the reference values that the
smooth approximations converge to.
"""

from __future__ import annotations

import math

import numpy as np


class UndefinedMetricError(ValueError):
    """The metric has no defined value for this query (zero relevance)."""


def as_scores(scores) -> np.ndarray:
    """Validate a score vector and return it as a float64 array.

    The smooth-indicator error bounds further need strictly positive,
    pairwise distinct scores; ``bounds_lab`` checks that.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"scores must be a non-empty 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores contain NaN or Inf")
    return arr


def as_relevance(rel, n: int, binary: bool = False) -> np.ndarray:
    """Validate a relevance-grade vector paired with ``n`` scores."""
    arr = np.asarray(rel, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"relevance has shape {arr.shape}, expected ({n},)")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("relevance grades must be finite and non-negative")
    if binary and not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError("binary relevance required, got graded values")
    return arr


def rank_permutation(scores) -> np.ndarray:
    """Document indices in descending score order, ties broken by index."""
    arr = as_scores(scores)
    return np.argsort(-arr, kind="stable")


def hard_indicator(scores, r: int) -> np.ndarray:
    """One-hot vector marking the document at rank ``r`` (1-based)."""
    arr = as_scores(scores)
    if not 1 <= r <= arr.size:
        raise ValueError(f"rank r={r} out of range [1, {arr.size}]")
    out = np.zeros(arr.size)
    out[rank_permutation(arr)[r - 1]] = 1.0
    return out


def hard_indicator_matrix(scores, k: int) -> np.ndarray:
    """Hard indicators for ranks 1..k stacked into a (k, n) 0/1 matrix."""
    arr = as_scores(scores)
    if not 1 <= k <= arr.size:
        raise ValueError(f"k={k} out of range [1, {arr.size}]")
    perm = rank_permutation(arr)
    out = np.zeros((k, arr.size))
    out[np.arange(k), perm[:k]] = 1.0
    return out


def precision_at_k(rel, scores, k: int) -> float:
    """Fraction of relevant documents among the top ``k`` by score."""
    arr = as_scores(scores)
    rel = as_relevance(rel, arr.size, binary=True)
    if not 1 <= k <= arr.size:
        raise ValueError(f"k={k} out of range [1, {arr.size}]")
    perm = rank_permutation(arr)
    return float(rel[perm[:k]].sum() / k)


def average_precision(rel, scores) -> float:
    """Mean of P@k over the ranks k holding a relevant document."""
    arr = as_scores(scores)
    rel = as_relevance(rel, arr.size, binary=True)
    total = rel.sum()
    if total == 0.0:
        raise UndefinedMetricError("AP is undefined: no relevant document")
    ranked = rel[rank_permutation(arr)]
    prec = np.cumsum(ranked) / np.arange(1, arr.size + 1)
    # fsum: the sum is exactly rounded, not summation-order dependent
    return math.fsum(ranked * prec) / total


def _ideal_terms(rel: np.ndarray) -> np.ndarray:
    """Each row's ideal DCG terms: the gains of its grades sorted descending,
    over the log2 discount of their rank."""
    top = np.sort(rel, axis=-1)[..., ::-1]
    return (np.exp2(top) - 1.0) / np.log2(np.arange(2.0, top.shape[-1] + 2.0))


def ideal_dcg(rel, cutoffs) -> np.ndarray:
    """DCG of the best possible ordering of each row of grades, at each of
    that row's cutoffs.

    ``rel`` is ``(B, N)``, a row's padding grade 0 (which adds nothing), and
    ``cutoffs`` is ``(B, m)``; so is the result. The terms are built for all
    rows at once; each value is a ``math.fsum`` of the row's first ``c``
    terms, exactly rounded, so it equals ``ideal_dcg_at_k`` of the row
    whatever the batch and the padding.
    """
    terms = _ideal_terms(np.asarray(rel, dtype=np.float64)).tolist()
    cuts = np.asarray(cutoffs)
    sums = [[math.fsum(row[:c]) for c in row_cuts] for row, row_cuts in zip(terms, cuts.tolist())]
    return np.array(sums, dtype=np.float64).reshape(cuts.shape)


def ideal_dcg_at_k(rel, k: int) -> float:
    """DCG@k of the best possible ordering (grades sorted descending)."""
    return math.fsum(_ideal_terms(np.asarray(rel, dtype=np.float64))[:k])


def exact_metrics(rel, scores, lengths, cutoffs) -> dict[str, np.ndarray]:
    """Exact P@c and NDCG@c per cutoff, full NDCG and AP of padded lists.

    Row i of the ``(B, N)`` arrays holds a list of ``lengths[i]`` documents
    with finite scores, then padding: grade 0, score ``-inf``. A stable
    descending sort ranks the padding last and breaks ties by index, as
    ``rank_permutation`` does. Grades >= 1 count as relevant for P@c and
    AP; a list shorter than ``c`` counts its missing documents as
    non-relevant (TREC style) and is scored at its own length for NDCG. A
    list without a relevant document has AP 0; one with ideal DCG@c 0 has
    NDCG@c 0.

    Each value equals the one-list computation bit for bit: 0/1 sums are
    exact, each DCG is a ``sum`` over exactly the list's first ``k`` terms
    (numpy's summation order for a length-``k`` vector), and ideal DCG and
    AP are ``math.fsum`` sums.
    """
    rel = np.asarray(rel, dtype=np.float64)
    lengths = np.asarray(lengths)
    width = rel.shape[1]
    ranked = np.take_along_axis(rel, np.argsort(-np.asarray(scores), axis=1, kind="stable"), axis=1)
    binary = (ranked >= 1.0).astype(np.float64)
    terms = (np.exp2(ranked) - 1.0) / np.log2(np.arange(2.0, width + 2.0))

    def dcg(k: np.ndarray) -> np.ndarray:
        out = np.empty(len(k))
        for c in set(k.tolist()):
            rows = k == c
            out[rows] = terms[rows, :c].sum(axis=1)
        return out

    cuts = np.column_stack([np.minimum(lengths, c) for c in cutoffs] + [lengths])
    ideal = ideal_dcg(rel, cuts)
    out = {f"p@{c}": binary[:, :c].sum(axis=1) / c for c in cutoffs}
    for i, c in enumerate(cutoffs):
        out[f"ndcg@{c}"] = np.divide(dcg(cuts[:, i]), ideal[:, i], out=np.zeros(len(cuts)),
                                     where=ideal[:, i] > 0.0)
    out["ndcg"] = dcg(lengths) / ideal[:, -1]
    hits = binary.sum(axis=1)
    precision = np.cumsum(binary, axis=1) / np.arange(1.0, width + 1.0)
    ap_sums = np.array([math.fsum(row) for row in (binary * precision).tolist()])
    out["map"] = np.divide(ap_sums, hits, out=np.zeros(len(hits)), where=hits > 0.0)
    return out


def ndcg_at_k(rel, scores, k: int) -> float:
    """DCG@k of the score-induced ordering, normalized by the ideal DCG@k.

    Gains are 2^grade - 1 with a log2(rank + 1) position discount; grades may
    be non-binary.
    """
    arr = as_scores(scores)
    rel = as_relevance(rel, arr.size)
    if not 1 <= k <= arr.size:
        raise ValueError(f"k={k} out of range [1, {arr.size}]")
    ideal = ideal_dcg_at_k(rel, k)
    if ideal == 0.0:
        raise UndefinedMetricError("NDCG is undefined: all relevance grades are zero")
    perm = rank_permutation(arr)
    gains = np.exp2(rel[perm[:k]]) - 1.0
    dcg = math.fsum(gains / np.log2(np.arange(2.0, k + 2.0)))
    return dcg / ideal
