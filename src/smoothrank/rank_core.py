"""Exact (non-differentiable) ranking primitives and IR metrics.

Hard rank indicators obtained by sorting, plus exact P@K, AP and NDCG@K.
These serve both as evaluation metrics and as the reference values that the
smooth approximations converge to. One function ranks and sums them for a
padded batch of lists; the one-list metrics are its batch of one.
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
    return _list_metrics(rel, arr, k)[0][f"p@{k}"]


def average_precision(rel, scores) -> float:
    """Mean of P@k over the ranks k holding a relevant document."""
    arr = as_scores(scores)
    rel = as_relevance(rel, arr.size, binary=True)
    if rel.sum() == 0.0:
        raise UndefinedMetricError("AP is undefined: no relevant document")
    return _list_metrics(rel, arr, arr.size)[0]["map"]


def ndcg_at_k(rel, scores, k: int) -> float:
    """DCG@k of the score-induced ordering, normalized by the ideal DCG@k.

    Gains are 2^grade - 1 with a log2(rank + 1) position discount; grades may
    be non-binary.
    """
    arr = as_scores(scores)
    rel = as_relevance(rel, arr.size)
    if not 1 <= k <= arr.size:
        raise ValueError(f"k={k} out of range [1, {arr.size}]")
    values, ideal = _list_metrics(rel, arr, k)
    if ideal == 0.0:
        raise UndefinedMetricError("NDCG is undefined: all relevance grades are zero")
    return values[f"ndcg@{k}"]


def _dcg(ranked: np.ndarray, cutoffs) -> np.ndarray:
    """DCG of each row of grades, taken in rank order, at each of that row's
    cutoffs.

    ``ranked`` is ``(B, N)`` and ``cutoffs`` ``(B, m)``; so is the result.
    Gains are 2^grade - 1 over a log2(rank + 1) discount. Each value is a
    ``math.fsum`` of the row's first ``c`` terms, exactly rounded, so it
    depends on neither the batch nor the padding (grade 0 adds nothing).
    """
    terms = ((np.exp2(ranked) - 1.0) / np.log2(np.arange(2.0, ranked.shape[-1] + 2.0))).tolist()
    cuts = np.asarray(cutoffs)
    sums = [[math.fsum(row[:c]) for c in row_cuts] for row, row_cuts in zip(terms, cuts.tolist())]
    return np.array(sums, dtype=np.float64).reshape(cuts.shape)


def ideal_dcg(rel, cutoffs) -> np.ndarray:
    """DCG of the best possible ordering (grades sorted descending) of each
    row of grades, at each of that row's cutoffs: ``rel`` is ``(B, N)``, a
    row's padding grade 0, and ``cutoffs`` is ``(B, m)``, as ``_dcg`` takes
    them."""
    return _dcg(np.sort(np.asarray(rel, dtype=np.float64), axis=-1)[..., ::-1], cutoffs)


def ideal_dcg_at_k(rel, k: int) -> float:
    """DCG@k of the best possible ordering (grades sorted descending)."""
    return float(ideal_dcg([rel], [[k]])[0, 0])


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

    No value depends on the batch or the padding: 0/1 sums are exact, and
    AP and each DCG are a ``math.fsum``. ``precision_at_k``,
    ``average_precision`` and ``ndcg_at_k`` are this function on a batch of
    one, so every value equals theirs bit for bit.
    """
    rel = np.asarray(rel, dtype=np.float64)
    lengths = np.asarray(lengths)
    return _ranked_metrics(rel, scores, lengths, cutoffs, _ideal_dcgs(rel, lengths, cutoffs))


def _dcg_cutoffs(lengths: np.ndarray, cutoffs) -> np.ndarray:
    """Each padded list's DCG cutoffs: ``min(length, c)`` for every cutoff
    ``c``, then its full length."""
    return np.column_stack([np.minimum(lengths, c) for c in cutoffs] + [lengths])


def _ideal_dcgs(rel: np.ndarray, lengths: np.ndarray, cutoffs) -> np.ndarray:
    """The ideal DCGs ``_ranked_metrics`` divides by, at ``_dcg_cutoffs``."""
    return ideal_dcg(rel, _dcg_cutoffs(lengths, cutoffs))


def _ranked_metrics(rel: np.ndarray, scores, lengths: np.ndarray, cutoffs,
                    ideal: np.ndarray) -> dict[str, np.ndarray]:
    """``exact_metrics`` given the lists' ``_ideal_dcgs``: the half of it
    that depends on the scores."""
    width = rel.shape[1]
    ranked = np.take_along_axis(rel, np.argsort(-np.asarray(scores), axis=1, kind="stable"), axis=1)
    binary = (ranked >= 1.0).astype(np.float64)
    out = {f"p@{c}": binary[:, :c].sum(axis=1) / c for c in cutoffs}
    ndcg = np.divide(_dcg(ranked, _dcg_cutoffs(lengths, cutoffs)), ideal, out=np.zeros(ideal.shape),
                     where=ideal > 0.0)
    out.update({f"ndcg@{c}": ndcg[:, i] for i, c in enumerate(cutoffs)})
    out["ndcg"] = ndcg[:, -1]
    hits = binary.sum(axis=1)
    precision = np.cumsum(binary, axis=1) / np.arange(1.0, width + 1.0)
    ap_sums = np.array([math.fsum(row) for row in (binary * precision).tolist()])
    out["map"] = np.divide(ap_sums, hits, out=np.zeros(len(hits)), where=hits > 0.0)
    return out


def _list_metrics(rel: np.ndarray, arr: np.ndarray, k: int) -> tuple[dict[str, float], float]:
    """``_ranked_metrics`` at cutoff ``k`` of one validated list, a batch of
    one, and the ideal DCG@k its NDCG@k divides by."""
    grades, lengths = rel[None], np.array([arr.size])
    ideal = _ideal_dcgs(grades, lengths, (k,))
    values = _ranked_metrics(grades, arr[None], lengths, (k,), ideal)
    return {key: float(value[0]) for key, value in values.items()}, float(ideal[0, 0])
