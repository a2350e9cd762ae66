"""Exact (non-differentiable) ranking primitives and IR metrics.

Hard rank indicators obtained by sorting, plus exact P@K, AP and NDCG@K.
These serve both as evaluation metrics and as the reference values that the
smooth approximations converge to. One function ranks and sums them for a
padded batch of lists; the one-list metrics are its batch of one.

``_rank_order`` is the package's one rank order (descending score, ties
broken by index), and ``_hard_rows`` its one builder of hard indicator
rows: the bound checks, the smooth AP's list cap and the CLI's run file
rank through them too. ``_integer`` is its one check of a cutoff or rank
(an integer, within [1, n] when n is given), and ``check_cutoffs`` its one
check of metric cutoffs.

Every DCG and AP is the exactly rounded sum of its terms, ``math.fsum``'s
bits, from ``_prefix_fsums``: exact fixed-point prefix sums over a whole
batch, or the ``fsum`` loop below ``FIXED_POINT_MIN_SUMS`` sums or outside
the fixed-point guard.
"""

from __future__ import annotations

import math
import operator

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


def _rank_order(scores) -> np.ndarray:
    """Indices along the last axis in descending score order, ties broken by
    index: the one rank order of the package. No validation; ``-inf``
    padding ranks last."""
    return np.argsort(-np.asarray(scores), axis=-1, kind="stable")


def _hard_rows(scores, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the ``k`` top documents along the last axis of
    ``scores``, ``(..., k)``, and their hard indicator rows ``(..., k, n)``:
    row r marks the document at rank r + 1. No validation."""
    top = _rank_order(scores)[..., :k]
    lists = top.reshape(-1, k)
    rows = np.zeros((len(lists), k, scores.shape[-1]))
    rows[np.arange(len(lists))[:, None], np.arange(k), lists] = 1.0
    return top, rows.reshape(top.shape + rows.shape[-1:])


def _integer(k, name: str = "k", error: type[ValueError] = ValueError, high: int | None = None) -> int:
    """A cutoff or rank ``k`` as a Python int: a Python or numpy integer is
    taken, anything else (a float, even 2.0, a bool, a string) raises
    ``error``, and so does one outside [1, ``high``] when ``high`` is given."""
    if not isinstance(k, (bool, np.bool_)):
        try:
            k = operator.index(k)
        except TypeError:
            pass
        else:
            if high is not None and not 1 <= k <= high:
                raise error(f"{name}={k} out of range [1, {high}]")
            return k
    raise error(f"{name} must be an integer, got {k!r}")


def check_cutoffs(cutoffs) -> None:
    """Reject metric cutoffs that are not integers, or below 1: P@0 would
    divide by zero."""
    bad = [c for c in cutoffs if _integer(c, "metric cutoff") < 1]
    if bad:
        raise ValueError(f"metric cutoffs must be >= 1, got {bad}")


def rank_permutation(scores) -> np.ndarray:
    """Document indices in descending score order, ties broken by index."""
    return _rank_order(as_scores(scores))


def hard_indicator(scores, r: int) -> np.ndarray:
    """One-hot vector marking the document at rank ``r`` (1-based)."""
    arr = as_scores(scores)
    r = _integer(r, "rank r", high=arr.size)
    return _hard_rows(arr, r)[1][r - 1]


def hard_indicator_matrix(scores, k: int) -> np.ndarray:
    """Hard indicators for ranks 1..k stacked into a (k, n) 0/1 matrix."""
    arr = as_scores(scores)
    k = _integer(k, high=arr.size)
    return _hard_rows(arr, k)[1]


def precision_at_k(rel, scores, k: int) -> float:
    """Fraction of relevant documents among the top ``k`` by score."""
    arr = as_scores(scores)
    rel = as_relevance(rel, arr.size, binary=True)
    k = _integer(k, high=arr.size)
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
    k = _integer(k, high=arr.size)
    values, ideal = _list_metrics(rel, arr, k)
    if ideal == 0.0:
        raise UndefinedMetricError("NDCG is undefined: all relevance grades are zero")
    return values[f"ndcg@{k}"]


# the fewest sums one _prefix_fsums call takes its fixed-point path for. The
# path costs 15-25 us on small batches, the fsum loop about 1 us per sum and
# more on long lists: one 8-document list took 3 us in the loop against
# 20 us, and 32 sums over lists of 8-120 documents 13-120 us against
# 16-78 us (timeit, one thread)
FIXED_POINT_MIN_SUMS = 32


def _prefix_fsums(terms: np.ndarray, cutoffs) -> np.ndarray:
    """``math.fsum(row[:c])``, bit for bit, for every row of the ``(B, N)``
    array ``terms`` and each ``c`` of that row's ``(B, m)`` cutoffs, each in
    [0, N]: the exactly rounded sum, which depends on neither the batch nor
    trailing zero terms.

    A batch of at least ``FIXED_POINT_MIN_SUMS`` sums goes through
    ``_fixed_point_sums``; a smaller one, or one outside that path's guard,
    through the fsum loop. A cutoff outside [0, N] raises ValueError on
    either path.
    """
    cuts = np.asarray(cutoffs)
    if cuts.size >= FIXED_POINT_MIN_SUMS:
        _check_sum_cutoffs(cuts.min(), cuts.max(), terms.shape[1])
        sums = _fixed_point_sums(terms, cuts)
        if sums is not None:
            return sums
    cut_rows = cuts.tolist()
    if cuts.size:
        # on Python lists: two numpy reductions would cost a one-list metric more than its sums
        _check_sum_cutoffs(min(map(min, cut_rows)), max(map(max, cut_rows)), terms.shape[1])
    rows = terms.tolist()
    sums = [[math.fsum(row[:c]) for c in row_cuts] for row, row_cuts in zip(rows, cut_rows)]
    return np.array(sums, dtype=np.float64).reshape(cuts.shape)


def _check_sum_cutoffs(low, high, width: int) -> None:
    """Raise ValueError naming a cutoff outside [0, ``width``], given the
    smallest and the largest."""
    if not 0 <= low <= high <= width:
        raise ValueError(f"cutoff={low if low < 0 else high} out of range [0, {width}]")


def _fixed_point_sums(terms: np.ndarray, cuts: np.ndarray) -> np.ndarray | None:
    """``_prefix_fsums`` without a Python loop, or None when a term is
    negative, non-finite or near underflow, or the terms' exponents spread
    too wide.

    Scaled by ``unit = 2**(27 - e)``, ``e`` the exponent of the smallest
    nonzero term, every term is a multiple of 2**-26 below 2**(27 + spread),
    and ``np.modf`` splits it exactly into a whole high limb and a low limb
    of 26 fraction bits. While the exponent spread plus ``N.bit_length()``
    plus 27 is at most 53, every prefix sum of either limb needs at most 53
    bits, so one float64 cumsum over both limbs is exact, ``whole +
    fraction`` rounds each exact sum once, and the scaling back is exact.
    """
    top, low = terms.max(initial=0.0), terms.min(initial=0.0)
    if not (low >= 0.0 and top < math.inf):
        return None
    if top == 0.0:
        return np.zeros(cuts.shape)
    e_min = math.frexp(terms.min(initial=math.inf, where=terms > 0.0))[1]
    # below 2**-997 the unit would overflow
    if e_min < -996 or math.frexp(top)[1] - e_min + terms.shape[1].bit_length() + 27 > 53:
        return None
    unit = 2.0 ** (27 - e_min)
    limbs = np.zeros((2, terms.shape[0], terms.shape[1] + 1))
    whole, fraction = limbs[0, :, 1:], limbs[1, :, 1:]
    np.modf(np.multiply(terms, unit, out=fraction), out=(fraction, whole))
    np.cumsum(limbs, axis=2, out=limbs)
    sums = limbs[:, np.arange(len(terms))[:, None], cuts]
    return (sums[0] + sums[1]) * (1.0 / unit)


def _dcg(ranked: np.ndarray, cutoffs) -> np.ndarray:
    """DCG of each row of grades, taken in rank order, at each of that row's
    cutoffs.

    ``ranked`` is ``(B, N)`` and ``cutoffs`` ``(B, m)``; so is the result.
    Gains are 2^grade - 1 over a log2(rank + 1) discount. Each value is the
    ``_prefix_fsums`` of the row's first ``c`` terms, exactly rounded, so it
    depends on neither the batch nor the padding (grade 0 adds nothing).
    """
    terms = (np.exp2(ranked) - 1.0) / np.log2(np.arange(2.0, ranked.shape[-1] + 2.0))
    return _prefix_fsums(terms, cutoffs)


def ideal_dcg(rel, cutoffs) -> np.ndarray:
    """DCG of the best possible ordering (grades sorted descending) of each
    row of grades, at each of that row's cutoffs: ``rel`` is ``(B, N)``, a
    row's padding grade 0, and ``cutoffs`` is ``(B, m)``, as ``_dcg`` takes
    them. Raises ValueError naming a cutoff outside [0, N]."""
    return _dcg(np.sort(np.asarray(rel, dtype=np.float64), axis=-1)[..., ::-1], cutoffs)


def ideal_dcg_at_k(rel, k: int) -> float:
    """DCG@k of the best possible ordering (grades sorted descending).

    Grades must be finite and >= 0 (``as_relevance``), and ``k`` an integer
    in [1, n], as ``ndcg_at_k`` takes them. Raises ValueError otherwise.
    """
    arr = np.asarray(rel, dtype=np.float64)
    grades = as_relevance(arr, arr.size)
    k = _integer(k, high=grades.size)
    return float(ideal_dcg(grades[None], [[k]])[0, 0])


def exact_metrics(rel, scores, lengths, cutoffs) -> dict[str, np.ndarray]:
    """Exact P@c and NDCG@c per cutoff, full NDCG and AP of padded lists.

    Row i of the ``(B, N)`` arrays holds a list of ``lengths[i]`` documents
    with finite scores, then padding: grade 0, score ``-inf``. They are
    ranked by ``_rank_order``, which ranks the padding last and breaks ties
    by index. Grades >= 1 count as relevant for P@c and AP; a list shorter
    than ``c`` counts its missing documents as non-relevant (TREC style) and
    is scored at its own length for NDCG. A list without a relevant document
    has AP 0; one with ideal DCG@c 0 has NDCG@c 0.

    No value depends on the batch or the padding: 0/1 sums are exact, and
    AP and each DCG are exactly rounded (``_prefix_fsums``). ``precision_at_k``,
    ``average_precision`` and ``ndcg_at_k`` are this function on a batch of
    one, so every value equals theirs bit for bit.

    Each cutoff must be an integer >= 1 (``check_cutoffs``); one above a
    list's length is allowed, as above. Raises ValueError otherwise.
    """
    check_cutoffs(cutoffs)
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
    ranked = np.take_along_axis(rel, _rank_order(scores), axis=1)
    binary = (ranked >= 1.0).astype(np.float64)
    out = {f"p@{c}": binary[:, :c].sum(axis=1) / c for c in cutoffs}
    ndcg = np.divide(_dcg(ranked, _dcg_cutoffs(lengths, cutoffs)), ideal, out=np.zeros(ideal.shape),
                     where=ideal > 0.0)
    out.update({f"ndcg@{c}": ndcg[:, i] for i, c in enumerate(cutoffs)})
    out["ndcg"] = ndcg[:, -1]
    hits = binary.sum(axis=1)
    precision = np.cumsum(binary, axis=1) / np.arange(1.0, width + 1.0)
    ap_sums = _prefix_fsums(binary * precision, np.full((len(ranked), 1), width))[:, 0]
    out["map"] = np.divide(ap_sums, hits, out=np.zeros(len(hits)), where=hits > 0.0)
    return out


def _list_metrics(rel: np.ndarray, arr: np.ndarray, k: int) -> tuple[dict[str, float], float]:
    """``_ranked_metrics`` at cutoff ``k`` of one validated list, a batch of
    one, and the ideal DCG@k its NDCG@k divides by."""
    grades, lengths = rel[None], np.array([arr.size])
    ideal = _ideal_dcgs(grades, lengths, (k,))
    values = _ranked_metrics(grades, arr[None], lengths, (k,), ideal)
    return {key: float(value[0]) for key, value in values.items()}, float(ideal[0, 0])
