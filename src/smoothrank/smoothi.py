"""Smooth rank indicators: a recursive softmax relaxation of hard ranking.

Row 1 is a temperature-scaled softmax over the document scores, approximating
the one-hot indicator of the top document. Each subsequent row damps the
documents captured by earlier rows through the factor
``(1 - previous_row - delta)`` applied multiplicatively to the scores, then
re-runs the softmax, approximating the indicator of "the document at rank r".
Larger ``alpha`` sharpens every row toward the exact indicator; ``delta`` in
(0, 0.5) controls how strongly already-selected documents are pushed down.

The recursion is evaluated iteratively rank by rank with the damping prefix
products cached, so computing K rows over N documents costs O(K*N) time and
memory instead of the exponential blowup of the naive recursive expansion.
It runs on a ``(B, N)`` batch of lists at once: lists shorter than ``N`` are
padded, and a validity mask gives the padded entries ``-inf`` logits, so they
take no indicator mass in any row. One list is the ``B = 1`` case. Each rank
step is then one set of array operations over the whole batch, which is why
training groups its lists into buckets of similar length before calling in.

The batch's row count can also differ per list: with cutoffs ``k`` sorted
longest first, the lists that still need rank r form a leading slice of the
batch, and rank step r works on that slice only. The work is then a
staircase, the sum of the lists' own ``k * N`` instead of ``B * max(k) * N``,
and each list's rows keep the bits of a rectangular call at the same padded
width (every rank step is row by row). The rows past a list's cutoff are 0.

Real scores run in float64. Complex scores run in complex128, which is how
the gradient check takes complex-step derivatives through this one
recursion: validation and each row's max read the real part only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rank_core import _integer


# Callers that run many lists through the recursion (the bound checks, the
# full-mode gradient check) split them so that one call holds at most this
# many row elements: 8 MiB per float64 array, 16 MiB per complex128 one.
# Read at call time, so a test can lower it.
CHUNK_ELEMENTS = 2**20


def _lists_per_call(k: int, n: int) -> int:
    """How many lists of ``k`` rows over ``n`` documents one recursion call
    takes within ``CHUNK_ELEMENTS`` row elements (at least one)."""
    return max(1, CHUNK_ELEMENTS // (k * n))


def check_delta(delta: float) -> None:
    """Reject a damping delta outside the open interval (0, 0.5)."""
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 0.5), got {delta}")


def check_alpha(alpha: float) -> None:
    """Reject an alpha outside (0, inf). The indicator needs alpha > 0, and a
    NaN or infinite alpha makes the recursion's scaled scores NaN."""
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


@dataclass(frozen=True)
class SmoothIParams:
    """The smooth rank indicator's two hyperparameters.

    ``alpha``: inverse temperature (> 0); ``delta``: damping in (0, 0.5).
    How many rows to compute is the ``k`` argument of
    :func:`smooth_indicators`, and how gradients treat the damping prefix
    products is the loss's ``LossSpec.grad_mode``.
    """

    alpha: float
    delta: float = 0.1

    def __post_init__(self):
        check_alpha(self.alpha)
        check_delta(self.delta)


@dataclass
class SmoothIndicatorMatrix:
    """Smooth indicator rows plus the cached damping prefix products.

    ``rows[..., r-1, j]`` approximates "document j sits at rank r"; every row
    is a softmax output summing to 1 over the list's valid documents.
    ``prefix_products[..., r-1, j]`` is the product of
    ``(1 - rows[..., l-1, j] - delta)`` over l < r (all ones for r=1), cached
    because the analytic gradients reuse it. For one list the arrays are
    ``(k, n)``; for a batch they are ``(B, k, N)``, with zero rows and finite
    scores at padded entries. Written once, read-only after.
    """

    rows: np.ndarray
    prefix_products: np.ndarray
    scores: np.ndarray
    params: SmoothIParams


def stable_softmax(logits) -> np.ndarray:
    """Softmax computed with the max logit subtracted, so exponents stay <= 0."""
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"logits must be a non-empty 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("logits contain NaN or Inf")
    exps = np.exp(arr - arr.max())
    return exps / exps.sum()


def rank_steps(k, count: int, width: int) -> list[tuple[int, int, int]]:
    """The staircase of a recursion over ``count`` lists of padded ``width``:
    ``(start, stop, lists)`` triples, one per distinct cutoff, each saying
    that rank steps ``start`` to ``stop - 1`` work on the leading ``lists``
    lists. ``k`` is one integer cutoff for all lists, or one non-increasing
    integer cutoff per list; each lies in [1, width]. Raises ValueError
    otherwise. No lists make no steps."""
    cutoffs = np.asarray(k)
    if cutoffs.ndim == 0:
        k = _integer(k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k > width:
            raise ValueError(f"k={k} exceeds list length {width}")
        return [(0, k, count)]
    if cutoffs.shape != (count,) or cutoffs.dtype.kind not in "iu":
        raise ValueError(f"k must be an int or {count} integer cutoffs, got shape {cutoffs.shape}")
    ks = cutoffs.tolist()  # Python ints: numpy's per-call cost would dominate a one-list call
    if not ks:
        return []
    if ks != sorted(ks, reverse=True):
        raise ValueError("per-list k must be non-increasing (longest list first)")
    if ks[-1] < 1 or ks[0] > width:
        raise ValueError(f"every k must lie in [1, {width}], got {ks[-1]} to {ks[0]}")
    # the last list of each run of equal cutoffs ends a step of the staircase
    lists = {stop: i + 1 for i, stop in enumerate(ks)}
    stops = sorted(lists)
    return [(start, stop, lists[stop]) for start, stop in zip([0] + stops[:-1], stops)]


def smooth_indicators(scores, params: SmoothIParams, mask=None, *,
                      k: int | np.ndarray | None = None) -> SmoothIndicatorMatrix:
    """Compute rows 1..k of the smooth rank indicator for one list or a batch.

    ``scores`` is one list ``(n,)`` or a padded batch ``(B, N)``; ``mask``
    (same shape, boolean) marks the valid entries of a batch, ``None``
    meaning all. ``k`` rows are computed, the (padded) length when ``k`` is
    ``None``; a list shorter than ``k`` gets finite rows past its length,
    which callers cut off. ``k`` can also be one integer cutoff per list,
    non-increasing (longest first): the arrays then have ``max(k)`` rows,
    and list b's rows and prefix products past its ``k[b]`` are 0 (see
    ``rank_steps``). Valid scores must be strictly positive (the
    recursion relies on positivity to keep damped documents below undamped
    ones); shift raw model outputs with
    :func:`smoothrank.smooth_metrics.shift_scores` first. Real scores run in
    float64 and complex ones in complex128, validated on their real part.

    The recursion reads the scores only as ``alpha * score``, so lists of
    one batch can each have their own alpha: pass ``alphas[:, None] *
    scores`` with ``alpha=1.0``. Since ``1.0 * x == x``, each list's rows
    then have the bits of a one-list call at its own alpha.
    """
    arr = np.asarray(scores)
    arr = arr.astype(np.complex128 if arr.dtype.kind == "c" else np.float64, copy=False)
    if arr.ndim not in (1, 2) or arr.shape[-1] == 0:
        raise ValueError(f"scores must be a non-empty (n,) or (B, n) array, got shape {arr.shape}")
    batch = arr.reshape(-1, arr.shape[-1])
    valid = None if mask is None else np.asarray(mask, dtype=bool).reshape(batch.shape)
    if valid is not None and not valid.any(axis=1).all():
        raise ValueError("every list needs at least one valid document")
    live = batch if valid is None else batch[valid]
    if not np.all(np.isfinite(live)):
        raise ValueError("scores contain NaN or Inf")
    if np.any(live.real <= 0.0):
        raise ValueError("smooth indicators require strictly positive scores; shift them first")
    steps = rank_steps(batch.shape[1] if k is None else k, *batch.shape)
    if valid is not None:
        batch = np.where(valid, batch, 1.0)
    # alpha * score once: row r's logits are (alpha * score) * prefix
    scaled = params.alpha * batch
    pad = None if valid is None else np.where(valid, 0.0, -np.inf)
    shape = (batch.shape[0], steps[-1][1] if steps else 0, batch.shape[1])
    # a staircase leaves the rows past each list's cutoff unwritten
    alloc = np.empty if len(steps) == 1 else np.zeros
    rows = alloc(shape, dtype=batch.dtype)
    prefixes = alloc(shape, dtype=batch.dtype)
    prefix = np.ones(batch.shape, dtype=batch.dtype)
    for start, stop, count in steps:
        prefix, scaled = prefix[:count], scaled[:count]
        pad = None if pad is None else pad[:count]
        for r in range(start, stop):
            prefixes[:count, r] = prefix
            logits = scaled * prefix
            if pad is not None:
                logits += pad
            exps = np.exp(logits - logits.real.max(axis=1, keepdims=True))
            row = rows[:count, r]
            np.divide(exps, exps.sum(axis=1, keepdims=True), out=row)
            prefix = prefix * (1.0 - row - params.delta)
    if arr.ndim == 1:
        rows, prefixes = rows[0], prefixes[0]
    return SmoothIndicatorMatrix(
        rows=rows, prefix_products=prefixes, scores=batch.reshape(arr.shape), params=params
    )
