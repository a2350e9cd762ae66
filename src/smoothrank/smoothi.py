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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 0.0 < self.delta < 0.5:
            raise ValueError(f"delta must lie in the open interval (0, 0.5), got {self.delta}")


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


def smooth_indicators(scores, params: SmoothIParams, mask=None, *, k: int | None = None) -> SmoothIndicatorMatrix:
    """Compute rows 1..k of the smooth rank indicator for one list or a batch.

    ``scores`` is one list ``(n,)`` or a padded batch ``(B, N)``; ``mask``
    (same shape, boolean) marks the valid entries of a batch, ``None``
    meaning all. ``k`` rows are computed, the (padded) length when ``k`` is
    ``None``; a list shorter than ``k`` gets finite rows past its length,
    which callers cut off. Valid scores must be strictly positive (the
    recursion relies on positivity to keep damped documents below undamped
    ones); shift raw model outputs with
    :func:`smoothrank.smooth_metrics.shift_scores` first. Float scores keep
    their dtype (``np.longdouble`` runs the recursion in extended precision);
    any other input is converted to float64.

    The recursion reads the scores only as ``alpha * score``, so lists of
    one batch can each have their own alpha: pass ``alphas[:, None] *
    scores`` with ``alpha=1.0``. Since ``1.0 * x == x``, each list's rows
    then have the bits of a one-list call at its own alpha.
    """
    arr = np.asarray(scores)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    if arr.ndim not in (1, 2) or arr.shape[-1] == 0:
        raise ValueError(f"scores must be a non-empty (n,) or (B, n) array, got shape {arr.shape}")
    batch = arr.reshape(-1, arr.shape[-1])
    valid = None if mask is None else np.asarray(mask, dtype=bool).reshape(batch.shape)
    if valid is not None and not valid.any(axis=1).all():
        raise ValueError("every list needs at least one valid document")
    live = batch if valid is None else batch[valid]
    if not np.all(np.isfinite(live)):
        raise ValueError("scores contain NaN or Inf")
    if np.any(live <= 0.0):
        raise ValueError("smooth indicators require strictly positive scores; shift them first")
    k = batch.shape[1] if k is None else k
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > batch.shape[1]:
        raise ValueError(f"k={k} exceeds list length {batch.shape[1]}")
    if valid is not None:
        batch = np.where(valid, batch, 1.0)
    # alpha * score once: row r's logits are (alpha * score) * prefix
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
        exps = np.exp(logits - logits.max(axis=1, keepdims=True))
        row = rows[:, r]
        np.divide(exps, exps.sum(axis=1, keepdims=True), out=row)
        prefix = prefix * (1.0 - row - params.delta)
    if arr.ndim == 1:
        rows, prefixes = rows[0], prefixes[0]
    return SmoothIndicatorMatrix(
        rows=rows, prefix_products=prefixes, scores=batch.reshape(arr.shape), params=params
    )
