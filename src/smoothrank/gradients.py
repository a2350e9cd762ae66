"""Analytic gradients of the smooth ranking losses, with a finite-difference
verifier whose oracle matches the gradient convention being checked.

In stop-gradient mode (the production default) the damping prefix products
are constants in the backward pass, so each indicator row differentiates
exactly like a softmax whose logits are ``alpha * score * frozen_prefix``.
In full mode the backward pass also walks the recursion, accumulating rank
by rank the gradient that flows through the prefix products themselves.
Both run on a padded ``(B, N)`` batch of lists at once, like the forward
recursion; one list is the ``B = 1`` case.

The finite-difference check has to differentiate the same function the
chosen mode defines: for stop-gradient mode it perturbs the scores inside
the softmax rows while the prefix products stay pinned at their base-point
values; perturbing the full recursion there would measure a different
derivative. The positivity shift is handled alike in both modes: the
subtracted minimum is piecewise constant in the scores, so it is treated as
a constant (its almost-everywhere derivative) and frozen at the base point
during differencing.

The check takes complex-step derivatives, ``Im f(s + i h e_j) / h``
(Squire & Trapp, SIAM Review 40(1), 1998): nothing is subtracted, so a tiny
step has neither cancellation nor truncation error, on every platform and in
both modes. In stop-gradient mode a check is a few passes over complex
``(K, N)`` arrays, since moving one score changes one logit per
frozen-prefix row; in full mode it is one recursion over the N perturbed
lists as a batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .smoothi import SmoothIndicatorMatrix, rank_steps, smooth_indicators
from .smooth_metrics import (
    SMOOTH_AP,
    SMOOTH_NDCG_AT_K,
    SMOOTH_P_AT_K,
    STOP_GRADIENT,
    LossSpec,
    _Lists,
    _forward,
    _prepare,
    _shift,
    metric_from_weighted_sums,
    shift_scores,
)

LN2 = float(np.log(2.0))

# max_rel_err normalizes by max(|analytic|, |numeric|, this floor), the
# magnitudes of the two gradient vectors: both round on the scale of their
# largest component, so a tiny component cannot be judged on its own.
REL_ERR_FLOOR = 1e-8

# The default complex step: its truncation error, about h^2 f''', vanishes.
STEP_H = 1e-20

# The full-mode oracle runs its N perturbed lists through the recursion in
# chunks of at most this many indicator-row elements (16 MB per complex128
# array); unchunked, a 128-document list would hold 34 MB per array.
FD_CHUNK_ELEMENTS = 2**20


@dataclass
class GradientReport:
    """Analytic-versus-numeric comparison for one loss on one instance."""

    analytic: np.ndarray
    numeric: np.ndarray
    max_abs_err: float
    max_rel_err: float
    step_h: float


def _upstream_coeffs(u: np.ndarray, kind: str, k, rel_total, ideal) -> np.ndarray:
    """Per-rank derivative of the metric wrt the weighted row sums ``u``.

    Along the last axis, as ``metric_from_weighted_sums`` (``u`` is 0 past
    each list's cutoff ``k``); ranks past the cutoff get 0.
    """
    ranks = np.arange(1.0, u.shape[-1] + 1.0)
    live = ranks <= np.asarray(k)[..., None]
    if kind == SMOOTH_P_AT_K:
        coeffs = live / np.asarray(k)[..., None]
    elif kind == SMOOTH_AP:
        prec = np.cumsum(u, axis=-1) / ranks
        # u_t appears directly against prec_t and inside prec_k for all k >= t
        tail = np.flip(np.cumsum(np.flip(u / ranks, axis=-1), axis=-1), axis=-1)
        coeffs = (prec + tail) / np.asarray(rel_total)[..., None]
    elif kind == SMOOTH_NDCG_AT_K:
        discounts = np.log2(ranks + 1.0)
        coeffs = LN2 * np.exp2(u) / (discounts * np.asarray(ideal)[..., None])
    else:
        raise ValueError(f"unknown loss kind {kind!r}")
    return np.where(live, coeffs, 0.0)


def _softmax_rows_backward_stop(mat: SmoothIndicatorMatrix, upstream: np.ndarray) -> np.ndarray:
    """dL/dS with the prefix products held constant (stop-gradient semantics)."""
    rows = mat.rows
    inner = (upstream * rows).sum(axis=-1, keepdims=True)
    dz = rows * (upstream - inner)
    return mat.params.alpha * (mat.prefix_products * dz).sum(axis=-2)


def _softmax_rows_backward_full(mat: SmoothIndicatorMatrix, upstream: np.ndarray, k) -> np.ndarray:
    """dL/dS through the complete recursion, accumulated from the last rank up.

    ``q`` carries dL/d(prefix of rank r+1); each step routes it into the
    current row (prefixes multiply the row's logits) and into the next-lower
    prefix (prefixes chain by the factor ``1 - row - delta``). Arrays are
    ``(B, K, N)``; padded entries have zero rows and so get 0. ``k`` is the
    forward pass's cutoff, one for all lists or one per list, longest first:
    rank step r works only on the lists whose cutoff exceeds r, the forward
    staircase walked down (a list's upstream is 0 past its cutoff, so the
    lists left out would only add zeros).
    """
    rows, prefixes = mat.rows, mat.prefix_products
    alpha, delta = mat.params.alpha, mat.params.delta
    scores = mat.scores
    ds = np.zeros(scores.shape)
    q = np.zeros((0, scores.shape[1]))
    for start, stop, count in reversed(rank_steps(k, *scores.shape)):
        # the lists that join at this step have carried nothing yet
        q = np.concatenate([q, np.zeros((count - len(q), q.shape[1]))])
        out, scaled = ds[:count], alpha * scores[:count]
        for r in range(stop - 1, start - 1, -1):
            row, prefix = rows[:count, r], prefixes[:count, r]
            a = upstream[:count, r] - q * prefix
            dz = row * (a - (a * row).sum(axis=1, keepdims=True))
            out += alpha * prefix * dz
            q = scaled * dz + q * (1.0 - row - delta)
    return ds


def _gradient(lists: _Lists, mat: SmoothIndicatorMatrix, u: np.ndarray, spec: LossSpec) -> np.ndarray:
    """Gradient of the smooth metric wrt the (positive) scores, in the
    caller's layout, from one forward pass (``_forward``) over ``lists``."""
    coeffs = _upstream_coeffs(u, spec.kind, lists.k, lists.rel_total, lists.ideal)
    upstream = coeffs[:, :, None] * lists.rel[:, None, :]
    if spec.grad_mode == STOP_GRADIENT:
        grad = _softmax_rows_backward_stop(mat, upstream)
    else:
        grad = _softmax_rows_backward_full(mat, upstream, lists.k)
    return lists.restore(grad)


def _value_and_gradient(rel, scores, spec: LossSpec, mask=None):
    """Smooth metric value and its gradient wrt the (positive) scores, for
    one list or a padded batch (see ``loss_and_gradient``)."""
    lists = _prepare(rel, scores, spec, mask)
    mat, u, value = _forward(lists, spec)
    return lists.values(value), _gradient(lists, mat, u, spec)


def metric_gradient(rel, scores, spec: LossSpec) -> np.ndarray:
    """Gradient of the smooth metric wrt strictly positive scores."""
    return _value_and_gradient(rel, scores, spec)[1]


def loss_and_gradient(rel, raw_scores, spec: LossSpec, mask=None):
    """Training-loss value and gradient wrt the raw (unshifted) scores.

    One list ``(n,)`` gives ``(float, (n,) array)``. A padded batch ``(B, N)``
    with its boolean validity ``mask`` gives ``((B,), (B, N))``: one loss per
    list, each shifted on its own, and zero gradient at padded entries. In a
    batch each list's cutoff is ``min(k, n_q)``; one list keeps the strict
    cutoff check. Raises ``UndefinedMetricError`` when any list's loss is
    undefined (see ``smooth_metrics.undefined_lists``).
    """
    shifted = _shift(raw_scores, spec.shift_margin, mask)
    value, grad = _value_and_gradient(rel, shifted, spec, mask)
    return 1.0 - value, -grad


def _differenced_loss(lists: _Lists, mat: SmoothIndicatorMatrix, spec: LossSpec, h: float) -> np.ndarray:
    """Complex-step derivatives of the mode-consistent loss of one prepared
    list, ``Im loss(s + i h e_j) / h``, one per kept document.

    Stop-gradient mode: moving score j by ``i h`` changes exactly one logit
    of each frozen-prefix row, by ``i * alpha * h * prefix[r, j]``. So with
    the base rows' exponentials ``e`` (shifted by each row's max), their sums
    ``S`` and grade-weighted sums ``U``, the perturbed weighted sum is the
    rank-one update ``(U_r + g_j c_rj) / (S_r + c_rj)``, where
    ``c_rj = e_rj * expm1(i * alpha * h * prefix[r, j])``: all N perturbed
    ``u`` vectors come from ``(K, N)`` arrays. Full mode runs the N
    perturbed lists through ``smooth_indicators`` as batches of at most
    ``FD_CHUNK_ELEMENTS`` row elements.
    """
    k = int(lists.k[0])
    scores, rel = lists.scores[0], lists.rel[0]
    n = scores.size
    if spec.grad_mode == STOP_GRADIENT:
        prefix = mat.prefix_products[0]
        logits = spec.params.alpha * scores * prefix
        exps = np.exp(logits - logits.max(axis=1, keepdims=True))
        total = exps.sum(axis=1, keepdims=True)
        weighted = (exps * rel).sum(axis=1, keepdims=True)
        change = exps * np.expm1(1j * h * (spec.params.alpha * prefix))
        # (N, K): row j moves score j by i h
        u = ((weighted + rel * change) / (total + change)).T
    else:
        perturbed = scores + 1j * h * np.eye(n)
        chunk = max(1, FD_CHUNK_ELEMENTS // (k * n))
        u = np.concatenate([
            smooth_indicators(perturbed[i:i + chunk], spec.params, k=k).rows @ rel
            for i in range(0, n, chunk)
        ])
    loss = 1.0 - metric_from_weighted_sums(u, spec.kind, k, lists.rel_total[0], lists.ideal[0])
    return loss.imag / h


def finite_difference_check(rel, raw_scores, spec: LossSpec, h: float = STEP_H) -> GradientReport:
    """Complex-step derivatives of the mode-consistent loss versus the
    analytic gradient.

    For stop-gradient mode the compared function recomputes every softmax row
    from perturbed scores but keeps the prefix products (and the shift's
    subtracted minimum, in both modes) fixed at their base-point values;
    documents AP drops get numeric 0. The analytic gradient and the frozen
    prefixes come from one forward pass on the shifted base point.

    The step ``h`` is imaginary, so no two losses are subtracted and a tiny
    step (the default) has no cancellation; its error is truncation, about
    ``h**2`` times the loss's third derivative, which a larger ``h`` shows.
    Raises ValueError unless ``0 < h < inf``.
    A check costs O(K N) array work in stop-gradient mode and one batched
    recursion over the N perturbed lists in full mode.
    """
    if not 0.0 < h < np.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    shifted = shift_scores(raw_scores, spec.shift_margin)
    if h > 1e-2:
        warnings.warn(f"step h={h} above 1e-2; truncation may dominate")
    lists = _prepare(rel, shifted, spec)
    mat, u, _ = _forward(lists, spec)
    analytic = -_gradient(lists, mat, u, spec)
    numeric = lists.restore(_differenced_loss(lists, mat, spec, h)[None])

    max_abs_err = float(np.abs(analytic - numeric).max())
    denom = max(float(np.abs(analytic).max()), float(np.abs(numeric).max()), REL_ERR_FLOOR)
    return GradientReport(
        analytic=analytic,
        numeric=numeric,
        max_abs_err=max_abs_err,
        max_rel_err=max_abs_err / denom,
        step_h=h,
    )
