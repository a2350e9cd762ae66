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

``finite_difference_checks`` checks many lists at once: the lists of one
length, kept cutoff and spec but for alpha go through one preparation,
forward pass, backward pass and complex-step pass together, with each list's
alpha as a ``(B, 1)`` array, and each report keeps the bits of the one-list
check, ``finite_difference_check``, which is its batch of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .smoothi import SmoothIndicatorMatrix, _lists_per_call, smooth_indicators
from .smooth_metrics import (
    STOP_GRADIENT,
    LossSpec,
    _Lists,
    _forward,
    _prepare,
    _shift,
    _upstream_coeffs,
    metric_from_weighted_sums,
    shift_scores,
)

# max_rel_err normalizes by max(|analytic|, |numeric|, this floor), the
# magnitudes of the two gradient vectors: both round on the scale of their
# largest component, so a tiny component cannot be judged on its own.
REL_ERR_FLOOR = 1e-8

# The default complex step: its truncation error, about h^2 f''', vanishes.
STEP_H = 1e-20


@dataclass
class GradientReport:
    """Analytic-versus-numeric comparison for one loss on one instance."""

    analytic: np.ndarray
    numeric: np.ndarray
    max_abs_err: float
    max_rel_err: float
    step_h: float


def _softmax_rows_backward_stop(mat: SmoothIndicatorMatrix, upstream: np.ndarray, alpha) -> np.ndarray:
    """dL/dS with the prefix products held constant (stop-gradient semantics)."""
    rows = mat.rows
    inner = (upstream * rows).sum(axis=-1, keepdims=True)
    dz = rows * (upstream - inner)
    return alpha * (mat.prefix_products * dz).sum(axis=-2)


def _softmax_rows_backward_full(mat: SmoothIndicatorMatrix, upstream: np.ndarray, alpha) -> np.ndarray:
    """dL/dS through the complete recursion, accumulated from the last rank up.

    ``q`` carries dL/d(prefix of rank r+1); each step routes it into the
    current row (prefixes multiply the row's logits) and into the next-lower
    prefix (prefixes chain by the factor ``1 - row - delta``). Arrays are
    ``(B, K, N)``; padded entries have zero rows and so get 0. Every step
    works on the whole batch: past a list's cutoff its rows, prefixes and
    upstream are 0, so those ranks add exact zeros and leave its ``q`` at 0.
    """
    rows, prefixes = mat.rows, mat.prefix_products
    # the forward ran at alpha 1.0 on the scaled scores: its logits are scaled * prefix
    scaled, delta = mat.scores, mat.params.delta
    ds = np.zeros(scaled.shape)
    q = np.zeros(scaled.shape)
    for r in range(rows.shape[1] - 1, -1, -1):
        row, prefix = rows[:, r], prefixes[:, r]
        a = upstream[:, r] - q * prefix
        dz = row * (a - (a * row).sum(axis=1, keepdims=True))
        ds += alpha * prefix * dz
        q = scaled * dz + q * (1.0 - row - delta)
    return ds


def _gradient(lists: _Lists, mat: SmoothIndicatorMatrix, u: np.ndarray, spec: LossSpec, alpha) -> np.ndarray:
    """Gradient of the smooth metric wrt the (positive) scores, in the
    caller's layout, from one forward pass (``_forward``) over ``lists``.
    ``alpha`` is the inverse temperature the forward scaled the scores by:
    the spec's, or one per list as a ``(B, 1)`` array."""
    coeffs = _upstream_coeffs(u, spec.kind, lists.k, lists.norm)
    upstream = coeffs[:, :, None] * lists.rel[:, None, :]
    if spec.grad_mode == STOP_GRADIENT:
        grad = _softmax_rows_backward_stop(mat, upstream, alpha)
    else:
        grad = _softmax_rows_backward_full(mat, upstream, alpha)
    return lists.restore(grad)


def _value_and_gradient(rel, scores, spec: LossSpec, mask=None):
    """Smooth metric value and its gradient wrt the (positive) scores, for
    one list or a padded batch (see ``loss_and_gradient``)."""
    lists = _prepare(rel, scores, spec, mask)
    mat, u, value = _forward(lists, spec, spec.params.alpha)
    return lists.values(value), _gradient(lists, mat, u, spec, spec.params.alpha)


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


def _differenced_loss(lists: _Lists, mat: SmoothIndicatorMatrix, spec: LossSpec, alpha: np.ndarray,
                      h: float) -> np.ndarray:
    """Complex-step derivatives of the mode-consistent loss of prepared lists
    of one length and cutoff, ``Im loss(s + i h e_j) / h``, one row per list
    and one column per kept document. ``alpha`` holds each list's alpha as a
    ``(B, 1)`` array, and ``mat`` is the forward pass at those alphas.

    Stop-gradient mode: moving score j by ``i h`` changes exactly one logit
    of each frozen-prefix row, by ``i * alpha * h * prefix[r, j]``. So with
    the base rows' exponentials ``e`` (shifted by each row's max), their sums
    ``S`` and grade-weighted sums ``U``, the perturbed weighted sum is the
    rank-one update ``(U_r + g_j c_rj) / (S_r + c_rj)``, where
    ``c_rj = e_rj * expm1(i * alpha * h * prefix[r, j])``: all B N perturbed
    ``u`` vectors come from ``(B, K, N)`` arrays. Full mode runs the N
    perturbed copies of each list through ``smooth_indicators`` as batches
    of at most ``smoothi.CHUNK_ELEMENTS`` row elements (unchunked, a
    128-document list would hold 34 MB per array).
    """
    k = int(lists.k[0])
    scores, rel = lists.scores, lists.rel
    count, n = scores.shape
    if spec.grad_mode == STOP_GRADIENT:
        prefix, alpha = mat.prefix_products, alpha[:, :, None]
        logits = alpha * scores[:, None, :] * prefix
        exps = np.exp(logits - logits.max(axis=2, keepdims=True))
        total = exps.sum(axis=2, keepdims=True)
        weighted = (exps * rel[:, None, :]).sum(axis=2, keepdims=True)
        change = exps * np.expm1(1j * h * (alpha * prefix))
        # (B, N, K): row (b, j) moves score j of list b by i h
        u = ((weighted + rel[:, None, :] * change) / (total + change)).transpose(0, 2, 1)
    else:
        # copy c perturbs document c % n of list c // n
        per_call = _lists_per_call(k, n)
        parts = []
        for start in range(0, count * n, per_call):
            b, j = np.divmod(np.arange(start, min(start + per_call, count * n)), n)
            perturbed = scores[b] + 1j * h * (np.arange(n) == j[:, None])
            rows = smooth_indicators(alpha[b] * perturbed, mat.params, k=k).rows
            parts.append((rows @ rel[b][:, :, None])[:, :, 0])
        u = np.concatenate(parts).reshape(count, n, k)
    loss = 1.0 - metric_from_weighted_sums(u, spec.kind, lists.norm[:, None])
    return loss.imag / h


def _grouped(lists, specs, shifted) -> list[tuple[list[int], LossSpec, _Lists]]:
    """The lists, with their ``shifted`` scores, of one length and one spec
    but for alpha (so of one kept K) prepared together, in chunks of at most
    ``smoothi.CHUNK_ELEMENTS`` indicator-row elements: each chunk's input
    positions, the spec of its first list and the prepared lists. A
    ValueError here means that some list is invalid, not which one."""
    groups: dict[tuple, list[int]] = {}
    for i, (scores, spec) in enumerate(zip(shifted, specs)):
        # a batch's _prepare clamps each cutoff to its list; the one-list check refuses it
        if spec.k is not None and spec.k > scores.size:
            raise ValueError("a cutoff exceeds its list's length")
        key =(scores.size, spec.kind, spec.k, spec.params.delta, spec.shift_margin, spec.grad_mode)
        groups.setdefault(key, []).append(i)
    chunks = []
    for (n, *_), members in groups.items():
        spec = specs[members[0]]
        width = int(spec.kept_length(n))
        per_call = _lists_per_call(spec.k or width, width)
        for start in range(0, len(members), per_call):
            part = members[start:start + per_call]
            rel = np.array([lists[i][0] for i in part], dtype=np.float64)
            chunks.append((part, spec, _prepare(rel, np.array([shifted[i] for i in part]), spec)))
    return chunks


def _raise_first_invalid(lists, specs, label: str) -> None:
    """Raise the one-list check's error for the first list it refuses, the
    message prefixed with ``label.format(i)``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # each list visited here has given its tie warning
        for i, ((rel, raw), spec) in enumerate(zip(lists, specs)):
            try:
                _prepare(rel, shift_scores(raw, spec.shift_margin), spec)
            except ValueError as exc:
                raise type(exc)(label.format(i) + str(exc)) from None


def _checks(lists, specs, h: float, label: str) -> list[GradientReport]:
    """The reports of ``finite_difference_checks``; ``label`` prefixes the
    message of an invalid list's error."""
    if not 0.0 < h < np.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    try:
        shifted = [shift_scores(raw, spec.shift_margin) for (_, raw), spec in zip(lists, specs)]
        if h > 1e-2:
            warnings.warn(f"step h={h} above 1e-2; truncation may dominate")
        chunks = _grouped(lists, specs, shifted)
    except ValueError:
        _raise_first_invalid(lists, specs, label)
        raise
    reports = [None] * len(lists)
    for part, spec, prepared in chunks:
        alpha = np.array([specs[i].params.alpha for i in part])[:, None]
        mat, u, _ = _forward(prepared, spec, alpha)
        analytic = -_gradient(prepared, mat, u, spec, alpha)
        numeric = prepared.restore(_differenced_loss(prepared, mat, spec, alpha, h))
        for i, a, nu, err, a_max, nu_max in zip(
            part, analytic, numeric, np.abs(analytic - numeric).max(axis=1).tolist(),
            np.abs(analytic).max(axis=1).tolist(), np.abs(numeric).max(axis=1).tolist(),
        ):
            reports[i] = GradientReport(a, nu, err, err / max(a_max, nu_max, REL_ERR_FLOOR), h)
    return reports


def finite_difference_checks(lists, specs, h: float = STEP_H) -> list[GradientReport]:
    """``finite_difference_check`` on many ``(rel, raw_scores)`` lists, with
    one ``LossSpec`` per list: one report per list, equal bit for bit to the
    one-list check's.

    Raises ValueError when ``lists`` and ``specs`` differ in length, and as
    the one-list check does for a bad ``h``. Before any recursion, the first
    list the one-list check refuses (its scores, its grades, a cutoff above
    its length, an undefined loss) raises that check's error, its message
    prefixed with ``list <i>: ``. The lists of one (n, kept K) and one spec
    but for alpha share one preparation, forward pass, backward pass and
    complex-step pass per chunk of at most ``smoothi.CHUNK_ELEMENTS`` row
    elements. Each list's alpha enters as a ``(B, 1)`` array where the
    one-list check multiplies by its scalar, which keeps every bit.
    """
    if len(lists) != len(specs):
        raise ValueError(f"lists and specs differ in length: {len(lists)}, {len(specs)}")
    return _checks(lists, specs, h, "list {}: ")


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
    recursion over the N perturbed lists in full mode. It is the batch of
    one of ``finite_difference_checks``, which shares that work among the
    lists of one length, cutoff and spec.
    """
    return _checks([(rel, raw_scores)], [spec], h, "")[0]
