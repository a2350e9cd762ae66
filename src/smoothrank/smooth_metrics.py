"""Differentiable approximations of P@K, AP and NDCG@K, and training losses.

Each smooth metric replaces the hard "grade of the document at rank r" with
the indicator-weighted grade sum ``u_r = sum_j rel[j] * rows[r, j]`` computed
from the smooth rank indicator rows, so the metric becomes a smooth function
of the scores. The training loss is ``1 - metric`` evaluated on scores
shifted to be strictly positive.

The metrics are evaluated along the last axis, so one list and a padded
``(B, N)`` batch of lists share one code path: padded grades are 0, and each
list's weighted sums past its own cutoff are ignored.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .rank_core import UndefinedMetricError, as_relevance, as_scores, ideal_dcg
from .smoothi import SmoothIndicatorMatrix, SmoothIParams, smooth_indicators

SMOOTH_P_AT_K = "p@k"
SMOOTH_AP = "ap"
SMOOTH_NDCG_AT_K = "ndcg@k"
LOSS_KINDS = (SMOOTH_P_AT_K, SMOOTH_AP, SMOOTH_NDCG_AT_K)

# gradient conventions: through the damping prefix products, or with them frozen
FULL = "full"
STOP_GRADIENT = "stop_gradient"
GRAD_MODES = (FULL, STOP_GRADIENT)

# AP walks every rank, so its cost is quadratic in list length; lists longer
# than this are truncated to their top-scoring documents (LETOR lists are
# typically well under this). Read at call time, so a test can lower it.
AP_LIST_CAP = 128


@dataclass(frozen=True)
class LossSpec:
    """Which smooth metric to optimize, at which cutoff, with which params.

    ``k`` is the metric cutoff, ``None`` meaning the full list length; AP
    walks every rank and takes none. ``params`` holds alpha and delta.
    ``shift_margin`` is the minimum value raw scores are shifted to before
    entering the smooth indicator. AP ranks at most ``AP_LIST_CAP``
    documents per list. ``grad_mode`` is one of ``GRAD_MODES``.
    """

    kind: str
    params: SmoothIParams
    k: int | None = None
    shift_margin: float = 1.0
    grad_mode: str = STOP_GRADIENT

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"loss kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"cutoff k must be >= 1, got {self.k}")
        if self.kind == SMOOTH_AP and self.k is not None:
            raise ValueError(f"smooth AP walks every rank and takes no cutoff k, got k={self.k}")
        if self.grad_mode not in GRAD_MODES:
            raise ValueError(f"grad_mode must be one of {GRAD_MODES}, got {self.grad_mode!r}")
        # a NaN or infinite margin would make every shifted score NaN or infinite
        if not 0.0 < self.shift_margin < np.inf:
            raise ValueError(f"shift_margin must be positive and finite, got {self.shift_margin}")

    def kept_length(self, n):
        """How many documents of an ``n``-document list the metric ranks: AP
        keeps the top ``AP_LIST_CAP``, the others keep every document."""
        return np.minimum(n, AP_LIST_CAP) if self.kind == SMOOTH_AP else n

    def label(self) -> str:
        if self.kind == SMOOTH_AP:
            return "smooth-ap"
        cut = "N" if self.k is None else str(self.k)
        base = "p" if self.kind == SMOOTH_P_AT_K else "ndcg"
        return f"smooth-{base}@{cut}"


def make_loss_spec(
    kind: str,
    k: int | None = LossSpec.k,
    alpha: float = 1.0,
    delta: float = SmoothIParams.delta,
    grad_mode: str = LossSpec.grad_mode,
    shift_margin: float = LossSpec.shift_margin,
) -> LossSpec:
    """Convenience constructor building the indicator params alongside."""
    return LossSpec(kind=kind, params=SmoothIParams(alpha=alpha, delta=delta), k=k,
                    shift_margin=shift_margin, grad_mode=grad_mode)


def shift_scores(raw_scores, margin: float = 1.0) -> np.ndarray:
    """Shift scores so the minimum equals ``margin`` (> 0), preserving order.

    The smooth indicator requires strictly positive scores; adding a constant
    never changes the ranking. Ties survive the shift, which strict-mode
    consumers will reject, hence the warning.
    """
    arr = as_scores(raw_scores)
    if not 0.0 < margin < np.inf:
        raise ValueError(f"margin must be positive and finite, got {margin}")
    out = _shift(arr, margin)
    ordered = np.sort(out)
    if np.any(ordered[1:] == ordered[:-1]):
        warnings.warn("shifted scores contain ties; strict-mode consumers will reject them")
    return out


def _shift(raw, margin: float, mask=None) -> np.ndarray:
    """Each list (last axis) moved so its minimum valid score is ``margin``.

    No validation and no tie scan: training batches, where ties are routine,
    come through here, and the consumer validates.
    """
    raw = np.asarray(raw, dtype=np.float64)
    low = np.min(raw, axis=-1, keepdims=True, initial=np.inf, where=True if mask is None else mask)
    return raw - low + margin


def undefined_lists(rel, kind: str) -> np.ndarray:
    """Which lists (along the last axis of non-negative grades) have no smooth
    metric value: AP without a relevant document, NDCG whose ideal DCG is 0
    (every gain ``2^grade - 1`` is 0). P@K is always defined."""
    rel = np.asarray(rel, dtype=np.float64)
    if kind == SMOOTH_AP:
        return rel.sum(axis=-1) == 0.0
    if kind == SMOOTH_NDCG_AT_K:
        return np.exp2(rel.max(axis=-1)) - 1.0 == 0.0
    return np.zeros(rel.shape[:-1], dtype=bool)


def metric_from_weighted_sums(u, kind: str, k, rel_total, ideal):
    """Evaluate a smooth metric given the weighted row sums ``u``.

    Works along the last axis: ``u`` is ``(K,)`` for one list or ``(B, K)``
    for a batch, and ``k``, ``rel_total`` and ``ideal`` are scalars or one
    value per list. Entries of ``u`` past a list's cutoff ``k`` must be 0
    (``u`` of exactly ``k`` entries needs nothing). Returns a float for one
    list and a ``(B,)`` array for a batch. Shared by the forward path, the
    analytic gradients, and the finite-difference harness (which
    re-evaluates it on perturbed rows).
    """
    u = np.asarray(u)
    ranks = np.arange(1.0, u.shape[-1] + 1.0)
    if kind == SMOOTH_P_AT_K:
        value = u.sum(axis=-1) / k
    elif kind == SMOOTH_AP:
        prec = np.cumsum(u, axis=-1) / ranks
        value = (u * prec).sum(axis=-1) / rel_total
    elif kind == SMOOTH_NDCG_AT_K:
        gains = np.exp2(u) - 1.0
        value = (gains / np.log2(ranks + 1.0)).sum(axis=-1) / ideal
    else:
        raise ValueError(f"unknown loss kind {kind!r}")
    return float(value) if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class _Lists:
    """Validated lists, padded to a common width, with what the metric needs.

    ``rel``, ``scores`` and ``mask`` are ``(B, N)``; padded grades are 0 and
    ``mask`` is ``None`` when no entry is padded. ``k``, ``rel_total`` and
    ``ideal`` hold each list's cutoff and normalizers. The lists are sorted
    by cutoff, longest first, for the staircase recursion; ``order`` holds
    the input positions they came from. When AP truncates long lists,
    ``keep`` holds the ``(B, cap)`` input positions the three arrays were
    gathered from, and ``width`` the input's width.
    """

    rel: np.ndarray
    scores: np.ndarray
    mask: np.ndarray | None
    k: np.ndarray
    rel_total: np.ndarray
    ideal: np.ndarray
    keep: np.ndarray | None
    order: np.ndarray
    width: int
    single: bool

    def restore(self, per_doc: np.ndarray) -> np.ndarray:
        """Per-document ``(B, N)`` values back in the caller's layout; the
        documents AP dropped get 0."""
        if self.keep is not None:
            full = np.zeros((per_doc.shape[0], self.width))
            np.put_along_axis(full, self.keep, per_doc, axis=1)
            per_doc = full
        return per_doc[0] if self.single else self._unsorted(per_doc)

    def values(self, per_list: np.ndarray):
        """Per-list values in the caller's layout: a float for one list."""
        return float(per_list[0]) if self.single else self._unsorted(per_list)

    def _unsorted(self, per_list: np.ndarray) -> np.ndarray:
        out = np.empty_like(per_list)
        out[self.order] = per_list
        return out


def _prepare(rel, scores, spec: LossSpec, mask=None) -> _Lists:
    """Validate one list or a padded batch and assemble what the metric needs.

    One list must be at least as long as the cutoff. In a batch, whose lists
    differ in length, each list's cutoff is ``min(k, n_q)``, the cutoff
    ``evaluate`` scores a short list at. AP ranks at most ``AP_LIST_CAP``
    documents of each list: its top-scoring ones. The lists come back
    sorted by cutoff, longest first (stably), as the staircase recursion
    needs them.
    """
    arr = np.asarray(scores, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = as_scores(arr)
    elif arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError(f"scores must be a non-empty (n,) or (B, n) array, got shape {arr.shape}")
    batch = arr.reshape(-1, arr.shape[-1])
    grades = np.asarray(rel, dtype=np.float64)
    if grades.shape != arr.shape:
        raise ValueError(f"relevance has shape {grades.shape}, expected {arr.shape}")
    grades = grades.reshape(batch.shape)
    if mask is None:
        valid = None
        n = np.full(len(batch), batch.shape[1])
        valid_scores = batch
    else:
        valid = np.asarray(mask, dtype=bool)
        if valid.shape != batch.shape:
            raise ValueError(f"mask has shape {valid.shape}, expected {batch.shape}")
        n = valid.sum(axis=1)
        valid_scores = batch[valid]
        grades = np.where(valid, grades, 0.0)
    if not single and not np.all(np.isfinite(valid_scores)):
        raise ValueError("scores contain NaN or Inf")
    grades = as_relevance(grades.ravel(), grades.size, binary=spec.kind != SMOOTH_NDCG_AT_K)
    grades = grades.reshape(batch.shape)

    if single and spec.k is not None and spec.k > n[0]:
        raise ValueError(f"cutoff k={spec.k} exceeds list length {n[0]}")
    k = spec.kept_length(n) if spec.k is None else np.minimum(n, spec.k)
    undefined = undefined_lists(grades, spec.kind)
    if undefined.any():
        where = "" if single else f" (lists {np.flatnonzero(undefined).tolist()})"
        if spec.kind == SMOOTH_AP:
            raise UndefinedMetricError(f"smooth AP is undefined{where}: no relevant document")
        raise UndefinedMetricError(f"smooth NDCG is undefined{where}: all relevance grades are zero")
    order = np.argsort(-k, kind="stable")
    batch, grades, n, k = batch[order], grades[order], n[order], k[order]
    valid = None if valid is None else valid[order]
    rel_total = grades.sum(axis=1)
    if spec.kind == SMOOTH_NDCG_AT_K:
        ideal = ideal_dcg(grades, k[:, None])[:, 0]
    else:
        ideal = np.ones(len(grades))

    keep = None
    cap = AP_LIST_CAP
    if spec.kind == SMOOTH_AP and batch.shape[1] > cap:
        # a list longer than the cap keeps its top documents in descending
        # score order (stable); a shorter one keeps its documents in place
        if valid is None:
            valid = np.ones(batch.shape, dtype=bool)
        by_score = np.argsort(np.where(valid, -batch, np.inf), axis=1, kind="stable")
        in_place = np.argsort(~valid, axis=1, kind="stable")
        keep = np.where((n > cap)[:, None], by_score, in_place)[:, :cap]
        batch, grades, valid = (np.take_along_axis(a, keep, axis=1) for a in (batch, grades, valid))
    return _Lists(
        rel=grades,
        scores=batch,
        mask=None if valid is None or valid.all() else valid,
        k=k,
        rel_total=rel_total,
        ideal=ideal,
        keep=keep,
        order=order,
        width=arr.shape[-1],
        single=single,
    )


def _forward(lists: _Lists, spec: LossSpec, alpha) -> tuple[SmoothIndicatorMatrix, np.ndarray, np.ndarray]:
    """Indicator rows, weighted row sums ``u`` (0 past each list's cutoff,
    where the staircase leaves the rows 0) and metric value of each list.

    ``alpha`` is the spec's inverse temperature, or one per list as a
    ``(B, 1)`` array. The recursion runs at alpha 1.0 on ``alpha * scores``,
    which gives each list the bits of a call at its own alpha (see
    ``smooth_indicators``), so the returned matrix holds the scaled scores.
    """
    params = SmoothIParams(alpha=1.0, delta=spec.params.delta)
    mat = smooth_indicators(alpha * lists.scores, params, lists.mask, k=lists.k)
    u = (mat.rows @ lists.rel[:, :, None])[:, :, 0]
    return mat, u, metric_from_weighted_sums(u, spec.kind, lists.k, lists.rel_total, lists.ideal)


def smooth_metric(rel, scores, spec: LossSpec) -> float:
    """Smooth P@K / AP / NDCG@K of strictly positive scores.

    P@K stays in [0, 1] for any parameters. AP and NDCG@K can slightly
    exceed 1 when alpha is too small for the score gaps (split indicator
    mass lets a document be re-selected at several ranks); above the
    certificate threshold they sit within the proven distance of the exact
    metric, hence effectively in [0, 1].
    """
    lists = _prepare(rel, scores, spec)
    return lists.values(_forward(lists, spec, spec.params.alpha)[2])


def smooth_precision_at_k(rel, scores, spec: LossSpec) -> float:
    if spec.kind != SMOOTH_P_AT_K:
        raise ValueError(f"spec kind is {spec.kind!r}, expected {SMOOTH_P_AT_K!r}")
    return smooth_metric(rel, scores, spec)


def smooth_ap(rel, scores, params: SmoothIParams) -> float:
    return smooth_metric(rel, scores, LossSpec(kind=SMOOTH_AP, params=params))


def smooth_ndcg_at_k(rel, scores, spec: LossSpec) -> float:
    if spec.kind != SMOOTH_NDCG_AT_K:
        raise ValueError(f"spec kind is {spec.kind!r}, expected {SMOOTH_NDCG_AT_K!r}")
    return smooth_metric(rel, scores, spec)


def training_loss(rel, raw_scores, spec: LossSpec) -> float:
    """``1 - smooth_metric`` on shifted scores, minimized at a perfect ranking.

    In [0, 1] for P@K; the AP/NDCG losses can dip slightly below 0 in the
    under-sharpened regime where the metric overshoots 1 (see smooth_metric).
    """
    return 1.0 - smooth_metric(rel, shift_scores(raw_scores, spec.shift_margin), spec)
