"""Feedforward document scorer and its listwise training loop.

The scorer normalizes the input features with batch norm, feeds them through
one ReLU hidden layer (1024 units by default, batch-normalized
pre-activations) and a linear head that emits one score per document. The
hidden batch norm removes any shift of its input, so the first layer has no
bias and the input batch norm no shift: six trainable parameters. It is
trained with Adam against any of the smooth ranking losses, on mini-batches
of whole queries, and the weights of the best validation-NDCG epoch are the
ones returned.

A training-mode forward pass never normalizes a hidden-layer array: the
hidden batch statistics follow from the input's d x d covariance, and the
hidden batch norm folds into the first layer's weights and bias, as it does in
eval mode. For ``backward`` it caches the normalized input ``xhat1``, the
activations ``h``, whose ``h > 0`` is the ReLU mask, and hidden-width vectors.
Scores, running statistics and gradients are those of the unfused batch-norm
formulas up to rounding. The head takes one dot product per row, so equal
feature rows in one call get equal scores. Eval mode folds both batch norms
into one affine map on fixed-height slices, and version 1 checkpoints load
folded (see ``Scorer._eval_forward`` and ``load_checkpoint``).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data_io import Dataset, DatasetError
from .gradients import loss_and_gradient
from .rank_core import _ideal_dcgs, _ranked_metrics
from .smooth_metrics import SMOOTH_NDCG_AT_K, LossSpec, undefined_lists

CHECKPOINT_FORMAT = "smoothrank-scorer"
CHECKPOINT_VERSION = 2

# train() pads a batch's lists only to the longest list of their bucket, and a
# bucket's longest list is at most this factor times its shortest. A rank step
# costs 15-20 us on small arrays whatever their size, and the staircase
# recursion works only on the lists that still have ranks left, so a wider
# bucket pays in padded columns, not in rows. On letor-varlen's training
# lengths (8-120 docs, AP with K = N, 128-query batches), 2x buckets take 3.5
# calls and 161 rank steps per batch for 1.34x the K*N work of one call per
# list, against 9 calls, 317 steps and 1.09x at 1.25x; one bucket per batch
# would take 80 steps for 3.0x. One BLAS thread, loss+grad per batch: 7.7 ms
# at 1.25x, 6.0 at 2x, 5.2 at 3x; evaluate on two splits 14.9, 12.6 and 12.2
# ms. 2x and 3x tied on letor-varlen's epoch_s (2 of 4 bench pairs each), and
# 2x pads less.
BUCKET_SPREAD = 2.0

# Eval-mode slices hold about this many hidden activations (512 KiB), which
# stay in the 2 MiB per-core L2 cache. One eval forward, one BLAS thread: 11 ms
# up to 2^16 and 16 ms at 2^18 on 4,000 x 10 rows at 1,024 units, 2.1 and 3.1
# ms on 3,000 x 46 rows at 128 units.
EVAL_SLICE_ELEMENTS = 2**16

# the metric cutoffs evaluate() reports by default, and train() validates at
EVAL_CUTOFFS = (1, 5, 10)


def eval_slice_shape(hidden_dim: int) -> tuple[int, int]:
    """Rows and columns of every eval-mode product: the hidden width rounded
    up to a multiple of 64, and a multiple of 64 rows, at least 64."""
    cols = -(-hidden_dim // 64) * 64
    return max(64, EVAL_SLICE_ELEMENTS // cols // 64 * 64), cols


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; carries the epoch it happened in."""

    def __init__(self, epoch: int, message: str):
        super().__init__(message)
        self.epoch = epoch


class NonFiniteScoresError(ValueError):
    """The scorer emitted NaN/Inf scores (typically a diverged checkpoint)."""


def _standardize(a: np.ndarray, eps: float):
    """Batch-normalize the columns of ``a`` in place with its own batch
    statistics; returns the mean and the variance.

    The steps and their rounding are those of ``a.mean(axis=0)``,
    ``a.var(axis=0)`` and ``(a - mean) * (1 / sqrt(var + eps))``, but the
    variance comes from the centered array instead of a second mean.
    """
    mean = a.mean(axis=0)
    a -= mean
    var = np.square(a).sum(axis=0) / a.shape[0]
    a *= 1.0 / np.sqrt(var + eps)
    return mean, var


class Scorer:
    """Batch-norm -> ReLU hidden layer -> batch-norm -> linear score head.

    Training mode normalizes with batch statistics and updates the running
    ones; eval mode uses the running statistics and is a pure function of
    (weights, input). Hidden weights use He-uniform init.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int = 1024,
        seed: int = 0,
        bn_momentum: float = 0.9,
        bn_eps: float = 1e-5,
    ):
        if input_dim < 1 or hidden_dim < 1:
            raise ValueError("input_dim and hidden_dim must be >= 1")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.bn_momentum = bn_momentum
        self.bn_eps = bn_eps
        rng = np.random.default_rng(seed)
        lim1 = np.sqrt(6.0 / input_dim)
        lim2 = np.sqrt(6.0 / hidden_dim)
        self.w1 = rng.uniform(-lim1, lim1, size=(input_dim, hidden_dim))
        self.w2 = rng.uniform(-lim2, lim2, size=hidden_dim)
        self.b2 = np.zeros(1)
        self.bn1_gamma = np.ones(input_dim)
        self.bn1_mean = np.zeros(input_dim)
        self.bn1_var = np.ones(input_dim)
        self.bn2_gamma = np.ones(hidden_dim)
        self.bn2_beta = np.zeros(hidden_dim)
        self.bn2_mean = np.zeros(hidden_dim)
        self.bn2_var = np.ones(hidden_dim)

    PARAM_NAMES = ("w1", "w2", "b2", "bn1_gamma", "bn2_gamma", "bn2_beta")
    RUNNING_NAMES = ("bn1_mean", "bn1_var", "bn2_mean", "bn2_var")

    def parameters(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.PARAM_NAMES}

    def state(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.PARAM_NAMES + self.RUNNING_NAMES}

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.state().items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, arr in snap.items():
            getattr(self, name)[...] = arr

    def forward(self, x, training: bool = False):
        """Eval mode returns the scores. Training mode normalizes by the batch
        statistics, the hidden ones folded into the first layer, folds them
        into the running statistics, and returns ``(scores, cache)`` for
        :meth:`backward`."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"features must have shape (n, {self.input_dim}), got {x.shape}")
        if not training:
            return self._eval_forward(x)
        xhat1 = x.copy()
        mu1, var1 = _standardize(xhat1, self.bn_eps)
        # the hidden pre-activations are a @ w1: their batch mean is abar @ w1
        # and their batch variance the diagonal of w1' C w1, C the covariance
        # of a. A form that is 0 in exact arithmetic can round below 0.
        a = self.bn1_gamma * xhat1
        abar = a.mean(axis=0)
        centered = a - abar
        cov = centered.T @ centered / len(x)
        mu2 = abar @ self.w1
        var2 = np.maximum(np.einsum("kj,kj->j", self.w1, cov @ self.w1), 0.0)
        inv2 = 1.0 / np.sqrt(var2 + self.bn_eps)
        col = self.bn2_gamma * inv2
        keep = self.bn_momentum
        self.bn1_mean = keep * self.bn1_mean + (1 - keep) * mu1
        self.bn1_var = keep * self.bn1_var + (1 - keep) * var1
        self.bn2_mean = keep * self.bn2_mean + (1 - keep) * mu2
        self.bn2_var = keep * self.bn2_var + (1 - keep) * var2
        # the bias enters as a row of the folded weights, met by a column of ones
        folded = np.vstack([self.w1 * col, self.bn2_beta - mu2 * col])
        h = np.hstack([a, np.ones((len(x), 1))]) @ folded
        np.maximum(h, 0.0, out=h)
        scores = self._head(h)
        return scores, {"xhat1": xhat1, "h": h, "abar": abar, "mu2": mu2, "inv2": inv2}

    def _head(self, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Scores of the hidden activations ``h``. Each row is its own dot
        product, so equal rows get equal scores wherever they sit; a BLAS
        matrix-vector product rounds a row by its position."""
        scores = np.einsum("ij,j->i", h, self.w2, out=out)
        scores += self.b2[0]
        return scores

    def _eval_forward(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode scores ``relu(x @ W + b) . w2 + b2``, both batch norms
        folded in: ``W = s1[:, None] * w1 * s2``, ``b = beta2 - (mean2 + (mean1
        * s1) @ w1) * s2``, ``s = gamma / sqrt(var + eps)``. OpenBLAS can round
        a row by its position in a product whose height varies or whose width
        is no multiple of 8, so every product has the ``eval_slice_shape``, the
        input padded with zero rows and ``W`` with zero columns: a row then
        scores the same in any call and at any position."""
        s1 = self.bn1_gamma / np.sqrt(self.bn1_var + self.bn_eps)
        s2 = self.bn2_gamma / np.sqrt(self.bn2_var + self.bn_eps)
        rows, cols = eval_slice_shape(self.hidden_dim)
        w = np.pad(s1[:, None] * self.w1 * s2, ((0, 0), (0, cols - self.hidden_dim)))
        b = self.bn2_beta - (self.bn2_mean + (self.bn1_mean * s1) @ self.w1) * s2
        padded = np.zeros((len(x) + -len(x) % rows, self.input_dim))
        padded[: len(x)] = x
        scores = np.empty(len(padded))
        for start in range(0, len(padded), rows):
            h = (padded[start : start + rows] @ w)[:, : self.hidden_dim]
            h += b
            np.maximum(h, 0.0, out=h)
            self._head(h, out=scores[start : start + rows])
        return scores[: len(x)]

    def backward(self, cache: dict, dscores: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss wrt all trainable parameters.

        ``dscores`` is dL/d(score) per document for the cached forward pass,
        which must have run in training mode (batch statistics). The hidden
        batch norm's backward reads ``P = 1[h > 0] * dscores[:, None]`` only
        through ``gx = xhat1' P`` and ``colsum(P)``: one product of the ReLU
        mask, the one hidden-layer temporary, with ``xhat1 * dscores`` and a
        ``dscores`` column. The rest works on d x H arrays. With ``s = gamma2
        * inv2``, ``dbeta2 = w2 * colsum(P)`` and ``dgamma2 = w2 * inv2 *
        (colsum(w1 * gamma1[:, None] * gx) - colsum(P) * mu2)``, the
        pre-activations' gradient ``dZ = s * (w2 * P - (dbeta2 + xhat2 *
        dgamma2) / m)`` enters only as ``Y = xhat1' dZ = s * (w2 * gx -
        outer(mean(xhat1), dbeta2) - (D @ w1) * inv2 * dgamma2)``, where ``D =
        xhat1' (a - abar) / m`` makes ``(D @ w1) * inv2 = xhat1' xhat2 / m``.
        Then ``dw1 = gamma1[:, None] * Y``, which is ``a' dZ``, and the input
        batch norm's ``dgamma1 = rowsum(w1 * Y)``. A one-row batch has ``xhat1
        = 0`` and ``abar = 0``, so ``dw1``, ``dgamma1`` and ``dgamma2`` are
        exactly 0. The input batch norm's input gradient is not needed.
        """
        xhat1, h, abar, mu2, inv2 = (cache[key] for key in ("xhat1", "h", "abar", "mu2", "inv2"))
        m = h.shape[0]
        dw2 = h.T @ dscores
        mask = (h > 0.0).astype(np.float64)
        gxc = np.hstack([xhat1 * dscores[:, None], dscores[:, None]]).T @ mask
        gx, cs = gxc[:-1], gxc[-1]
        gamma1 = self.bn1_gamma
        dbt2 = self.w2 * cs
        dg2 = self.w2 * inv2 * (np.einsum("kj,kj->j", self.w1, gamma1[:, None] * gx) - cs * mu2)
        cross = xhat1.T @ (gamma1 * xhat1 - abar) / m
        y = (self.bn2_gamma * inv2) * (
            gx * self.w2 - np.outer(xhat1.mean(axis=0), dbt2) - (cross @ self.w1) * inv2 * dg2)
        return {
            "w1": gamma1[:, None] * y,
            "w2": dw2,
            "b2": np.array([dscores.sum()]),
            "bn1_gamma": np.einsum("kj,kj->k", y, self.w1),
            "bn2_gamma": dg2,
            "bn2_beta": dbt2,
        }


class Adam:
    """Standard Adam with bias correction, state keyed by parameter name."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, p in params.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m[...] = self.BETA1 * m + (1 - self.BETA1) * g
            v[...] = self.BETA2 * v + (1 - self.BETA2) * g * g
            mhat = m / (1 - self.BETA1**self.t)
            vhat = v / (1 - self.BETA2**self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.EPS)


@dataclass
class TrainConfig:
    """Training recipe: listwise loss, Adam's learning rate, query batching.

    Every loss setting is in ``loss``; Adam keeps its standard moments. The
    reference recipe uses learning rates in {1e-2, 1e-3}, 128 queries per
    batch and 50 epochs; none of that is enforced here (the CLI's --strict
    flag is). ``select_cutoff`` picks the validation NDCG cutoff used for
    best-epoch selection, ``None`` meaning the full list.
    """

    loss: LossSpec
    learning_rate: float = 1e-3
    batch_size_queries: int = 128
    epochs: int = 50
    seed: int = 0
    hidden_dim: int = 1024
    select_cutoff: int | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size_queries < 1:
            raise ValueError(f"batch_size_queries must be >= 1, got {self.batch_size_queries}")
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be >= 0 and finite, got {self.learning_rate}")
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.select_cutoff is not None and self.select_cutoff < 1:
            raise ValueError(f"select_cutoff must be >= 1, got {self.select_cutoff}")


@dataclass
class EpochRecord:
    """One epoch; ``skipped_queries`` counts the training queries left out
    because their loss is undefined (no relevant document), and
    ``val_skipped_queries`` the validation queries ``evaluate`` left out
    because they have no relevant document."""

    epoch: int
    train_loss: float
    val_metrics: dict[str, float]
    seconds: float
    skipped_queries: int
    val_skipped_queries: int


@dataclass
class TrainHistory:
    """One record per completed epoch plus the selected (best) epoch index."""

    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    select_metric: str = "ndcg"


def _binarized(rel: np.ndarray, kind: str) -> np.ndarray:
    # precision/AP losses need binary grades; grade >= 1 counts as relevant
    if kind == SMOOTH_NDCG_AT_K:
        return rel
    return (rel >= 1.0).astype(np.float64)


def length_buckets(lengths) -> list[np.ndarray]:
    """Positions of the lists grouped into buckets of similar length.

    The lists are sorted by length (stably); a bucket closes before the
    first list longer than ``BUCKET_SPREAD`` times the bucket's shortest.
    """
    lengths = np.asarray(lengths)
    order = np.argsort(lengths, kind="stable")
    ordered = lengths[order].tolist()
    buckets = []
    start = 0
    for i in range(1, order.size + 1):
        if i == order.size or ordered[i] > BUCKET_SPREAD * ordered[start]:
            buckets.append(order[start:i])
            start = i
    return buckets


def padded_lists(offsets: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(docs, mask)``: the indices of lists stored back to back in a flat
    array, padded to the longest with index 0; ``mask`` marks real entries."""
    cols = np.arange(lengths.max())
    mask = cols < lengths[:, None]
    return np.where(mask, offsets[:, None] + cols, 0), mask


def train(dataset: Dataset, config: TrainConfig) -> tuple[Scorer, TrainHistory]:
    """Train a scorer on the dataset's train split, selecting on validation.

    Mini-batches are whole queries (the loss is listwise): the documents of
    each batch are stacked for one batch-norm forward pass, per-query losses
    and score gradients are averaged, and the mean gradient is backpropagated
    through the scorer. The losses come from one ``loss_and_gradient`` call
    per bucket of similar-length lists (see ``length_buckets``), each list
    padded to its bucket's longest; a list shorter than the loss cutoff is
    scored at its own length. Queries whose loss is undefined (zero
    relevance) are skipped and counted, and so are the validation queries
    ``evaluate`` leaves out.

    The validation split's ``_ValidationPlan`` is built once per call,
    before epoch 1: the scored queries' stacked features, and per bucket
    their padded grades and ideal DCGs. Each epoch then runs one eval
    forward and the score-dependent half of the exact metrics, the same code
    as ``evaluate``, and keeps only the summary and the skip count. Raises
    DatasetError when no validation query has a relevant document, and
    DivergenceError when a batch loss, the parameters or a validation score
    go non-finite.
    """
    for split in ("train", "validation"):
        if not dataset.splits.get(split):
            raise DatasetError(f"training requires a non-empty {split!r} split")
    scorer = Scorer(dataset.feature_dim, config.hidden_dim, seed=config.seed)
    adam = Adam(config.learning_rate)
    rng = np.random.default_rng(config.seed)
    train_ids = dataset.query_ids("train")
    groups = [dataset.groups[qid] for qid in train_ids]
    rels = [_binarized(g.relevance, config.loss.kind) for g in groups]
    lengths = np.array([len(g) for g in groups])
    defined = np.array([not undefined_lists(rel, config.loss.kind) for rel in rels])
    select_key = "ndcg" if config.select_cutoff is None else f"ndcg@{config.select_cutoff}"
    cutoffs = EVAL_CUTOFFS if config.select_cutoff is None else (
        tuple(sorted({*EVAL_CUTOFFS, config.select_cutoff})))
    validation = _ValidationPlan(dataset, "validation", cutoffs)
    if not validation.scored:
        raise DatasetError("validation split has no queries with any relevant document")
    history = TrainHistory(select_metric=select_key)
    best_value = -np.inf
    best_snap = scorer.snapshot()

    for epoch in range(1, config.epochs + 1):
        tic = time.perf_counter()
        order = rng.permutation(len(train_ids))
        epoch_losses = []
        skipped = 0
        for start in range(0, len(order), config.batch_size_queries):
            batch = order[start : start + config.batch_size_queries]
            x = np.vstack([groups[i].features for i in batch])
            scores, cache = scorer.forward(x, training=True)
            if not np.all(np.isfinite(scores)):
                raise DivergenceError(epoch, f"non-finite scores at epoch {epoch}")
            live = np.flatnonzero(defined[batch])
            skipped += batch.size - live.size
            if live.size == 0:
                continue
            rel = np.concatenate([rels[i] for i in batch])
            sizes = lengths[batch]
            offsets = np.cumsum(sizes) - sizes
            losses = np.empty(live.size)
            dscores = np.zeros_like(scores)
            for bucket in length_buckets(config.loss.kept_length(sizes[live])):
                lists = live[bucket]
                docs, mask = padded_lists(offsets[lists], sizes[lists])
                values, grads = loss_and_gradient(rel[docs], scores[docs], config.loss, mask)
                losses[bucket] = values
                dscores[docs[mask]] = grads[mask] / live.size
            batch_loss = float(np.mean(losses))
            if not np.isfinite(batch_loss):
                raise DivergenceError(epoch, f"non-finite loss at epoch {epoch}")
            grads = scorer.backward(cache, dscores)
            adam.step(scorer.parameters(), grads)
            epoch_losses.append(batch_loss)

        if not all(np.all(np.isfinite(p)) for p in scorer.parameters().values()):
            raise DivergenceError(epoch, f"non-finite parameters at epoch {epoch}")
        try:
            summary = _summary(validation.run(scorer)[1])
        except NonFiniteScoresError as exc:
            raise DivergenceError(epoch, f"epoch {epoch}: {exc}") from exc
        record = EpochRecord(
            epoch=epoch,
            train_loss=float(np.mean(epoch_losses)) if epoch_losses else float("nan"),
            val_metrics=summary,
            seconds=time.perf_counter() - tic,
            skipped_queries=skipped,
            val_skipped_queries=validation.skipped,
        )
        history.records.append(record)
        selected = summary[select_key]
        if selected > best_value:
            best_value = selected
            best_snap = scorer.snapshot()
            history.best_epoch = epoch

    scorer.restore(best_snap)
    return scorer, history


@dataclass
class EvaluationResult:
    """Exact-metric averages over one split, with the per-query breakdown.

    ``scores`` holds the eval-mode scores the metrics were computed from,
    per scored query; it is not part of ``to_dict``.
    """

    summary: dict[str, float]
    per_query: dict[str, dict[str, float]]
    skipped_queries: int
    query_count: int
    scores: dict[str, np.ndarray] = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "summary": self.summary,
            "per_query": self.per_query,
            "skipped_queries": self.skipped_queries,
            "query_count": self.query_count,
        }


def check_cutoffs(cutoffs) -> None:
    """Reject metric cutoffs below 1; P@0 would divide by zero."""
    bad = [c for c in cutoffs if c < 1]
    if bad:
        raise ValueError(f"metric cutoffs must be >= 1, got {bad}")


def score_queries(scorer: Scorer, groups) -> dict[str, np.ndarray]:
    """Eval-mode scores of each query group, by query id, from one forward
    pass over their stacked features."""
    x = np.vstack([g.features for g in groups]) if groups else np.empty((0, scorer.input_dim))
    flat = scorer.forward(x, training=False)
    sizes = [len(g) for g in groups]
    return dict(zip([g.query_id for g in groups], np.split(flat, np.cumsum(sizes)[:-1])))


class _ValidationPlan:
    """The part of an exact-metric pass over one split that depends only on
    the data, built once: ``train`` runs one plan per epoch of a call, and
    ``evaluate`` one per call.

    It holds the ``scored`` groups (those with a relevant document, in split
    order), the ``skipped`` count, their stacked ``features``, ``offsets`` and
    ``lengths``, and per ``length_buckets`` bucket the list positions, the
    padded document indices and mask, the padded grades and the ideal DCGs at
    every cutoff and at the full length.
    """

    def __init__(self, dataset: Dataset, split: str, cutoffs):
        self.cutoffs = tuple(cutoffs)
        check_cutoffs(self.cutoffs)
        groups = [dataset.groups[qid] for qid in dataset.query_ids(split)]
        self.scored = [g for g in groups if g.relevance.sum() != 0.0]
        self.skipped = len(groups) - len(self.scored)
        self.features = (np.vstack([g.features for g in self.scored]) if self.scored
                         else np.empty((0, dataset.feature_dim)))
        self.lengths = np.array([len(g) for g in self.scored], dtype=np.int64)
        self.offsets = np.cumsum(self.lengths) - self.lengths
        rel = np.concatenate([g.relevance for g in self.scored]) if self.scored else np.empty(0)
        self.buckets = []
        for bucket in length_buckets(self.lengths):
            docs, mask = padded_lists(self.offsets[bucket], self.lengths[bucket])
            grades = np.where(mask, rel[docs], 0.0)
            self.buckets.append((bucket, docs, mask, grades,
                                 _ideal_dcgs(grades, self.lengths[bucket], self.cutoffs)))

    def run(self, scorer: Scorer) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The scored queries' eval-mode scores, stacked, and each metric's
        values per scored query. Raises NonFiniteScoresError naming the
        first query, in split order, with a NaN or infinite score."""
        flat = scorer.forward(self.features, training=False)
        bad = np.flatnonzero(~np.isfinite(flat))
        if bad.size:
            first = self.scored[np.searchsorted(self.offsets, bad[0], side="right") - 1]
            raise NonFiniteScoresError(f"non-finite scores for query {first.query_id!r}")
        columns: dict[str, np.ndarray] = {}
        for bucket, docs, mask, grades, ideal in self.buckets:
            values = _ranked_metrics(grades, np.where(mask, flat[docs], -np.inf), self.lengths[bucket],
                                     self.cutoffs, ideal)
            for key, value in values.items():
                columns.setdefault(key, np.empty(len(self.scored)))[bucket] = value
        return flat, columns


def _summary(columns: dict[str, np.ndarray]) -> dict[str, float]:
    # the mean over queries in split order, as np.mean of the per-query rows
    return {key: float(np.mean(column)) for key, column in columns.items()}


def evaluate(scorer: Scorer, dataset: Dataset, split: str, cutoffs=EVAL_CUTOFFS) -> EvaluationResult:
    """Exact metrics of the scorer on a split, averaged over queries.

    Queries with all-zero relevance have no defined NDCG or AP and are
    skipped entirely; the skip count is reported. The other queries are
    scored by one eval-mode forward pass over their stacked features, which
    uses running batch-norm statistics, so this is a pure function of
    (weights, data). Their metrics are computed like ``exact_metrics`` once
    per ``length_buckets`` bucket, on lists padded to the bucket's longest.
    Each call builds a ``_ValidationPlan`` of the split (the stacked
    features, each bucket's padded grades and ideal DCGs) and runs it once;
    ``train`` runs the same plan code on its validation split. Raises
    NonFiniteScoresError naming the first query, in split order, with a NaN
    or infinite score. Cutoffs must be >= 1.
    """
    plan = _ValidationPlan(dataset, split, cutoffs)
    if not plan.scored:
        return EvaluationResult(summary={}, per_query={}, skipped_queries=plan.skipped, query_count=0, scores={})
    flat, columns = plan.run(scorer)
    rows = np.column_stack(list(columns.values())).tolist()
    return EvaluationResult(
        summary=_summary(columns),
        per_query={g.query_id: dict(zip(columns, row)) for g, row in zip(plan.scored, rows)},
        skipped_queries=plan.skipped,
        query_count=len(plan.scored),
        scores=dict(zip([g.query_id for g in plan.scored], np.split(flat, plan.offsets[1:]))),
    )


def save_checkpoint(scorer: Scorer, path, extra: dict | None = None) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "input_dim": scorer.input_dim,
        "hidden_dim": scorer.hidden_dim,
        "bn_momentum": scorer.bn_momentum,
        "bn_eps": scorer.bn_eps,
        "arrays": {name: arr.tolist() for name, arr in scorer.state().items()},
        "extra": extra or {},
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_checkpoint(path) -> Scorer:
    """Read a scorer saved by ``save_checkpoint``; raises ValueError on a file
    that is not a complete checkpoint of this format. Version 1's ``b1`` and
    ``bn1_beta`` are folded into ``bn2_mean``, which keeps its eval scores."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("version") if isinstance(payload, dict) else None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT or (
            isinstance(version, bool) or version not in (1, CHECKPOINT_VERSION)):
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} v1 or v{CHECKPOINT_VERSION} checkpoint")
    names = Scorer.PARAM_NAMES + Scorer.RUNNING_NAMES + (("b1", "bn1_beta") if version == 1 else ())
    arrays = payload.get("arrays")
    missing = [key for key in ("input_dim", "hidden_dim", "bn_momentum", "bn_eps") if key not in payload]
    if not isinstance(arrays, dict):
        missing.append("arrays")
    else:
        missing += [f"arrays.{name}" for name in names if name not in arrays]
    if missing:
        raise ValueError(f"{path}: checkpoint lacks {', '.join(missing)}")
    dims = (payload["input_dim"], payload["hidden_dim"])
    if not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
        raise ValueError(f"{path}: input_dim and hidden_dim must be integers, got {dims}")
    bn = {key: payload[key] for key in ("bn_momentum", "bn_eps")}
    for key, value in bn.items():
        # a bool is an int to Python; a JSON number can be NaN, infinite or too large for a float
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
            raise ValueError(f"{path}: {key} must be a finite number, got {value!r}")
    if bn["bn_eps"] <= 0:
        raise ValueError(f"{path}: bn_eps must be > 0, got {bn['bn_eps']!r}")
    scorer = Scorer(*dims, **{key: float(value) for key, value in bn.items()})
    shapes = {"b1": (scorer.hidden_dim,), "bn1_beta": (scorer.input_dim,)} | {
        name: arr.shape for name, arr in scorer.state().items()}
    loaded = {name: np.asarray(arrays[name], dtype=np.float64) for name in names}
    for name, arr in loaded.items():
        if arr.shape != shapes[name]:
            raise ValueError(f"{path}: array {name!r} has shape {arr.shape}")
    if version == 1:
        loaded["bn2_mean"] = loaded["bn2_mean"] - (loaded.pop("b1") + loaded.pop("bn1_beta") @ loaded["w1"])
    for name, arr in loaded.items():
        setattr(scorer, name, arr)
    return scorer
