"""Feedforward document scorer and its listwise training loop.

The scorer normalizes the input features with batch norm, feeds them through
one ReLU hidden layer (1024 units by default, batch-normalized
pre-activations) and a linear head that emits one score per document. It is
trained with Adam against any of the smooth ranking losses, on mini-batches
of whole queries, and the weights of the best validation-NDCG epoch are the
ones returned.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data_io import Dataset, DatasetError
from .gradients import loss_and_gradient
from .rank_core import (
    UndefinedMetricError,
    average_precision,
    ideal_dcg_at_k,
    rank_permutation,
)
from .smooth_metrics import SMOOTH_NDCG_AT_K, LossSpec, undefined_lists

CHECKPOINT_FORMAT = "smoothrank-scorer"
CHECKPOINT_VERSION = 1

# train() pads a batch's lists only to the longest list of their bucket, and a
# bucket's longest list is at most this factor times its shortest. On
# letor-varlen's training lengths (8-120 docs, AP with K = N), padding each
# 128-query batch to its longest list does 13.6x the K*N work of one call per
# list; 1.25x buckets do 1.19x that work in about 9 calls instead of about 118.
BUCKET_SPREAD = 1.25


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; carries the epoch it happened in."""

    def __init__(self, epoch: int, message: str):
        super().__init__(message)
        self.epoch = epoch


class NonFiniteScoresError(ValueError):
    """The scorer emitted NaN/Inf scores (typically a diverged checkpoint)."""


def _bn_forward(x, gamma, beta, mean, var, eps):
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    return gamma * xhat + beta, xhat, inv_std


def _bn_backward(dout, xhat, inv_std, gamma):
    """Backward through batch norm with batch statistics (training mode)."""
    m = dout.shape[0]
    dgamma = (dout * xhat).sum(axis=0)
    dbeta = dout.sum(axis=0)
    dxhat = dout * gamma
    dx = (inv_std / m) * (m * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    return dx, dgamma, dbeta


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
        self.b1 = np.zeros(hidden_dim)
        self.w2 = rng.uniform(-lim2, lim2, size=hidden_dim)
        self.b2 = np.zeros(1)
        self.bn1_gamma = np.ones(input_dim)
        self.bn1_beta = np.zeros(input_dim)
        self.bn1_mean = np.zeros(input_dim)
        self.bn1_var = np.ones(input_dim)
        self.bn2_gamma = np.ones(hidden_dim)
        self.bn2_beta = np.zeros(hidden_dim)
        self.bn2_mean = np.zeros(hidden_dim)
        self.bn2_var = np.ones(hidden_dim)

    PARAM_NAMES = ("w1", "b1", "w2", "b2", "bn1_gamma", "bn1_beta", "bn2_gamma", "bn2_beta")
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

    def forward(self, x, training: bool = False, want_cache: bool = False, update_running: bool = True):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"features must have shape (n, {self.input_dim}), got {x.shape}")
        if training:
            mu1, var1 = x.mean(axis=0), x.var(axis=0)
            if update_running:
                self.bn1_mean = self.bn_momentum * self.bn1_mean + (1 - self.bn_momentum) * mu1
                self.bn1_var = self.bn_momentum * self.bn1_var + (1 - self.bn_momentum) * var1
        else:
            mu1, var1 = self.bn1_mean, self.bn1_var
        a1, xhat1, inv1 = _bn_forward(x, self.bn1_gamma, self.bn1_beta, mu1, var1, self.bn_eps)

        pre = a1 @ self.w1 + self.b1
        if training:
            mu2, var2 = pre.mean(axis=0), pre.var(axis=0)
            if update_running:
                self.bn2_mean = self.bn_momentum * self.bn2_mean + (1 - self.bn_momentum) * mu2
                self.bn2_var = self.bn_momentum * self.bn2_var + (1 - self.bn_momentum) * var2
        else:
            mu2, var2 = self.bn2_mean, self.bn2_var
        z2, xhat2, inv2 = _bn_forward(pre, self.bn2_gamma, self.bn2_beta, mu2, var2, self.bn_eps)

        h = np.maximum(z2, 0.0)
        scores = h @ self.w2 + self.b2[0]
        if not want_cache:
            return scores
        cache = {
            "training": training,
            "xhat1": xhat1,
            "inv1": inv1,
            "a1": a1,
            "xhat2": xhat2,
            "inv2": inv2,
            "z2": z2,
            "h": h,
        }
        return scores, cache

    def backward(self, cache: dict, dscores: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss wrt all trainable parameters.

        ``dscores`` is dL/d(score) per document for the cached forward pass,
        which must have run in training mode (batch statistics).
        """
        if not cache["training"]:
            raise ValueError("backward requires a cache from a training-mode forward pass")
        h, z2 = cache["h"], cache["z2"]
        dw2 = h.T @ dscores
        db2 = np.array([dscores.sum()])
        dh = np.outer(dscores, self.w2)
        dz2 = dh * (z2 > 0.0)
        dpre, dg2, dbt2 = _bn_backward(dz2, cache["xhat2"], cache["inv2"], self.bn2_gamma)
        dw1 = cache["a1"].T @ dpre
        db1 = dpre.sum(axis=0)
        da1 = dpre @ self.w1.T
        _, dg1, dbt1 = _bn_backward(da1, cache["xhat1"], cache["inv1"], self.bn1_gamma)
        return {
            "w1": dw1,
            "b1": db1,
            "w2": dw2,
            "b2": db2,
            "bn1_gamma": dg1,
            "bn1_beta": dbt1,
            "bn2_gamma": dg2,
            "bn2_beta": dbt2,
        }


class Adam:
    """Standard Adam with bias correction, state keyed by parameter name."""

    def __init__(self, learning_rate: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, p in params.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m[...] = self.beta1 * m + (1 - self.beta1) * g
            v[...] = self.beta2 * v + (1 - self.beta2) * g * g
            mhat = m / (1 - self.beta1**self.t)
            vhat = v / (1 - self.beta2**self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


@dataclass
class TrainConfig:
    """Training recipe: listwise loss, Adam settings, query batching.

    The reference recipe uses learning rates in {1e-2, 1e-3}, 128 queries per
    batch and 50 epochs; none of that is enforced here (the CLI's --strict
    flag is). ``select_cutoff`` picks the validation NDCG cutoff used for
    best-epoch selection, ``None`` meaning the full list.
    """

    loss: LossSpec
    learning_rate: float = 1e-3
    batch_size_queries: int = 128
    epochs: int = 50
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    hidden_dim: int = 1024
    select_cutoff: int | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size_queries < 1:
            raise ValueError(f"batch_size_queries must be >= 1, got {self.batch_size_queries}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.select_cutoff is not None and self.select_cutoff < 1:
            raise ValueError(f"select_cutoff must be >= 1, got {self.select_cutoff}")


@dataclass
class EpochRecord:
    """One epoch; ``skipped_queries`` counts the training queries left out
    because their loss is undefined (no relevant document)."""

    epoch: int
    train_loss: float
    val_metrics: dict[str, float]
    seconds: float
    skipped_queries: int


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
    buckets = []
    start = 0
    for i in range(1, order.size + 1):
        if i == order.size or lengths[order[i]] > BUCKET_SPREAD * lengths[order[start]]:
            buckets.append(order[start:i])
            start = i
    return buckets


def train(dataset: Dataset, config: TrainConfig) -> tuple[Scorer, TrainHistory]:
    """Train a scorer on the dataset's train split, selecting on validation.

    Mini-batches are whole queries (the loss is listwise): the documents of
    each batch are stacked for one batch-norm forward pass, per-query losses
    and score gradients are averaged, and the mean gradient is backpropagated
    through the scorer. The losses come from one ``loss_and_gradient`` call
    per bucket of similar-length lists (see ``length_buckets``), each list
    padded to its bucket's longest; a list shorter than the loss cutoff is
    scored at its own length. Queries whose loss is undefined (zero
    relevance) are skipped and counted. Raises DivergenceError when a batch
    loss goes non-finite.
    """
    for split in ("train", "validation"):
        if not dataset.splits.get(split):
            raise DatasetError(f"training requires a non-empty {split!r} split")
    scorer = Scorer(dataset.feature_dim, config.hidden_dim, seed=config.seed)
    adam = Adam(config.learning_rate, config.beta1, config.beta2, config.adam_eps)
    rng = np.random.default_rng(config.seed)
    train_ids = dataset.query_ids("train")
    groups = [dataset.groups[qid] for qid in train_ids]
    rels = [_binarized(g.relevance, config.loss.kind) for g in groups]
    lengths = np.array([len(g) for g in groups])
    defined = np.array([not undefined_lists(rel, config.loss.kind) for rel in rels])
    select_key = "ndcg" if config.select_cutoff is None else f"ndcg@{config.select_cutoff}"
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
            scores, cache = scorer.forward(x, training=True, want_cache=True)
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
                cols = np.arange(sizes[lists].max())
                mask = cols < sizes[lists, None]
                docs = np.where(mask, offsets[lists, None] + cols, 0)
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
        cutoffs = (1, 5, 10) if config.select_cutoff in (None, 1, 5, 10) else (
            tuple(sorted({1, 5, 10, config.select_cutoff}))
        )
        try:
            val = evaluate(scorer, dataset, "validation", cutoffs=cutoffs)
        except NonFiniteScoresError as exc:
            raise DivergenceError(epoch, f"epoch {epoch}: {exc}") from exc
        if not val.summary:
            raise DatasetError("validation split has no queries with any relevant document")
        record = EpochRecord(
            epoch=epoch,
            train_loss=float(np.mean(epoch_losses)) if epoch_losses else float("nan"),
            val_metrics=dict(val.summary),
            seconds=time.perf_counter() - tic,
            skipped_queries=skipped,
        )
        history.records.append(record)
        selected = val.summary[select_key]
        if selected > best_value:
            best_value = selected
            best_snap = scorer.snapshot()
            history.best_epoch = epoch

    scorer.restore(best_snap)
    return scorer, history


@dataclass
class EvaluationResult:
    """Exact-metric averages over one split, with the per-query breakdown."""

    summary: dict[str, float]
    per_query: dict[str, dict[str, float]]
    skipped_queries: int
    query_count: int

    def to_dict(self) -> dict:
        return {
            "summary": self.summary,
            "per_query": self.per_query,
            "skipped_queries": self.skipped_queries,
            "query_count": self.query_count,
        }


def _query_metrics(rel: np.ndarray, scores: np.ndarray, cutoffs) -> dict[str, float]:
    n = scores.size
    binary = (rel >= 1.0).astype(np.float64)
    perm = rank_permutation(scores)
    out: dict[str, float] = {}
    for c in cutoffs:
        # TREC-style: documents past the end of the list count as non-relevant
        out[f"p@{c}"] = float(binary[perm[: min(c, n)]].sum() / c)
    for c in cutoffs:
        k = min(c, n)
        ideal = ideal_dcg_at_k(rel, k)
        gains = np.exp2(rel[perm[:k]]) - 1.0
        dcg = float((gains / np.log2(np.arange(2.0, k + 2.0))).sum())
        out[f"ndcg@{c}"] = dcg / ideal if ideal > 0 else 0.0
    ideal_full = ideal_dcg_at_k(rel, n)
    gains = np.exp2(rel[perm]) - 1.0
    out["ndcg"] = float((gains / np.log2(np.arange(2.0, n + 2.0))).sum() / ideal_full)
    try:
        out["map"] = average_precision(binary, scores)
    except UndefinedMetricError:
        out["map"] = 0.0
    return out


def check_cutoffs(cutoffs) -> None:
    """Reject metric cutoffs below 1; P@0 would divide by zero."""
    bad = [c for c in cutoffs if c < 1]
    if bad:
        raise ValueError(f"metric cutoffs must be >= 1, got {bad}")


def evaluate(scorer: Scorer, dataset: Dataset, split: str, cutoffs=(1, 5, 10)) -> EvaluationResult:
    """Exact metrics of the scorer on a split, averaged over queries.

    Queries with all-zero relevance have no defined NDCG or AP and are
    skipped entirely; the skip count is reported. Eval-mode forward passes
    use running batch-norm statistics, so this is a pure function of
    (weights, data). Cutoffs must be >= 1.
    """
    check_cutoffs(cutoffs)
    per_query: dict[str, dict[str, float]] = {}
    skipped = 0
    for qid in dataset.query_ids(split):
        g = dataset.groups[qid]
        if g.relevance.sum() == 0.0:
            skipped += 1
            continue
        scores = scorer.forward(g.features, training=False)
        if not np.all(np.isfinite(scores)):
            raise NonFiniteScoresError(f"non-finite scores for query {qid!r}")
        per_query[qid] = _query_metrics(g.relevance, scores, cutoffs)
    if per_query:
        keys = next(iter(per_query.values())).keys()
        summary = {
            key: float(np.mean([row[key] for row in per_query.values()])) for key in keys
        }
    else:
        summary = {}
    return EvaluationResult(
        summary=summary,
        per_query=per_query,
        skipped_queries=skipped,
        query_count=len(per_query),
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
    that is not a complete checkpoint of this format."""
    payload = json.loads(Path(path).read_text())
    if (
        not isinstance(payload, dict)
        or payload.get("format") != CHECKPOINT_FORMAT
        or payload.get("version") != CHECKPOINT_VERSION
    ):
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} v{CHECKPOINT_VERSION} checkpoint")
    arrays = payload.get("arrays")
    missing = [key for key in ("input_dim", "hidden_dim", "bn_momentum", "bn_eps") if key not in payload]
    if not isinstance(arrays, dict):
        missing.append("arrays")
    else:
        missing += [f"arrays.{name}" for name in Scorer.PARAM_NAMES + Scorer.RUNNING_NAMES if name not in arrays]
    if missing:
        raise ValueError(f"{path}: checkpoint lacks {', '.join(missing)}")
    dims = (payload["input_dim"], payload["hidden_dim"])
    if not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
        raise ValueError(f"{path}: input_dim and hidden_dim must be integers, got {dims}")
    scorer = Scorer(
        payload["input_dim"],
        payload["hidden_dim"],
        bn_momentum=payload["bn_momentum"],
        bn_eps=payload["bn_eps"],
    )
    for name in scorer.PARAM_NAMES + scorer.RUNNING_NAMES:
        arr = np.asarray(arrays[name], dtype=np.float64)
        if arr.shape != getattr(scorer, name).shape:
            raise ValueError(f"{path}: array {name!r} has shape {arr.shape}")
        setattr(scorer, name, arr)
    return scorer
