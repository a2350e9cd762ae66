"""Exact forward-mode (dual-number) oracle for both gradient conventions.

Finite differences carry truncation error; dual numbers propagate exact
derivatives through a literal re-implementation of the recursion and the
metrics, so the analytic reverse-mode gradients and the gradient check's
complex-step ones can be checked to machine precision, one input coordinate
at a time.
"""

import math

import numpy as np
import pytest

from smoothrank import (
    SmoothIParams, finite_difference_check, make_loss_spec, metric_gradient, smooth_indicators,
)
from oracles import random_ranking_instance

LN2 = math.log(2.0)


class Dual:
    """Number carrying a value and a derivative along one direction."""

    __slots__ = ("v", "d")

    def __init__(self, v, d=0.0):
        self.v = float(v)
        self.d = float(d)

    def __add__(self, other):
        other = other if isinstance(other, Dual) else Dual(other)
        return Dual(self.v + other.v, self.d + other.d)

    __radd__ = __add__

    def __sub__(self, other):
        other = other if isinstance(other, Dual) else Dual(other)
        return Dual(self.v - other.v, self.d - other.d)

    def __rsub__(self, other):
        return Dual(other) - self

    def __mul__(self, other):
        other = other if isinstance(other, Dual) else Dual(other)
        return Dual(self.v * other.v, self.v * other.d + self.d * other.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, Dual) else Dual(other)
        return Dual(self.v / other.v, (self.d * other.v - self.v * other.d) / other.v**2)

    def exp(self):
        e = math.exp(self.v)
        return Dual(e, e * self.d)


def dual_softmax(logits):
    exps = [x.exp() for x in logits]
    total = exps[0]
    for e in exps[1:]:
        total = total + e
    return [e / total for e in exps]


def dual_rows_full(scores, alpha, delta, k):
    """Literal recursion with derivatives flowing through the prefixes."""
    n = len(scores)
    prefix = [Dual(1.0) for _ in range(n)]
    rows = []
    for _ in range(k):
        row = dual_softmax([alpha * scores[j] * prefix[j] for j in range(n)])
        rows.append(row)
        prefix = [prefix[j] * (1.0 - row[j] - delta) for j in range(n)]
    return rows


def dual_rows_stop(scores, alpha, delta, k, frozen_prefixes):
    """Rows with the prefixes fixed to plain numbers (no derivative)."""
    n = len(scores)
    rows = []
    for r in range(k):
        row = dual_softmax(
            [alpha * scores[j] * float(frozen_prefixes[r][j]) for j in range(n)]
        )
        rows.append(row)
    return rows


def dual_metric(rel, rows, kind, k, rel_total, ideal):
    n = len(rel)
    u = []
    for row in rows:
        acc = Dual(0.0)
        for j in range(n):
            acc = acc + rel[j] * row[j]
        u.append(acc)
    if kind == "p@k":
        total = Dual(0.0)
        for r in range(k):
            total = total + u[r]
        return total / k
    if kind == "ap":
        total = Dual(0.0)
        running = Dual(0.0)
        for kk in range(1, len(u) + 1):
            running = running + u[kk - 1]
            total = total + u[kk - 1] * (running / kk)
        return total / rel_total
    if kind == "ndcg@k":
        total = Dual(0.0)
        for r in range(k):
            gain = (u[r] * LN2).exp() - 1.0
            total = total + gain / math.log2(r + 2)
        return total / ideal
    raise ValueError(kind)


def dual_gradient(rel, scores, kind, k, alpha, delta, mode):
    """d(metric)/d(score_j) for every j via one dual pass per coordinate."""
    n = len(scores)
    rel_total = float(sum(rel))
    ideal = None
    if kind == "ndcg@k":
        top = sorted(rel, reverse=True)[:k]
        ideal = sum((2.0**g - 1.0) / math.log2(r + 2) for r, g in enumerate(top))
    if mode == "stop_gradient":
        frozen = smooth_indicators(
            np.asarray(scores), SmoothIParams(alpha=alpha, delta=delta), k=k
        ).prefix_products
    grad = np.empty(n)
    for j in range(n):
        dual_scores = [Dual(s, 1.0 if i == j else 0.0) for i, s in enumerate(scores)]
        if mode == "full":
            rows = dual_rows_full(dual_scores, alpha, delta, k)
        else:
            rows = dual_rows_stop(dual_scores, alpha, delta, k, frozen)
        grad[j] = dual_metric(rel, rows, kind, k, rel_total, ideal).d
    return grad


class TestDualNumberOracle:
    @pytest.mark.parametrize("mode", ["stop_gradient", "full"])
    @pytest.mark.parametrize("kind", ["p@k", "ap", "ndcg@k"])
    def test_reverse_mode_matches_exact_forward_mode(self, kind, mode):
        rng = np.random.default_rng(99)
        for _ in range(25):
            raw, rel, k, alpha = random_ranking_instance(rng, n_max=7, k_max=4)
            scores = raw + 1.0 - raw.min()  # strictly positive
            rows_k = scores.size if kind == "ap" else k
            spec = make_loss_spec(
                kind, k=None if kind == "ap" else k, alpha=alpha, delta=0.1, grad_mode=mode
            )
            analytic = metric_gradient(rel, scores, spec)
            exact = dual_gradient(
                rel.tolist(), scores.tolist(), kind, rows_k, alpha, 0.1, mode
            )
            np.testing.assert_allclose(analytic, exact, rtol=1e-12, atol=1e-14)
            # the check's complex-step gradient of the loss, 1 - metric
            numeric = finite_difference_check(rel, raw, spec).numeric
            np.testing.assert_allclose(-numeric, exact, rtol=1e-12, atol=1e-14)
