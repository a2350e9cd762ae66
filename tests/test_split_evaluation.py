"""Split-level evaluation against the per-query oracle, and the eval forward."""

import math

import numpy as np
import pytest

from smoothrank import Scorer, evaluate, ltr_model
from smoothrank.data_io import Dataset, QueryGroup
from smoothrank.ltr_model import EVAL_SLICE_ELEMENTS, _bn_forward
from smoothrank.rank_core import ideal_dcg

from oracles import query_metrics


DIM = 5
HIDDEN = 512  # EVAL_SLICE_ELEMENTS // 512 rows per slice: the split spans many slices
CUTOFFS = (2, 7, 10)  # lists of 1 document are shorter than every cutoff


def mixed_split(seed=0):
    """Lists of 1-140 documents in shuffled order: binary and graded grades,
    zero-relevance lists, lists of one repeated feature row and lists of
    three (tied scores)."""
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(np.arange(1, 141))
    groups = {}
    for i, n in enumerate(lengths.tolist()):
        qid = f"q{i:03d}"
        features = rng.normal(size=(n, DIM))
        if i % 5 == 0:
            features[:] = features[0]
        elif i % 5 == 1:
            features = features[rng.integers(0, 3, size=n)]
        if i % 7 == 0:
            rel = np.zeros(n)
        elif i % 2:
            rel = rng.integers(0, 5, size=n).astype(float)
        else:
            rel = (rng.random(n) < 0.3).astype(float)
        groups[qid] = QueryGroup(qid, [f"{qid}-{j}" for j in range(n)], features, rel)
    return Dataset(groups=groups, feature_dim=DIM, splits={"test": list(groups)})


def random_scorer(seed=1):
    """A scorer whose running statistics and affine parameters are not the
    initial ones, so every batch-norm step changes the bits."""
    scorer = Scorer(DIM, HIDDEN, seed=seed)
    rng = np.random.default_rng(seed)
    for name in Scorer.RUNNING_NAMES + ("bn1_gamma", "bn1_beta", "bn2_gamma", "bn2_beta", "b1", "b2"):
        arr = getattr(scorer, name)
        arr[...] = rng.uniform(0.5, 1.5, size=arr.shape) if "var" in name or "gamma" in name else (
            rng.normal(scale=0.3, size=arr.shape))
    return scorer


def zero_scorer():
    scorer = Scorer(DIM, HIDDEN, seed=0)
    for arr in scorer.parameters().values():
        arr[...] = 0.0
    return scorer


class TestSplitMetricsMatchTheOracle:
    def test_split_covers_the_cases(self):
        ds = mixed_split()
        lengths = [len(g) for g in ds.groups.values()]
        assert len(ltr_model.length_buckets(lengths)) > 5
        assert sum(lengths) > 10 * EVAL_SLICE_ELEMENTS // HIDDEN
        assert min(lengths) < min(CUTOFFS) and max(lengths) > max(CUTOFFS)
        rels = [g.relevance for g in ds.groups.values()]
        assert any(r.sum() == 0 for r in rels) and any(r.max() > 1 for r in rels)

    @pytest.mark.parametrize("make_scorer", [random_scorer, zero_scorer], ids=["random", "zero"])
    def test_every_value_equals_the_per_query_oracle(self, make_scorer):
        ds = mixed_split()
        scorer = make_scorer()
        result = evaluate(scorer, ds, "test", cutoffs=CUTOFFS)
        zero = [qid for qid, g in ds.groups.items() if g.relevance.sum() == 0]
        assert result.skipped_queries == len(zero)
        assert result.query_count == len(ds.groups) - len(zero)
        scored = [qid for qid in ds.splits["test"] if qid not in zero]
        assert list(result.per_query) == scored
        expected = {qid: query_metrics(ds.groups[qid].relevance, result.scores[qid], CUTOFFS)
                    for qid in scored}
        assert result.per_query == expected
        for qid in scored:
            assert list(result.per_query[qid]) == list(expected[qid])
        for key, value in result.summary.items():
            assert value == float(np.mean([row[key] for row in expected.values()]))

    def test_scores_are_the_per_query_forward_up_to_rounding(self):
        ds = mixed_split()
        scorer = random_scorer()
        result = evaluate(scorer, ds, "test", cutoffs=CUTOFFS)
        for qid, scores in result.scores.items():
            alone = scorer.forward(ds.groups[qid].features, training=False)
            np.testing.assert_allclose(scores, alone, rtol=0.0, atol=1e-12)

    def test_zero_scorer_ranks_ties_by_index(self):
        ds = mixed_split()
        result = evaluate(zero_scorer(), ds, "test", cutoffs=CUTOFFS)
        for qid, row in result.per_query.items():
            binary = (ds.groups[qid].relevance >= 1.0).astype(float)
            assert row["p@2"] == binary[:2].sum() / 2


class TestIdealDcg:
    def test_rows_equal_the_one_list_value(self):
        rng = np.random.default_rng(4)
        rel = rng.integers(0, 4, size=(30, 25)).astype(float)
        lengths = rng.integers(1, 26, size=30)
        rel[np.arange(25) >= lengths[:, None]] = 0.0
        cuts = np.column_stack([np.minimum(lengths, c) for c in (1, 3, 10)] + [lengths])
        got = ideal_dcg(rel, cuts)
        for i, n in enumerate(lengths):
            # the one-list formula, as ideal_dcg_at_k stated it
            top = [np.sort(rel[i, :n])[::-1][:c] for c in cuts[i]]
            want = [math.fsum((np.exp2(t) - 1.0) / np.log2(np.arange(2.0, t.size + 2.0))) for t in top]
            assert got[i].tolist() == want


def old_eval_formula(scorer, x):
    """The eval-mode forward as ``_bn_forward`` states it."""
    a1, _, _ = _bn_forward(x, scorer.bn1_gamma, scorer.bn1_beta, scorer.bn1_mean, scorer.bn1_var,
                           scorer.bn_eps)
    pre = a1 @ scorer.w1 + scorer.b1
    z2, _, _ = _bn_forward(pre, scorer.bn2_gamma, scorer.bn2_beta, scorer.bn2_mean, scorer.bn2_var,
                           scorer.bn_eps)
    return np.maximum(z2, 0.0) @ scorer.w2 + scorer.b2[0]


class TestEvalForward:
    def test_one_slice_is_bitwise_the_old_formula(self):
        scorer = random_scorer()
        x = np.random.default_rng(2).normal(size=(37, DIM))
        np.testing.assert_array_equal(scorer.forward(x), old_eval_formula(scorer, x))

    def test_slices_are_bitwise_the_old_formula_on_each_slice(self):
        scorer = random_scorer()
        rows = EVAL_SLICE_ELEMENTS // HIDDEN
        x = np.random.default_rng(3).normal(size=(2 * rows + 17, DIM))
        want = np.concatenate([old_eval_formula(scorer, x[s : s + rows]) for s in range(0, len(x), rows)])
        np.testing.assert_array_equal(scorer.forward(x), want)

    def test_input_is_left_unchanged(self):
        scorer = random_scorer()
        x = np.random.default_rng(5).normal(size=(9, DIM))
        before = x.copy()
        scorer.forward(x)
        np.testing.assert_array_equal(x, before)

    def test_eval_mode_keeps_no_cache(self):
        with pytest.raises(ValueError, match="training-mode"):
            random_scorer().forward(np.zeros((2, DIM)), want_cache=True)
