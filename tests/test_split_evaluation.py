"""Split-level evaluation against the per-query oracle, and the eval forward."""

import math

import numpy as np
import pytest

from smoothrank import Scorer, evaluate, ltr_model
from smoothrank.data_io import Dataset, QueryGroup
from smoothrank.ltr_model import eval_slice_shape
from smoothrank.rank_core import ideal_dcg

from oracles import folded_eval_scores, query_metrics, unfused_eval_scores


DIM = 5
HIDDEN = 512  # 128 rows per eval slice: the split spans many slices
CUTOFFS = (2, 7, 10)  # lists of 1 document are shorter than every cutoff


def mixed_split(seed=0, dim=DIM):
    """Lists of 1-140 documents in shuffled order: binary and graded grades,
    zero-relevance lists, lists of one repeated feature row and lists of
    three (tied scores)."""
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(np.arange(1, 141))
    groups = {}
    for i, n in enumerate(lengths.tolist()):
        qid = f"q{i:03d}"
        features = rng.normal(size=(n, dim))
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
    return Dataset(groups=groups, feature_dim=dim, splits={"test": list(groups)})


def random_scorer(seed=1, hidden=HIDDEN, dim=DIM):
    """A scorer whose running statistics and affine parameters are not the
    initial ones, so every batch-norm step changes the bits."""
    scorer = Scorer(dim, hidden, seed=seed)
    rng = np.random.default_rng(seed)
    for name in Scorer.RUNNING_NAMES + ("bn1_gamma", "bn2_gamma", "bn2_beta", "b2"):
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
        assert sum(lengths) > 10 * eval_slice_shape(HIDDEN)[0]
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

    @pytest.mark.parametrize("hidden, dim", [(512, DIM), (300, DIM), (300, 46), (500, 46)])
    def test_per_query_scores_are_the_split_scores_bitwise(self, hidden, dim):
        """Every eval-mode product has one shape, so a query scored alone
        gets the bits it gets among the whole split (if this fails, the BLAS
        that numpy links rounds a row by its position in the product)."""
        ds = mixed_split(dim=dim)
        scorer = random_scorer(hidden=hidden, dim=dim)
        result = evaluate(scorer, ds, "test", cutoffs=CUTOFFS)
        for qid, scores in result.scores.items():
            alone = ltr_model.score_queries(scorer, [ds.groups[qid]])[qid]
            np.testing.assert_array_equal(alone, scores, err_msg=qid)

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


class TestEvalForward:
    def test_one_slice_is_bitwise_the_folded_formula(self):
        scorer = random_scorer()
        x = np.random.default_rng(2).normal(size=(37, DIM))
        np.testing.assert_array_equal(scorer.forward(x), folded_eval_scores(scorer, x))

    def test_slices_are_bitwise_the_folded_formula_on_each_slice(self):
        scorer = random_scorer()
        x = np.random.default_rng(3).normal(size=(2 * eval_slice_shape(HIDDEN)[0] + 17, DIM))
        np.testing.assert_array_equal(scorer.forward(x), folded_eval_scores(scorer, x))

    @pytest.mark.parametrize("hidden", [1, 300, 1024])
    def test_folded_scores_are_the_unfused_formula_up_to_rounding(self, hidden):
        scorer = random_scorer(hidden=hidden)
        x = np.random.default_rng(4).normal(size=(300, DIM))
        want = unfused_eval_scores(scorer, x)
        assert np.all(np.abs(scorer.forward(x) - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_input_is_left_unchanged(self):
        scorer = random_scorer()
        x = np.random.default_rng(5).normal(size=(9, DIM))
        before = x.copy()
        scorer.forward(x)
        np.testing.assert_array_equal(x, before)
