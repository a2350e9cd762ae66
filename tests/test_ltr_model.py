"""Scorer forward/backward, Adam, the training loop, and evaluation."""

import json

import numpy as np
import pytest

from smoothrank import (
    Adam,
    DivergenceError,
    Scorer,
    TrainConfig,
    evaluate,
    load_checkpoint,
    make_loss_spec,
    save_checkpoint,
    synthesize,
    train,
    training_loss,
)
from smoothrank import ltr_model
from smoothrank.data_io import Dataset, DatasetError, QueryGroup
from smoothrank.ltr_model import NonFiniteScoresError

from oracles import query_metrics, unfused_eval_scores


def zero_scorer(input_dim, hidden_dim=4):
    scorer = Scorer(input_dim, hidden_dim, seed=0)
    for arr in scorer.parameters().values():
        arr[...] = 0.0
    return scorer


def linear_scorer(weights, sign=1.0):
    """Exact linear ranker: relu(w.x) - relu(-w.x) recovers w.x."""
    dim = len(weights)
    scorer = Scorer(dim, hidden_dim=2, seed=0)
    w = np.asarray(weights, dtype=float)
    scorer.w1[...] = np.column_stack([w, -w])
    scorer.w2[...] = np.array([sign, -sign])
    scorer.b2[...] = 0.0
    return scorer


def toy_dataset(n_queries=4, docs=5, dim=3, seed=0):
    return synthesize(n_queries, docs, dim, seed=seed).split_by_counts(
        n_queries - 2, 1, 1
    )


class TestScorerForward:
    def test_zero_weights_zero_scores(self):
        scorer = zero_scorer(3)
        x = np.random.default_rng(0).normal(size=(6, 3))
        np.testing.assert_array_equal(scorer.forward(x), np.zeros(6))

    def test_identical_rows_identical_scores(self):
        scorer = Scorer(4, hidden_dim=8, seed=1)
        row = np.random.default_rng(1).normal(size=4)
        x = np.tile(row, (5, 1))
        scores, _ = scorer.forward(x, training=True)
        assert np.all(scores == scores[0])

    def test_seeded_init_is_bit_reproducible(self):
        x = np.random.default_rng(2).normal(size=(7, 5))
        a = Scorer(5, hidden_dim=16, seed=42).forward(x)
        b = Scorer(5, hidden_dim=16, seed=42).forward(x)
        np.testing.assert_array_equal(a, b)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Scorer(3, hidden_dim=4).forward(np.zeros((2, 5)))

    def test_linear_scorer_recovers_the_linear_order(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=4)
        x = rng.normal(size=(9, 4))
        scores = linear_scorer(w).forward(x)
        np.testing.assert_array_equal(np.argsort(scores), np.argsort(x @ w))


class TestBackwardAgainstFiniteDifferences:
    def test_full_pipeline_tiny_net(self):
        """End to end: features -> scorer (train-mode batch norm) -> shift ->
        smooth loss. Parameter gradients from backprop match central
        differences, holding the a.e.-constant pieces (each query's shift
        offset) at their base values and using the full-recursion loss, the
        convention whose derivative the difference quotient measures."""
        from smoothrank import metric_gradient, smooth_metric

        rng = np.random.default_rng(4)
        scorer = Scorer(3, hidden_dim=4, seed=7)
        spec = make_loss_spec("ndcg@k", alpha=3.0, delta=0.1, grad_mode="full")
        groups = []
        offset = 0
        spans = []
        for _ in range(2):
            n = 3
            feats = rng.normal(size=(n, 3))
            rel = np.array([1.0, 0.0, 1.0])
            groups.append((feats, rel))
            spans.append(slice(offset, offset + n))
            offset += n
        x = np.vstack([f for f, _ in groups])

        scores, cache = scorer.forward(x, training=True)
        offsets = [1.0 - scores[span].min() for span in spans]

        def batch_loss():
            s, _ = scorer.forward(x, training=True)
            return np.mean(
                [
                    1.0 - smooth_metric(rel, s[span] + off, spec)
                    for (f, rel), span, off in zip(groups, spans, offsets)
                ]
            )

        dscores = np.zeros_like(scores)
        for (f, rel), span, off in zip(groups, spans, offsets):
            grad = -metric_gradient(rel, scores[span] + off, spec)
            dscores[span] = grad / len(groups)
        grads = scorer.backward(cache, dscores)

        h = 1e-3
        for name, param in scorer.parameters().items():
            flat = param.reshape(-1)
            fd = np.empty(flat.size)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = batch_loss()
                flat[i] = keep - h
                dn = batch_loss()
                flat[i] = keep
                fd[i] = (up - dn) / (2 * h)
            np.testing.assert_allclose(
                fd, grads[name].reshape(-1), rtol=1e-3, atol=1e-7, err_msg=name
            )


class TestAdam:
    def test_single_step_formula(self):
        params = {"w": np.array([1.0, 2.0])}
        grads = {"w": np.array([0.5, -1.0])}
        opt = Adam(learning_rate=0.1)
        opt.step(params, grads)
        g = np.array([0.5, -1.0])
        mhat = (0.1 * g) / (1 - 0.9)
        vhat = (0.001 * g * g) / (1 - 0.999)
        expected = np.array([1.0, 2.0]) - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
        np.testing.assert_allclose(params["w"], expected, atol=1e-12)

    def test_zero_learning_rate_keeps_parameters_and_history_flat(self):
        ds = toy_dataset(6, docs=5, dim=3, seed=5)
        cfg = TrainConfig(
            loss=make_loss_spec("ndcg@k", alpha=2.0),
            learning_rate=0.0,
            epochs=3,
            seed=0,
            hidden_dim=8,
            batch_size_queries=64,  # single batch per epoch: same stats every pass
        )
        init = Scorer(3, 8, seed=0).snapshot()
        scorer, history = train(ds, cfg)
        for name in scorer.PARAM_NAMES:
            np.testing.assert_array_equal(getattr(scorer, name), init[name])
        # per-epoch shuffling reorders the rows inside the (single) batch, so
        # batch statistics can move by an ulp; flat up to that
        losses = [r.train_loss for r in history.records]
        np.testing.assert_allclose(losses, losses[0], atol=1e-12)
        ndcgs = [r.val_metrics["ndcg"] for r in history.records]
        assert ndcgs.count(ndcgs[0]) == len(ndcgs)


class TestTrainLoop:
    def test_loss_improves_after_an_epoch_on_most_seeds(self):
        spec = make_loss_spec("ndcg@k", alpha=5.0)
        improved = 0
        for seed in range(5):
            ds = toy_dataset(4, docs=6, dim=3, seed=seed)

            def set_loss(scorer):
                parts = []
                for qid in ds.query_ids("train"):
                    g = ds.groups[qid]
                    scores, _ = scorer.forward(g.features, training=True)
                    parts.append(training_loss(g.relevance, scores, spec))
                return np.mean(parts)

            before = set_loss(Scorer(3, 16, seed=seed))
            cfg = TrainConfig(loss=spec, learning_rate=1e-2, epochs=1, seed=seed, hidden_dim=16)
            scorer, _ = train(ds, cfg)
            improved += set_loss(scorer) <= before + 1e-12
        assert improved >= 4

    def test_divergent_learning_rate_raises(self):
        ds = toy_dataset(6, docs=5, dim=3, seed=1)
        cfg = TrainConfig(
            loss=make_loss_spec("ndcg@k", alpha=2.0),
            learning_rate=1e100,  # Adam steps scale with lr, so this overflows fast
            epochs=30,
            seed=0,
            hidden_dim=8,
        )
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                train(ds, cfg)
        assert info.value.epoch >= 1

    def test_seeded_reproducibility(self):
        ds = toy_dataset(8, docs=5, dim=3, seed=2)
        cfg = TrainConfig(
            loss=make_loss_spec("ndcg@k", alpha=2.0), learning_rate=1e-2,
            epochs=2, seed=3, hidden_dim=8,
        )
        _, h1 = train(ds, cfg)
        _, h2 = train(ds, cfg)
        assert [r.train_loss for r in h1.records] == [r.train_loss for r in h2.records]
        assert [r.val_metrics for r in h1.records] == [r.val_metrics for r in h2.records]
        assert h1.best_epoch == h2.best_epoch

    def test_returned_weights_are_the_best_validation_epoch(self):
        ds = toy_dataset(8, docs=5, dim=3, seed=4)
        cfg = TrainConfig(
            loss=make_loss_spec("ndcg@k", alpha=2.0), learning_rate=1e-2,
            epochs=3, seed=1, hidden_dim=8,
        )
        scorer, history = train(ds, cfg)
        best = history.records[history.best_epoch - 1].val_metrics
        again = evaluate(scorer, ds, "validation")
        assert again.summary == best

    @pytest.mark.parametrize("field", ["hidden_dim", "select_cutoff"])
    def test_sizes_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            TrainConfig(loss=make_loss_spec("ndcg@k", alpha=2.0), **{field: 0})

    def test_missing_split_rejected(self):
        ds = synthesize(4, 5, 3, seed=0)  # no splits assigned
        cfg = TrainConfig(loss=make_loss_spec("ndcg@k", alpha=2.0), epochs=1)
        with pytest.raises(DatasetError, match="split"):
            train(ds, cfg)

    def test_beats_random_scorer_on_synthetic_data(self):
        spec = make_loss_spec("ndcg@k", alpha=10.0)
        for seed in range(5):
            # enough features that a random net cannot rank by luck
            ds = synthesize(170, 20, 20, seed=seed).split_by_counts(90, 80)
            cfg = TrainConfig(
                loss=spec, learning_rate=1e-2, epochs=4, seed=seed,
                hidden_dim=64, batch_size_queries=16,
            )
            scorer, _ = train(ds, cfg)
            trained = evaluate(scorer, ds, "validation").summary["ndcg@10"]
            untrained = Scorer(20, hidden_dim=64, seed=seed)  # the run's own init
            baseline = evaluate(untrained, ds, "validation").summary["ndcg@10"]
            assert trained >= baseline + 0.2


def single_query_dataset(rel, features):
    g = QueryGroup("q1", [f"d{i}" for i in range(len(rel))],
                   np.asarray(features, float), np.asarray(rel, float))
    return Dataset(groups={"q1": g}, feature_dim=np.asarray(features).shape[1],
                   splits={"test": ["q1"]})


class TestEvaluate:
    def test_oracle_scorer_reaches_ideal_ndcg(self):
        ds = synthesize(20, 12, 5, seed=9).split_by_counts(10, 5, 5)
        hidden = np.random.default_rng(9).standard_normal(5)
        result = evaluate(linear_scorer(hidden), ds, "test")
        assert result.summary["ndcg"] == pytest.approx(1.0)

    def test_reversed_scorer_on_two_docs(self):
        w = np.array([1.0])
        ds = single_query_dataset([1, 0], [[2.0], [1.0]])
        result = evaluate(linear_scorer(w, sign=-1.0), ds, "test")
        assert result.summary["p@1"] == 0.0
        assert result.summary["ndcg"] == pytest.approx(0.6309297535714575)

    def test_constant_scorer_follows_tie_break_order(self):
        ds = single_query_dataset([0, 1, 0], [[1.0], [2.0], [3.0]])
        result = evaluate(zero_scorer(1), ds, "test")
        # all scores equal: documents keep their original order
        assert result.summary["p@1"] == 0.0
        assert result.summary["map"] == pytest.approx(0.5)

    def test_zero_relevance_queries_are_skipped_and_counted(self):
        g1 = QueryGroup("a", ["a0", "a1"], np.eye(2), np.array([0.0, 0.0]))
        g2 = QueryGroup("b", ["b0", "b1"], np.eye(2), np.array([1.0, 0.0]))
        ds = Dataset(groups={"a": g1, "b": g2}, feature_dim=2, splits={"test": ["a", "b"]})
        result = evaluate(zero_scorer(2), ds, "test")
        assert result.skipped_queries == 1
        assert result.query_count == 1
        ds.splits["test"] = ["a"]
        result = evaluate(zero_scorer(2), ds, "test")
        assert (result.summary, result.per_query, result.skipped_queries) == ({}, {}, 1)

    def test_summary_is_the_exact_mean_of_per_query_rows(self):
        ds = synthesize(15, 9, 4, seed=11).split_by_counts(5, 5, 5)
        result = evaluate(Scorer(4, hidden_dim=8, seed=2), ds, "test")
        for key, value in result.summary.items():
            rows = [row[key] for row in result.per_query.values()]
            assert value == pytest.approx(np.mean(rows), abs=1e-12)

    def test_cutoff_below_one_rejected(self):
        ds = single_query_dataset([1, 0], [[2.0], [1.0]])
        with pytest.raises(ValueError, match="cutoffs"):
            evaluate(zero_scorer(1), ds, "test", cutoffs=(1, 0))

    def test_non_finite_scores_name_the_first_query_in_split_order(self):
        nan_row = np.array([[np.nan, 0.0]])
        groups = {
            "a": QueryGroup("a", ["a0", "a1"], np.eye(2), np.array([1.0, 0.0])),
            "b": QueryGroup("b", ["b0", "b1"], np.vstack([np.eye(2)[:1], nan_row]), np.array([1.0, 0.0])),
            "c": QueryGroup("c", ["c0", "c1"], np.vstack([nan_row, np.eye(2)[:1]]), np.array([0.0, 2.0])),
            "z": QueryGroup("z", ["z0"], nan_row, np.array([0.0])),
        }
        ds = Dataset(groups=groups, feature_dim=2, splits={"test": ["a", "z", "c", "b"]})
        with pytest.raises(NonFiniteScoresError, match="query 'c'"):
            evaluate(Scorer(2, hidden_dim=4, seed=0), ds, "test")

    def test_eval_mode_is_pure(self):
        ds = synthesize(6, 7, 3, seed=12).split_by_counts(2, 2, 2)
        scorer = Scorer(3, hidden_dim=8, seed=3)
        a = evaluate(scorer, ds, "test")
        b = evaluate(scorer, ds, "test")
        assert a.summary == b.summary


def varlen_dataset(seed=0, dim=4):
    """Lists of 2-40 documents with grades 0-2; every fourth validation list
    has no relevant document."""
    rng = np.random.default_rng(seed)
    groups, splits = {}, {"train": [], "validation": []}
    for split, count in (("train", 30), ("validation", 24)):
        for i in range(count):
            qid = f"{split[0]}{i}"
            n = int(rng.integers(2, 41))
            rel = rng.integers(0, 3, size=n).astype(float)
            rel[0] = 1.0
            if split == "validation" and i % 4 == 3:
                rel[:] = 0.0
            groups[qid] = QueryGroup(qid, [f"{qid}-{j}" for j in range(n)], rng.normal(size=(n, dim)), rel)
            splits[split].append(qid)
    return Dataset(groups=groups, feature_dim=dim, splits=splits)


class TestValidationPlan:
    CUTOFFS = (1, 5, 7, 10)  # the cutoffs train() validates at for select_cutoff=7

    def config(self, epochs):
        return TrainConfig(loss=make_loss_spec("ndcg@k", alpha=5.0), learning_rate=1e-2, epochs=epochs,
                           batch_size_queries=8, seed=3, hidden_dim=16, select_cutoff=7)

    def test_plan_summary_is_evaluates(self):
        ds = varlen_dataset()
        plan = ltr_model._ValidationPlan(ds, "validation", self.CUTOFFS)
        assert len(plan.buckets) >= 3 and plan.skipped == 6
        for seed in range(3):
            scorer = Scorer(4, hidden_dim=16, seed=seed)
            result = evaluate(scorer, ds, "validation", cutoffs=self.CUTOFFS)
            assert ltr_model._summary(plan.run(scorer)[1]) == result.summary
            assert plan.skipped == result.skipped_queries

    def test_train_records_evaluates_summary(self):
        ds = varlen_dataset(1)
        scorer, history = train(ds, self.config(epochs=1))
        result = evaluate(scorer, ds, "validation", cutoffs=self.CUTOFFS)
        (record,) = history.records
        assert record.val_metrics == result.summary
        assert record.val_skipped_queries == result.skipped_queries == 6
        assert history.select_metric == "ndcg@7"

    @pytest.mark.parametrize("epochs", [1, 4])
    def test_train_builds_one_plan(self, epochs, monkeypatch):
        built = []

        class Counted(ltr_model._ValidationPlan):
            def __init__(self, *args):
                built.append(args[1:])
                super().__init__(*args)

        monkeypatch.setattr(ltr_model, "_ValidationPlan", Counted)
        _, history = train(varlen_dataset(2), self.config(epochs))
        assert len(history.records) == epochs
        assert built == [("validation", self.CUTOFFS)]

    def test_non_finite_validation_features_diverge_naming_the_first_query(self):
        ds = varlen_dataset(3)
        # v3 has no relevant document, so it is not scored
        for qid in ("v3", "v9", "v5"):
            ds.groups[qid].features[1] = np.nan
        with pytest.raises(DivergenceError, match="^epoch 1: non-finite scores for query 'v5'$") as info:
            train(ds, self.config(epochs=3))
        assert info.value.epoch == 1


class TestCheckpoint:
    def test_round_trip_preserves_scores(self, tmp_path):
        scorer = Scorer(4, hidden_dim=8, seed=5)
        x = np.random.default_rng(0).normal(size=(6, 4))
        path = tmp_path / "ckpt.json"
        save_checkpoint(scorer, path, extra={"note": "test"})
        back = load_checkpoint(path)
        np.testing.assert_array_equal(back.forward(x), scorer.forward(x))

    def test_incomplete_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"format": "smoothrank-scorer", "version": 1}')
        with pytest.raises(ValueError, match="lacks input_dim"):
            load_checkpoint(path)
        save_checkpoint(Scorer(2, hidden_dim=3), path)
        payload = json.loads(path.read_text())
        del payload["arrays"]["w1"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"lacks arrays\.w1"):
            load_checkpoint(path)

    def test_version_1_evaluates_as_the_version_1_formula(self, tmp_path):
        """Version 1 also held the first layer's bias ``b1`` and the input
        batch norm's shift ``bn1_beta``; loaded with both folded in, the
        scorer keeps the eval scores up to rounding and the exact metrics."""
        rng = np.random.default_rng(8)
        v1 = Scorer(4, hidden_dim=16, seed=2)
        for name, arr in v1.state().items():
            arr[...] = rng.uniform(0.5, 1.5, arr.shape) if "var" in name or "gamma" in name else (
                rng.normal(size=arr.shape))
        b1, bn1_beta = rng.normal(size=16), rng.normal(size=4)
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({
            "format": "smoothrank-scorer",
            "version": 1,
            "input_dim": 4,
            "hidden_dim": 16,
            "bn_momentum": 0.9,
            "bn_eps": 1e-5,
            "arrays": {"b1": b1.tolist(), "bn1_beta": bn1_beta.tolist(),
                       **{name: arr.tolist() for name, arr in v1.state().items()}},
            "extra": {},
        }))
        ds = synthesize(30, 8, 4, seed=8, graded=True).split_by_counts(10, 10, 10)
        result = evaluate(load_checkpoint(path), ds, "test", cutoffs=(1, 3))
        assert result.query_count > 5
        for qid, scores in result.scores.items():
            g = ds.groups[qid]
            want = unfused_eval_scores(v1, g.features, b1, bn1_beta)
            assert np.all(np.abs(scores - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), qid
            assert result.per_query[qid] == query_metrics(g.relevance, want, (1, 3)), qid

    @pytest.mark.parametrize("key, value", [
        ("bn_eps", "x"), ("bn_eps", True), ("bn_eps", 0), ("bn_eps", -1e-5), ("bn_eps", float("nan")),
        ("bn_momentum", None), ("bn_momentum", float("inf")), ("bn_momentum", 10**400),
    ])
    def test_batch_norm_scalars_must_be_finite_numbers(self, tmp_path, key, value):
        path = tmp_path / "ckpt.json"
        save_checkpoint(Scorer(2, hidden_dim=3), path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=key):
            load_checkpoint(path)

    def test_boolean_version_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(Scorer(2, hidden_dim=3), path)
        payload = json.loads(path.read_text())
        payload["version"] = True  # equal to 1 in Python
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="not a smoothrank-scorer"):
            load_checkpoint(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"format": "other", "version": 1}')
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)
