"""CLI commands: artifacts, determinism, exit codes, output formats."""

import dataclasses
import inspect
import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from smoothrank import (
    LossSpec,
    Scorer,
    SmoothIParams,
    bounds_lab,
    cli,
    data_io,
    finite_difference_check,
    ltr_model,
    make_loss_spec,
    save_checkpoint,
    training_loss,
)

from oracles import gradcheck_rows_one_by_one, query_metrics


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return str(path)


def tiny_train_config(out_dir, **overrides):
    payload = {
        "dataset": "synthetic",
        "train_queries": 12,
        "validation_queries": 6,
        "docs_per_query": 6,
        "feature_dim": 4,
        "data_seed": 7,
        "loss_kind": "ndcg@k",
        "alpha": 10.0,
        "delta": 0.1,
        "learning_rate": 1e-2,
        "epochs": 2,
        "batch_size_queries": 8,
        "hidden_dim": 16,
        "seed": 0,
        "output_dir": out_dir,
    }
    payload.update(overrides)
    return payload


def tiny_config(command, out_dir, tmp_path, **overrides):
    """A quick, valid config for each command."""
    if command in ("train", "sweep"):
        payload = tiny_train_config(out_dir)
        if command == "sweep":
            del payload["alpha"], payload["delta"]
            payload.update(alpha_grid=[10.0], delta_grid=[0.1])
    elif command == "evaluate":
        checkpoint = tmp_path / "untrained.json"
        save_checkpoint(Scorer(4, hidden_dim=2, seed=0), checkpoint)
        payload = {"train_queries": 12, "validation_queries": 6, "docs_per_query": 6,
                   "feature_dim": 4, "data_seed": 7, "checkpoint": str(checkpoint),
                   "split": "validation", "output_dir": out_dir}
    else:
        payload = {"instances": 5, "seed": 1, "output_dir": out_dir}
    payload.update(overrides)
    return payload


@pytest.fixture()
def out_root(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUTPUT_ROOT, str(tmp_path))
    return tmp_path


# each a JSON value of the wrong type or out of range, and the key the
# one-line message must name
CONFIG_FAILURES = [
    ("train", {"epochs": "abc"}, "epochs"),
    ("train", {"epochs": 2.7}, "epochs"),
    ("train", {"learning_rate": True}, "learning_rate"),
    ("train", {"hidden_dim": 0}, "hidden_dim"),
    ("train", {"graded": "false"}, "graded"),
    ("train", {"select_cutoff": 0}, "select_cutoff"),
    ("train", {"dataset": "svmlight", "train_path": "train.txt"}, "vali_path"),
    ("verify-bounds", {"max_docs": 1}, "max_docs"),
    # n = 2 has no K in [2, n] among [3]; raised before any row is checked
    ("verify-bounds", {"instances": 40, "min_docs": 2, "max_docs": 6, "k_values": [3]}, "no usable k"),
    ("sweep", {"alpha_grid": []}, "alpha_grid"),
    ("evaluate", {"cutoffs": [0]}, "cutoffs"),
    ("train", {"loss_kind": "ap", "loss_k": 5}, "cutoff"),
    ("train", {"n_queries": 40}, "n_queries"),
    # alphas are drawn log-uniformly from [0.1, alpha_max]
    ("gradcheck", {"alpha_max": 0.05}, "alpha_max"),
    # no max_rel_err is below a negative tolerance, so every check would fail
    ("gradcheck", {"tolerance": -1.0}, "tolerance"),
    # a repeated entry would write its rows twice
    ("gradcheck", {"loss_kinds": ["ap", "ap"]}, "loss_kinds"),
    ("gradcheck", {"grad_modes": ["full", "stop_gradient", "full"]}, "grad_modes"),
]


@pytest.mark.parametrize("command, overrides, key", CONFIG_FAILURES,
                         ids=[f"{c}-{k}" for c, _, k in CONFIG_FAILURES])
def test_bad_config_value_exits_two(tmp_path, out_root, capsys, command, overrides, key):
    cfg = write_config(tmp_path / "c.json", tiny_config(command, "bad", tmp_path, **overrides))
    assert cli.main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("config error:") and key in line
    assert not (out_root / "bad").exists()


@pytest.mark.parametrize("command", ["evaluate", "gradcheck", "verify-bounds"])
def test_strict_outside_training_exits_two(tmp_path, out_root, capsys, command):
    """--strict pins the training recipe; a command that does not train
    refuses it before making its output directory."""
    cfg = write_config(tmp_path / "c.json", tiny_config(command, "strict", tmp_path))
    assert cli.main([command, "--config", cfg, "--strict"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error:") and "--strict" in line and command in line
    assert not (out_root / "strict").exists()
    assert cli.main([command, "--config", cfg]) == 0


def check_resolved_config_round_trip(tmp_path, out_root, command, output):
    """Running a command's resolved_config.json again reproduces its output."""
    cfg = write_config(tmp_path / "c.json", tiny_config(command, "orig", tmp_path))
    assert cli.main([command, "--config", cfg]) == 0
    resolved = json.loads((out_root / "orig" / "resolved_config.json").read_text())
    assert resolved.pop("command") == command
    settings_cls, _ = cli.COMMANDS[command]
    assert set(resolved) == {f.name for f in dataclasses.fields(settings_cls)}
    resolved["output_dir"] = "again"
    cfg2 = write_config(tmp_path / "c2.json", resolved)
    assert cli.main([command, "--config", cfg2]) == 0
    assert (out_root / "orig" / output).read_bytes() == (out_root / "again" / output).read_bytes()


# train's case is TestTrainCommand.test_resolved_config_reproduces_the_run
@pytest.mark.parametrize("command, output", [
    ("evaluate", "metrics.json"),
    ("gradcheck", "gradcheck.csv"),
    ("verify-bounds", "bounds.csv"),
    ("sweep", "sweep.csv"),
])
def test_resolved_config_reproduces_the_run(tmp_path, out_root, command, output):
    check_resolved_config_round_trip(tmp_path, out_root, command, output)


def test_readme_documents_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for settings_cls, _ in cli.COMMANDS.values():
        for field in dataclasses.fields(settings_cls):
            assert f"`{field.name}`" in readme, field.name


def test_cli_defaults_are_the_library_defaults():
    """Every default a command shares with the library is the library's."""
    def defaults(cls):
        return {f.name: f.default for f in dataclasses.fields(cls)}

    def default_argument(function, name):
        return inspect.signature(function).parameters[name].default

    config, loss = defaults(ltr_model.TrainConfig), defaults(LossSpec)
    for settings_cls in (cli.TrainSettings, cli.SweepSettings):
        settings = defaults(settings_cls)
        for key in ("learning_rate", "epochs", "batch_size_queries", "hidden_dim", "select_cutoff"):
            assert settings[key] == config[key], key
        assert settings["loss_k"] == loss["k"]
        assert settings["grad_mode"] == loss["grad_mode"]
        assert settings["shift_margin"] == loss["shift_margin"]
    for settings_cls in (cli.TrainSettings, cli.GradcheckSettings, cli.VerifyBoundsSettings):
        assert defaults(settings_cls)["delta"] == defaults(SmoothIParams)["delta"]
    assert defaults(cli.EvaluateSettings)["cutoffs"] == default_argument(ltr_model.evaluate, "cutoffs")
    assert defaults(cli.VerifyBoundsSettings)["alpha_factors"] == default_argument(
        bounds_lab.bound_sweep, "alpha_factors")
    assert defaults(cli.GradcheckSettings)["step_h"] == default_argument(finite_difference_check, "h")


class TestTrainCommand:
    def test_artifacts_and_exit_code(self, tmp_path, out_root):
        cfg = write_config(tmp_path / "c.json", tiny_train_config("run1"))
        assert cli.main(["train", "--config", cfg]) == 0
        out = out_root / "run1"
        assert (out / "checkpoint.json").exists()
        assert (out / "resolved_config.json").exists()
        assert (out / "train.log").exists()
        history = (out / "history.csv").read_text().splitlines()
        assert len(history) == 1 + 2  # header + one row per epoch
        assert history[0].split(",")[:3] == ["epoch", "train_loss", "skipped_queries"]
        assert [row.split(",")[2] for row in history[1:]] == ["0", "0"]

    def test_history_counts_skipped_training_queries(self, tmp_path, out_root):
        rng = np.random.default_rng(3)
        paths = {}
        for split, grades in (("train", [1, 0, 1, 0, 1]), ("vali", [1, 1]), ("test", [1])):
            lines = []
            for q, top in enumerate(grades):
                for j in range(4):
                    feats = " ".join(f"{i + 1}:{rng.random():.6f}" for i in range(3))
                    lines.append(f"{top if j == 0 else 0} qid:{split}{q} {feats}")
            paths[f"{split}_path"] = str(tmp_path / f"{split}.txt")
            Path(paths[f"{split}_path"]).write_text("\n".join(lines) + "\n")
        payload = tiny_train_config("skips", dataset="svmlight", **paths)
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["train", "--config", cfg]) == 0
        history = (out_root / "skips" / "history.csv").read_text().splitlines()
        column = history[0].split(",").index("skipped_queries")
        assert [row.split(",")[column] for row in history[1:]] == ["2", "2"]

    def test_history_counts_skipped_validation_queries(self, tmp_path, out_root):
        rng = np.random.default_rng(4)
        paths = {}
        for split, grades in (("train", [1, 1, 1]), ("vali", [1, 0, 1, 0, 0]), ("test", [1])):
            lines = []
            for q, top in enumerate(grades):
                for j in range(4):
                    feats = " ".join(f"{i + 1}:{rng.random():.6f}" for i in range(3))
                    lines.append(f"{top if j == 0 else 0} qid:{split}{q} {feats}")
            paths[f"{split}_path"] = str(tmp_path / f"{split}.txt")
            Path(paths[f"{split}_path"]).write_text("\n".join(lines) + "\n")
        payload = tiny_train_config("val-skips", dataset="svmlight", **paths)
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["train", "--config", cfg]) == 0
        out = out_root / "val-skips"
        history = (out / "history.csv").read_text().splitlines()
        header = history[0].split(",")
        assert header[:4] == ["epoch", "train_loss", "skipped_queries", "val_skipped_queries"]
        assert [row.split(",")[2:4] for row in history[1:]] == [["0", "3"], ["0", "3"]]
        log = (out / "train.log").read_text()
        assert log.count("0 training queries skipped (undefined loss), "
                         "3 validation queries skipped (no relevant document)") == 2

    def test_byte_identical_reruns(self, tmp_path, out_root):
        cfg1 = write_config(tmp_path / "c1.json", tiny_train_config("runA"))
        cfg2 = write_config(tmp_path / "c2.json", tiny_train_config("runB"))
        assert cli.main(["train", "--config", cfg1]) == 0
        assert cli.main(["train", "--config", cfg2]) == 0
        for name in ("history.csv", "checkpoint.json"):
            a = (out_root / "runA" / name).read_bytes()
            b = (out_root / "runB" / name).read_bytes()
            assert a == b

    def test_resolved_config_reproduces_the_run(self, tmp_path, out_root):
        check_resolved_config_round_trip(tmp_path, out_root, "train", "history.csv")

    def test_unknown_key_is_config_error(self, tmp_path, out_root):
        payload = tiny_train_config("x")
        payload["learning_rte"] = 0.1
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["train", "--config", cfg]) == 2

    def test_missing_data_file_is_data_error(self, tmp_path, out_root):
        payload = {
            "dataset": "svmlight",
            "train_path": str(tmp_path / "missing.txt"),
            "vali_path": str(tmp_path / "missing_vali.txt"),
            "test_path": str(tmp_path / "missing_test.txt"),
            "output_dir": "x",
            "epochs": 1,
        }
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["train", "--config", cfg]) == 3

    @staticmethod
    def train_on_file(tmp_path, train_bytes: bytes) -> int:
        """``smoothrank train`` on LETOR files whose train split is ``train_bytes``."""
        payload = {"dataset": "svmlight", "output_dir": "x", "epochs": 1}
        for split in ("train", "vali", "test"):
            path = tmp_path / f"{split}.txt"
            path.write_text(f"1 qid:{split} 1:0.5\n0 qid:{split} 1:0.1\n")
            payload[f"{split}_path"] = str(path)
        (tmp_path / "train.txt").write_bytes(train_bytes)
        return cli.main(["train", "--config", write_config(tmp_path / "c.json", payload)])

    def test_non_utf8_data_file_is_data_error(self, tmp_path, out_root, capsys):
        assert self.train_on_file(tmp_path, b"1 qid:1 1:0.5\n\xff\xfe qid:1 1:0.1\n") == 3
        assert "train.txt: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("train, message", [
        (b"1 qid:1 1:0.5\nnan qid:1 1:0.1\n", "train.txt:2: non-finite relevance 'nan'"),
        (b"1 qid:1 1:0.5\ninf qid:1 1:0.1\n", "train.txt:2: non-finite relevance 'inf'"),
        (b"1 qid:1 1:0.5\n-inf qid:1 1:0.1\n", "train.txt:2: non-finite relevance '-inf'"),
        (b"1 qid:1 1:0.5\n0 qid:1 1:nan\n", "train.txt:2: non-finite feature value '1:nan'"),
        (b"1 qid:1 1:inf\n0 qid:1 1:0.1\n", "train.txt:1: non-finite feature value '1:inf'"),
        (b"1 qid:1 2:0.5\n0 qid:1 1:-inf\n", "train.txt:2: non-finite feature value '1:-inf'"),
        (b"1 qid:1 # a\n0 qid:1 # b\n", "fold 0: the train file has no feature values"),
    ], ids=["nan grade", "inf grade", "-inf grade", "nan feature", "inf feature", "-inf feature", "no features"])
    def test_unusable_train_file_is_data_error(self, tmp_path, out_root, capsys, train, message):
        assert self.train_on_file(tmp_path, train) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"

    @pytest.mark.parametrize("index", ["99999999999999999999", "3000000000"])
    def test_huge_feature_index_is_data_error(self, tmp_path, out_root, capsys, index):
        """The index is refused before any feature matrix is built: one
        column per index would pass numpy's dimension limit for the first
        and ask for 44.7 GiB for the second."""
        assert self.train_on_file(tmp_path, f"1 qid:1 1:0.5\n0 qid:1 {index}:0.1\n".encode()) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"data error: train.txt:2: feature index {index} exceeds the limit 65536"

    def test_loss_cutoff_is_cut_to_short_lists(self, tmp_path, out_root, monkeypatch):
        rng = np.random.default_rng(0)
        paths = {}
        for split, lengths in (("train", [3, 4, 9, 5, 8, 3]), ("vali", [4, 7]), ("test", [6])):
            lines = []
            for q, n in enumerate(lengths):
                x = rng.standard_normal((n, 3))
                rel = (x[:, 0] > 0).astype(int)
                rel[0] = 1
                for j in range(n):
                    feats = " ".join(f"{i + 1}:{float(x[j, i])!r}" for i in range(3))
                    lines.append(f"{rel[j]} qid:{split}{q} {feats}")
            paths[f"{split}_path"] = str(tmp_path / f"{split}.txt")
            Path(paths[f"{split}_path"]).write_text("\n".join(lines) + "\n")
        lists = []
        original = ltr_model.loss_and_gradient

        def recording(rel, raw, spec, mask):
            values, grads = original(rel, raw, spec, mask)
            for b, n in enumerate(mask.sum(axis=1)):
                lists.append((rel[b, :n], np.array(raw[b, :n]), spec, values[b]))
            return values, grads

        monkeypatch.setattr(ltr_model, "loss_and_gradient", recording)
        payload = tiny_train_config("varlen", dataset="svmlight", loss_k=6, epochs=1, **paths)
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["train", "--config", cfg]) == 0
        assert {rel.size for rel, *_ in lists} == {3, 4, 5, 8, 9}
        for rel, raw, spec, value in lists:
            at_n = make_loss_spec("ndcg@k", k=min(6, rel.size), alpha=10.0, delta=0.1)
            assert spec.k == 6
            assert value == pytest.approx(training_loss(rel, raw, at_n), abs=1e-12)

    def test_strict_rejects_off_grid_learning_rate(self, tmp_path, out_root, capsys):
        payload = tiny_train_config("x", learning_rate=5e-3)
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["train", "--config", cfg, "--strict"]) == 2
        # strict also pins epochs and batch size
        payload = tiny_train_config("x", epochs=2)
        cfg = write_config(tmp_path / "c2.json", payload)
        assert cli.main(["train", "--config", cfg, "--strict"]) == 2

    def test_off_grid_learning_rate_warns_without_strict(self, tmp_path, out_root, capsys):
        payload = tiny_train_config("warned", learning_rate=5e-3)
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["train", "--config", cfg]) == 0
        assert "outside the reference grid" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path, out_root):
        cfg = write_config(tmp_path / "c.json", tiny_train_config("seeded", seed=0))
        assert cli.main(["train", "--config", cfg, "--seed", "5"]) == 0
        resolved = json.loads((out_root / "seeded" / "resolved_config.json").read_text())
        assert resolved["seed"] == 5


class TestEvaluateCommand:
    def _train(self, tmp_path, out_root):
        cfg = write_config(tmp_path / "t.json", tiny_train_config("trained"))
        assert cli.main(["train", "--config", cfg]) == 0
        return out_root / "trained" / "checkpoint.json"

    def test_outputs(self, tmp_path, out_root):
        ckpt = self._train(tmp_path, out_root)
        payload = {
            "dataset": "synthetic",
            "train_queries": 12,
            "validation_queries": 6,
            "docs_per_query": 6,
            "feature_dim": 4,
            "data_seed": 7,
            "checkpoint": str(ckpt),
            "split": "validation",
            "output_dir": "eval1",
        }
        cfg = write_config(tmp_path / "e.json", payload)
        assert cli.main(["evaluate", "--config", cfg]) == 0
        metrics = json.loads((out_root / "eval1" / "metrics.json").read_text())
        assert set(metrics["summary"]) >= {"p@1", "ndcg@10", "ndcg", "map"}
        # per-query rows average exactly to the summary
        for key, value in metrics["summary"].items():
            rows = [row[key] for row in metrics["per_query"].values()]
            assert value == pytest.approx(np.mean(rows), abs=1e-12)

        run_lines = (out_root / "eval1" / "run.txt").read_text().splitlines()
        by_qid = {}
        for line in run_lines:
            qid, q0, docid, rank, score, tag = line.split()
            assert q0 == "Q0"
            assert tag == "smoothrank"
            float(score)  # plain decimal score column
            by_qid.setdefault(qid, []).append(int(rank))
        assert sorted(by_qid) == list(by_qid)  # sorted by qid
        for ranks in by_qid.values():
            assert ranks == list(range(1, len(ranks) + 1))  # 1-based contiguous

    def test_run_file_ranks_the_scores_of_the_metrics(self, tmp_path, out_root):
        ckpt = self._train(tmp_path, out_root)
        payload = {"train_queries": 12, "validation_queries": 6, "docs_per_query": 6,
                   "feature_dim": 4, "data_seed": 7, "graded": True, "checkpoint": str(ckpt),
                   "split": "validation", "cutoffs": [1, 3, 7], "output_dir": "eval5"}
        cfg = write_config(tmp_path / "e.json", payload)
        assert cli.main(["evaluate", "--config", cfg]) == 0
        metrics = json.loads((out_root / "eval5" / "metrics.json").read_text())
        scores = {}
        for line in (out_root / "eval5" / "run.txt").read_text().splitlines():
            qid, _, doc_id, _, score, _ = line.split()
            scores.setdefault(qid, {})[doc_id] = float(score)
        dataset = data_io.synthesize(18, 6, 4, seed=7, graded=True).split_by_counts(12, 6)
        assert sorted(scores) == sorted(dataset.query_ids("validation"))
        result = ltr_model.evaluate(ltr_model.load_checkpoint(ckpt), dataset, "validation", cutoffs=(1, 3, 7))
        assert metrics["per_query"]
        for qid, row in metrics["per_query"].items():
            g = dataset.groups[qid]
            raw = np.array([scores[qid][doc_id] for doc_id in g.doc_ids])
            np.testing.assert_array_equal(raw, result.scores[qid])
            assert query_metrics(g.relevance, raw, (1, 3, 7)) == row

    def test_non_finite_scores_exit_two(self, tmp_path, out_root, capsys):
        scorer = Scorer(4, hidden_dim=3, seed=0)
        scorer.w2[...] = np.nan
        ckpt = tmp_path / "nan.json"
        save_checkpoint(scorer, ckpt)
        cfg = write_config(tmp_path / "e.json", tiny_config("evaluate", "eval6", tmp_path,
                                                              checkpoint=str(ckpt)))
        assert cli.main(["evaluate", "--config", cfg]) == 2
        first = data_io.synthesize(18, 6, 4, seed=7).split_by_counts(12, 6).query_ids("validation")[0]
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"non-finite scores for query {first!r}" in err
        assert not (out_root / "eval6" / "metrics.json").exists()

    def test_non_numeric_bn_eps_exits_two(self, tmp_path, out_root, capsys):
        ckpt = tmp_path / "eps.json"
        save_checkpoint(Scorer(4, hidden_dim=2, seed=0), ckpt)
        payload = json.loads(ckpt.read_text())
        payload["bn_eps"] = "x"
        ckpt.write_text(json.dumps(payload))
        cfg = write_config(tmp_path / "e.json", tiny_config("evaluate", "eval7", tmp_path,
                                                              checkpoint=str(ckpt)))
        assert cli.main(["evaluate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "bn_eps must be a finite number" in err
        assert not (out_root / "eval7" / "metrics.json").exists()

    def test_checkpoint_array_of_another_json_type_exits_two(self, tmp_path, out_root, capsys):
        ckpt = tmp_path / "w2.json"
        save_checkpoint(Scorer(4, hidden_dim=2, seed=0), ckpt)
        payload = json.loads(ckpt.read_text())
        payload["arrays"]["w2"] = {"0": 1.0}
        ckpt.write_text(json.dumps(payload))
        cfg = write_config(tmp_path / "e.json", tiny_config("evaluate", "eval8", tmp_path,
                                                              checkpoint=str(ckpt)))
        assert cli.main(["evaluate", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: {ckpt}: array 'w2' is not an array of numbers\n"

    def test_checkpoint_schema_mismatch(self, tmp_path, out_root):
        ckpt = self._train(tmp_path, out_root)
        payload = {
            "dataset": "synthetic",
            "train_queries": 4,
            "validation_queries": 2,
            "docs_per_query": 4,
            "feature_dim": 9,  # disagrees with the checkpoint
            "checkpoint": str(ckpt),
            "split": "validation",
            "output_dir": "eval2",
        }
        cfg = write_config(tmp_path / "e.json", payload)
        assert cli.main(["evaluate", "--config", cfg]) == 2

    def test_incomplete_checkpoint_exits_two(self, tmp_path, out_root):
        ckpt = tmp_path / "partial.json"
        ckpt.write_text('{"format": "smoothrank-scorer", "version": 1}')
        payload = {
            "dataset": "synthetic",
            "train_queries": 4,
            "validation_queries": 2,
            "checkpoint": str(ckpt),
            "output_dir": "eval4",
        }
        cfg = write_config(tmp_path / "e.json", payload)
        assert cli.main(["evaluate", "--config", cfg]) == 2

    def test_missing_checkpoint(self, tmp_path, out_root):
        payload = {
            "dataset": "synthetic",
            "train_queries": 4,
            "validation_queries": 2,
            "checkpoint": str(tmp_path / "none.json"),
            "output_dir": "eval3",
        }
        cfg = write_config(tmp_path / "e.json", payload)
        assert cli.main(["evaluate", "--config", cfg]) == 2

    def test_perfect_checkpoint_reports_ideal_ndcg(self, tmp_path, out_root):
        """A checkpoint that recovers the planted linear ranker scores the
        synthetic data perfectly."""
        from smoothrank import Scorer, save_checkpoint

        hidden = np.random.default_rng(3).standard_normal(5)
        oracle = Scorer(5, hidden_dim=2, seed=0)
        oracle.w1[...] = np.column_stack([hidden, -hidden])
        oracle.w2[...] = np.array([1.0, -1.0])
        oracle.b2[...] = 0.0
        ckpt = tmp_path / "oracle.json"
        save_checkpoint(oracle, ckpt)
        payload = {
            "dataset": "synthetic",
            "train_queries": 6,
            "validation_queries": 4,
            "docs_per_query": 8,
            "feature_dim": 5,
            "data_seed": 3,
            "checkpoint": str(ckpt),
            "split": "validation",
            "output_dir": "eval4",
        }
        cfg = write_config(tmp_path / "e.json", payload)
        assert cli.main(["evaluate", "--config", cfg]) == 0
        metrics = json.loads((out_root / "eval4" / "metrics.json").read_text())
        assert metrics["summary"]["ndcg"] == pytest.approx(1.0)


class TestGradcheckCommand:
    def test_defaults_pass(self, tmp_path, out_root):
        payload = {"instances": 20, "seed": 0, "output_dir": "gc"}
        cfg = write_config(tmp_path / "g.json", payload)
        assert cli.main(["gradcheck", "--config", cfg]) == 0
        rows = (out_root / "gc" / "gradcheck.csv").read_text().splitlines()
        assert rows[0].startswith("instance,")
        assert len(rows) == 1 + 20 * 3 * 2  # instances x kinds x modes
        assert all(line.endswith("true") for line in rows[1:])

    def test_unreachable_tolerance_exits_five(self, tmp_path, out_root):
        # a step of 1e-3 truncates at about 1e-6 times the third derivative
        payload = {"instances": 5, "seed": 0, "tolerance": 1e-13, "step_h": 1e-3, "output_dir": "gc2"}
        cfg = write_config(tmp_path / "g.json", payload)
        assert cli.main(["gradcheck", "--config", cfg]) == 5

    def test_huge_step_fails_the_check_without_a_traceback(self, tmp_path, out_root, capsys):
        payload = {"instances": 5, "seed": 1, "step_h": 1e300, "output_dir": "gc4"}
        cfg = write_config(tmp_path / "g.json", payload)
        with pytest.warns(UserWarning, match="h="):
            assert cli.main(["gradcheck", "--config", cfg]) == 5
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        # the output-bytes CI job's two configs
        {"instances": 40, "min_docs": 2, "max_docs": 10, "seed": 1},
        {"instances": 30, "min_docs": 1, "max_docs": 40, "max_cutoff": 10, "alpha_max": 100.0,
         "loss_kinds": ["ndcg@k", "ap"], "grad_modes": ["stop_gradient", "full"], "seed": 3},
        # the certify benchmark's config
        *({"instances": 120, "min_docs": 2, "max_docs": 10, "max_cutoff": 5, "alpha_max": 10.0,
           "delta": 0.1, "tolerance": 1e-4, "seed": seed} for seed in (1, 2, 3)),
    ], ids=["ci", "ci-long", "certify-1", "certify-2", "certify-3"])
    def test_writes_the_bytes_of_one_check_per_list(self, tmp_path, out_root, payload):
        """Grouping the checks of each (kind, mode) leaves every byte of
        gradcheck.csv as one finite_difference_check per row wrote it."""
        cfg = write_config(tmp_path / "g.json", {**payload, "output_dir": "gc5"})
        assert cli.main(["gradcheck", "--config", cfg]) == 0
        settings = cli.GradcheckSettings(**{key: tuple(value) if isinstance(value, list) else value
                                            for key, value in payload.items()})
        expected = "\n".join(gradcheck_rows_one_by_one(settings)) + "\n"
        assert (out_root / "gc5" / "gradcheck.csv").read_bytes() == expected.encode()

    def test_deterministic_output(self, tmp_path, out_root):
        payload = {"instances": 10, "seed": 3, "output_dir": "gc3"}
        cfg = write_config(tmp_path / "g.json", payload)
        assert cli.main(["gradcheck", "--config", cfg]) == 0
        first = (out_root / "gc3" / "gradcheck.csv").read_bytes()
        assert cli.main(["gradcheck", "--config", cfg]) == 0
        assert (out_root / "gc3" / "gradcheck.csv").read_bytes() == first


class TestVerifyBoundsCommand:
    def test_auto_alphas_hold_everywhere(self, tmp_path, out_root):
        payload = {"instances": 40, "seed": 1, "output_dir": "vb"}
        cfg = write_config(tmp_path / "v.json", payload)
        assert cli.main(["verify-bounds", "--config", cfg]) == 0
        summary = json.loads((out_root / "vb" / "summary.json").read_text())
        assert summary["fraction_holding"] == 1.0
        assert summary["checked"] == 40 * 3

    def test_subthreshold_rows_marked_skipped(self, tmp_path, out_root):
        payload = {
            "instances": 6,
            "seed": 2,
            "alphas": [0.01, 1e6],
            "output_dir": "vb2",
        }
        cfg = write_config(tmp_path / "v.json", payload)
        assert cli.main(["verify-bounds", "--config", cfg]) == 0
        rows = (out_root / "vb2" / "bounds.csv").read_text().splitlines()[1:]
        skipped = [r for r in rows if r.endswith("skipped_below_threshold")]
        assert len(skipped) == 6

    def test_bad_delta_is_config_error(self, tmp_path, out_root):
        payload = {"instances": 5, "delta": 0.6, "output_dir": "vb3"}
        cfg = write_config(tmp_path / "v.json", payload)
        assert cli.main(["verify-bounds", "--config", cfg]) == 2

    @pytest.mark.parametrize("k", [1024, 1025])
    def test_threshold_past_the_float_range_is_config_error(self, tmp_path, out_root, capsys, k):
        """The threshold is inf at K=1024, and 2**(K-1) overflows at K=1025:
        the certificate names the threshold, not an alpha of inf or an
        OverflowError."""
        payload = {"instances": 1, "min_docs": 1100, "max_docs": 1100, "k_values": [k], "output_dir": "vb4"}
        cfg = write_config(tmp_path / "v.json", payload)
        assert cli.main(["verify-bounds", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"config error: list 0: certificate threshold at K={k} is not a finite float\n")

    def test_probe_alpha_past_the_float_range_is_config_error(self, tmp_path, out_root, capsys):
        """At K=1000 the threshold is finite but about 1e305, so 1.05 times it
        scales 1,100 scores past the float range: refused before any scaling
        (a RuntimeWarning fails the test), naming the instance, n, K and
        alpha."""
        payload = {"instances": 1, "min_docs": 1100, "max_docs": 1100, "k_values": [1000], "output_dir": "vb5"}
        cfg = write_config(tmp_path / "v.json", payload)
        assert cli.main(["verify-bounds", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: instance 0 (n=1100, K=1000): alpha=")
        assert err.endswith(" scales its scores past the float range\n")
        assert not (out_root / "vb5" / "bounds.csv").exists()


class TestSweepCommand:
    def test_grid_shape_and_single_cell_equivalence(self, tmp_path, out_root):
        base = tiny_train_config("sweep1")
        base.pop("alpha")
        base.pop("delta")
        payload = dict(base)
        payload.update({"alpha_grid": [1.0, 10.0], "delta_grid": [0.1, 0.3]})
        cfg = write_config(tmp_path / "s.json", payload)
        assert cli.main(["sweep", "--config", cfg]) == 0
        rows = (out_root / "sweep1" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 2

        # a single-cell sweep reproduces a plain training run
        single = dict(base)
        single.update({"alpha_grid": [10.0], "delta_grid": [0.1], "output_dir": "sweep2"})
        cfg_single = write_config(tmp_path / "s2.json", single)
        assert cli.main(["sweep", "--config", cfg_single]) == 0
        best = json.loads((out_root / "sweep2" / "best.json").read_text())

        train_cfg = write_config(tmp_path / "t.json", tiny_train_config("plain"))
        assert cli.main(["train", "--config", train_cfg]) == 0
        history = (out_root / "plain" / "history.csv").read_text().splitlines()
        header = history[0].split(",")
        ndcg_col = header.index("val_ndcg")
        best_from_train = max(float(r.split(",")[ndcg_col]) for r in history[1:])
        assert best["val_ndcg"] == pytest.approx(best_from_train, abs=1e-15)


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the sweep's worker pool forks")


def sweep_payload(out_dir, **overrides):
    payload = tiny_train_config(out_dir, **overrides)
    del payload["alpha"], payload["delta"]
    # six cells, more than the two workers
    payload.setdefault("alpha_grid", [1.0, 10.0, 100.0])
    payload.setdefault("delta_grid", [0.1, 0.3])
    return payload


@needs_fork
class TestSweepWorkers:
    """The sweep trains its cells inline or in forked workers; ``_sweep_workers``
    is patched to force either path."""

    def run_sweep(self, tmp_path, monkeypatch, workers, payload):
        monkeypatch.setattr(cli, "_sweep_workers", lambda cells: workers)
        cfg = write_config(tmp_path / f"{payload['output_dir']}.json", payload)
        code = cli.main(["sweep", "--config", cfg])
        assert multiprocessing.active_children() == []
        return code

    def test_pool_writes_the_bytes_of_the_inline_path(self, tmp_path, out_root, monkeypatch):
        real = ltr_model.train
        pids = tmp_path / "pids"

        def train(dataset, config):
            with pids.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(dataset, config)

        monkeypatch.setattr(ltr_model, "train", train)
        outputs, trainers = {}, {}
        for workers in (1, 2):
            payload = sweep_payload(f"sweep-{workers}", batch_size_queries=4)
            assert self.run_sweep(tmp_path, monkeypatch, workers, payload) == 0
            outputs[workers] = [(out_root / f"sweep-{workers}" / name).read_bytes()
                                for name in ("sweep.csv", "best.json")]
            trainers[workers] = pids.read_text().split()
            pids.unlink()
        assert outputs[1] == outputs[2]
        assert len(outputs[2][0].splitlines()) == 1 + 6
        assert trainers[1] == [str(os.getpid())] * 6
        assert len(trainers[2]) == 6 and len(set(trainers[2])) == 2
        assert str(os.getpid()) not in trainers[2]

    def test_a_diverging_cell_exits_four_on_both_paths(self, tmp_path, out_root, monkeypatch, capsys):
        """The first diverging cell in grid order names the error, as inline."""
        real = ltr_model.train

        def train(dataset, config):
            params = config.loss.params
            if params.alpha >= 10.0:
                raise ltr_model.DivergenceError(2, f"non-finite loss at epoch 2 (alpha {params.alpha}, "
                                                   f"delta {params.delta})")
            return real(dataset, config)

        monkeypatch.setattr(ltr_model, "train", train)
        errors = []
        for workers in (1, 2):
            payload = sweep_payload(f"sweep-{workers}")
            assert self.run_sweep(tmp_path, monkeypatch, workers, payload) == 4
            errors.append(capsys.readouterr().err)
            assert not (out_root / f"sweep-{workers}" / "sweep.csv").exists()
        assert errors == ["divergence: non-finite loss at epoch 2 (alpha 10.0, delta 0.1)\n"] * 2


@pytest.mark.parametrize("env, cpus, cells, workers", [
    ({}, 2, 20, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 20, 2),
    ({"OPENBLAS_NUM_THREADS": "1"}, 8, 3, 3),
    ({"OPENBLAS_NUM_THREADS": "0"}, 2, 20, 1),
    ({"OPENBLAS_NUM_THREADS": "abc"}, 2, 20, 1),
    ({"OPENBLAS_NUM_THREADS": "4"}, 2, 20, 1),
    ({"GOTO_NUM_THREADS": "1"}, 2, 20, 2),
    ({"OMP_NUM_THREADS": "2"}, 4, 20, 2),
    # the first variable holding a positive integer counts
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 20, 2),
    ({"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "1"}, 2, 20, 2),
])
def test_sweep_workers_are_the_cpus_per_blas_threads(monkeypatch, env, cpus, cells, workers):
    for var in cli.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"])
    assert cli._sweep_workers(cells) == workers


def test_sweep_without_fork_has_one_worker(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert cli._sweep_workers(20) == 1


class TestArgumentParsing:
    def test_missing_config_file(self, tmp_path, out_root):
        assert cli.main(["train", "--config", str(tmp_path / "none.json")]) == 2

    def test_invalid_json(self, tmp_path, out_root):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["train", "--config", str(bad)]) == 2


# a directory where a file is read, or a regular file where the output
# directory goes: (command, config overrides, exit code, message); "DIR" is a
# directory and "blocker" a regular file under the output root
UNREADABLE_PATHS = {
    "checkpoint": ("evaluate", {"checkpoint": "DIR"}, 2, "config error: [Errno 21] Is a directory: 'DIR'"),
    "data": ("train", {"dataset": "svmlight", "train_path": "DIR", "vali_path": "DIR", "test_path": "DIR"}, 3,
             "data error: fold 0: cannot read 'train' file: [Errno 21] Is a directory: 'DIR'"),
    "output under a file": ("verify-bounds", {"output_dir": "blocker/sub"}, 2,
                            "config error: [Errno 20] Not a directory: 'ROOT/blocker/sub'"),
    "output is a file": ("verify-bounds", {"output_dir": "blocker"}, 2,
                         "config error: [Errno 17] File exists: 'ROOT/blocker'"),
}


@pytest.mark.parametrize("case", UNREADABLE_PATHS)
def test_unreadable_paths_exit_with_one_line(tmp_path, out_root, capsys, case):
    command, overrides, code, message = UNREADABLE_PATHS[case]
    (tmp_path / "DIR").mkdir()
    (tmp_path / "blocker").write_text("")
    overrides = {key: value.replace("DIR", str(tmp_path / "DIR")) for key, value in overrides.items()}
    cfg = write_config(tmp_path / "c.json", tiny_config(command, "out", tmp_path, **overrides))
    assert cli.main([command, "--config", cfg]) == code
    expected = message.replace("ROOT", str(tmp_path)).replace("DIR", str(tmp_path / "DIR"))
    assert capsys.readouterr().err == expected + "\n"


def test_config_naming_a_directory_exits_two(tmp_path, out_root, capsys):
    assert cli.main(["verify-bounds", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: cannot read config file {tmp_path}: Is a directory\n"


# a directory where the command writes a file: (command, output file)
UNWRITABLE_OUTPUTS = [("verify-bounds", "bounds.csv"), ("verify-bounds", "summary.json"),
                      ("verify-bounds", "resolved_config.json"), ("train", "train.log")]


@pytest.mark.parametrize("command, name", UNWRITABLE_OUTPUTS, ids=[name for _, name in UNWRITABLE_OUTPUTS])
def test_an_output_file_that_cannot_be_written_exits_two(tmp_path, out_root, capsys, command, name):
    (out_root / "out" / name).mkdir(parents=True)
    cfg = write_config(tmp_path / "c.json", tiny_config(command, "out", tmp_path))
    assert cli.main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.endswith(
        f"config error: cannot write {out_root / 'out' / name}: Is a directory\n")
