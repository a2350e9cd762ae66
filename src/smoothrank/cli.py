"""Command-line entry points: train, evaluate, gradcheck, verify-bounds, sweep.

Every command takes a flat JSON config (--config), writes its outputs plus
the fully resolved config into an output directory, and is deterministic
given (config, seed): CSV and JSON outputs are byte-identical across reruns.
Wall-clock timings go to a separate .log file only. The output root defaults
to the current directory and can be moved with the SMOOTHRANK_OUT
environment variable.

Each command's keys, their types and their defaults are the fields of one
frozen dataclass (``TrainSettings``, ``EvaluateSettings``, ...). The JSON is
coerced into it field by field, and ``resolved_config.json`` is that
dataclass plus the command name, so it can be fed back through --config.

Exit codes: 0 success, 2 config error, 3 data error, 4 training divergence,
5 gradient-check tolerance breach.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import sys
import time
import types
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bounds_lab, data_io, ltr_model
# finite_difference_check is not called here; the benchmark's tracer wraps it in this module by name
from .gradients import STEP_H, finite_difference_check, finite_difference_checks
from .rank_core import _rank_order, check_cutoffs
from .smooth_metrics import GRAD_MODES, LOSS_KINDS, SMOOTH_AP, LossSpec, make_loss_spec
from .smoothi import SmoothIParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4
EXIT_GRADCHECK = 5

# the reference training recipe; --strict pins hyperparameters to it
STRICT_LEARNING_RATES = (1e-2, 1e-3)
STRICT_ALPHAS = (0.1, 1.0, 10.0, 100.0)
STRICT_DELTA = 0.1
STRICT_EPOCHS = 50
STRICT_BATCH = 128

ENV_OUTPUT_ROOT = "SMOOTHRANK_OUT"
# where a BLAS library reads its threads per process, in the order OpenBLAS does
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class ConfigError(ValueError):
    pass


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _at_least(settings, minimum: int, *names: str) -> None:
    for name in names:
        value = getattr(settings, name)
        _check(value >= minimum, f"{name} must be >= {minimum}, got {value}")


@contextlib.contextmanager
def _as_config_error():
    """The library's own checks, run on config values, and the files and
    directories the config names (a checkpoint, the output directory) report
    config errors."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class _Settings:
    seed: int = 0

    def __post_init__(self):
        _at_least(self, 0, "seed")


@dataclass(frozen=True)
class _DatasetSettings(_Settings):
    """A synthetic set (the counts below) or LETOR files (all three paths)."""

    dataset: str = "synthetic"
    docs_per_query: int = 20
    feature_dim: int = 10
    train_queries: int = 100
    validation_queries: int = 20
    test_queries: int = 0
    data_seed: int = 0
    graded: bool = False
    train_path: str | None = None
    vali_path: str | None = None
    test_path: str | None = None

    def __post_init__(self):
        super().__post_init__()
        _check(self.dataset in ("synthetic", "svmlight"),
               f"unknown dataset kind {self.dataset!r} (expected 'synthetic' or 'svmlight')")
        if self.dataset == "svmlight":
            _check(None not in (self.train_path, self.vali_path, self.test_path),
                   "svmlight dataset requires train_path, vali_path and test_path")
        _at_least(self, 1, "docs_per_query", "feature_dim", "train_queries")
        _at_least(self, 0, "validation_queries", "test_queries", "data_seed")

    def load(self) -> data_io.Dataset:
        if self.dataset == "svmlight":
            paths = {"train": self.train_path, "vali": self.vali_path, "test": self.test_path}
            return data_io.assemble_folds([paths])[0]
        counts = (self.train_queries, self.validation_queries, self.test_queries)
        ds = data_io.synthesize(sum(counts), self.docs_per_query,
                                self.feature_dim, seed=self.data_seed, graded=self.graded)
        return ds.split_by_counts(*counts)


@dataclass(frozen=True)
class _TrainingSettings(_DatasetSettings):
    loss_kind: str = "ndcg@k"
    loss_k: int | None = LossSpec.k  # None: the full list; cut to each list's length
    grad_mode: str = LossSpec.grad_mode
    shift_margin: float = LossSpec.shift_margin
    learning_rate: float = ltr_model.TrainConfig.learning_rate
    epochs: int = ltr_model.TrainConfig.epochs
    batch_size_queries: int = ltr_model.TrainConfig.batch_size_queries
    hidden_dim: int = ltr_model.TrainConfig.hidden_dim
    select_cutoff: int | None = ltr_model.TrainConfig.select_cutoff  # validation NDCG cutoff; None: full list

    def train_config(self, alpha: float, delta: float, strict: bool) -> ltr_model.TrainConfig:
        if strict:
            for key, value, allowed in (
                ("alpha", alpha, STRICT_ALPHAS),
                ("delta", delta, (STRICT_DELTA,)),
                ("learning_rate", self.learning_rate, STRICT_LEARNING_RATES),
                ("epochs", self.epochs, (STRICT_EPOCHS,)),
                ("batch_size_queries", self.batch_size_queries, (STRICT_BATCH,)),
            ):
                _check(value in allowed, f"--strict requires {key} in {allowed}, got {value}")
        elif self.learning_rate not in STRICT_LEARNING_RATES:
            print(f"warning: learning_rate {self.learning_rate} is outside the reference grid "
                  f"{STRICT_LEARNING_RATES}", file=sys.stderr)
        with _as_config_error():
            loss = make_loss_spec(self.loss_kind, k=self.loss_k, alpha=alpha, delta=delta,
                                  grad_mode=self.grad_mode, shift_margin=self.shift_margin)
            return ltr_model.TrainConfig(
                loss=loss, learning_rate=self.learning_rate, epochs=self.epochs,
                batch_size_queries=self.batch_size_queries, seed=self.seed,
                hidden_dim=self.hidden_dim, select_cutoff=self.select_cutoff)


@dataclass(frozen=True)
class TrainSettings(_TrainingSettings):
    alpha: float = 1.0
    delta: float = SmoothIParams.delta
    output_dir: str = "runs/train"


@dataclass(frozen=True)
class SweepSettings(_TrainingSettings):
    alpha_grid: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0)
    delta_grid: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.45)
    output_dir: str = "runs/sweep"

    def __post_init__(self):
        super().__post_init__()
        _check(bool(self.alpha_grid and self.delta_grid), "alpha_grid and delta_grid must be non-empty")


@dataclass(frozen=True)
class EvaluateSettings(_DatasetSettings):
    checkpoint: str | None = None
    split: str = "test"
    cutoffs: tuple[int, ...] = ltr_model.EVAL_CUTOFFS
    run_tag: str = "smoothrank"
    output_dir: str = "runs/evaluate"

    def __post_init__(self):
        super().__post_init__()
        _check(self.checkpoint is not None, "evaluate requires a checkpoint path")
        _check(self.split in ("train", "validation", "test"),
               f"split must be 'train', 'validation' or 'test', got {self.split!r}")
        with _as_config_error():
            check_cutoffs(self.cutoffs)


@dataclass(frozen=True)
class _InstanceSettings(_Settings):
    """Random score lists: how many, their lengths, and the damping delta."""

    instances: int = 100
    min_docs: int = 2
    max_docs: int = 10
    delta: float = SmoothIParams.delta

    def __post_init__(self):
        super().__post_init__()
        _at_least(self, 0, "instances")
        _at_least(self, self.min_docs, "max_docs")


@dataclass(frozen=True)
class GradcheckSettings(_InstanceSettings):
    max_cutoff: int = 5
    alpha_max: float = 10.0
    grad_modes: tuple[str, ...] = GRAD_MODES
    loss_kinds: tuple[str, ...] = LOSS_KINDS
    step_h: float = STEP_H
    tolerance: float = 1e-4
    output_dir: str = "runs/gradcheck"

    def __post_init__(self):
        super().__post_init__()
        _at_least(self, 1, "min_docs", "max_cutoff")
        _check(self.alpha_max >= 0.1, f"alpha_max must be >= 0.1, got {self.alpha_max}")
        _check(self.step_h > 0.0, f"step_h must be positive, got {self.step_h}")
        _check(self.tolerance >= 0.0, f"tolerance must be >= 0, got {self.tolerance}")
        for name in ("loss_kinds", "grad_modes"):
            entries = getattr(self, name)
            _check(len(set(entries)) == len(entries), f"{name} repeats an entry: {list(entries)}")
        with _as_config_error():
            for kind in self.loss_kinds:
                for mode in self.grad_modes:
                    make_loss_spec(kind, delta=self.delta, grad_mode=mode)


@dataclass(frozen=True)
class VerifyBoundsSettings(_InstanceSettings):
    min_docs: int = 4
    k_values: tuple[int, ...] = (2, 3, 5)
    alphas: tuple[float, ...] | None = None  # None: alpha_factors x each threshold
    alpha_factors: tuple[float, ...] = bounds_lab.ALPHA_FACTORS
    output_dir: str = "runs/verify-bounds"

    def __post_init__(self):
        super().__post_init__()
        _at_least(self, 2, "min_docs")


def _coerce(key: str, value, hint, spelled: str):
    """One JSON value as its field's type: a bool is not a number, a float is
    not an int, a string is not a bool, and a float must be finite."""
    options = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    if value is None and type(None) in options:
        return None
    kind = options[0]
    if typing.get_origin(kind) is tuple and isinstance(value, list):
        return tuple(_coerce(key, item, typing.get_args(kind)[0], spelled) for item in value)
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if type(value) is kind:
        return value
    raise ConfigError(f"{key} must be {spelled}, got {json.dumps(value)}")


def _load_settings(cls, path: str, command: str, seed_override: int | None):
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    _check(isinstance(raw, dict), "config must be a JSON object")
    spelled = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(spelled)
    _check(not unknown, f"unknown config keys for {command}: {sorted(unknown)}")
    if seed_override is not None:
        raw["seed"] = seed_override
    hints = typing.get_type_hints(cls)
    return cls(**{key: _coerce(key, value, hints[key], spelled[key]) for key, value in raw.items()})


def _resolved(settings: _Settings, command: str) -> dict:
    return {**dataclasses.asdict(settings), "command": command}


def _out_dir(settings: _Settings) -> Path:
    out = Path(os.environ.get(ENV_OUTPUT_ROOT, ".")) / settings.output_dir
    with _as_config_error():
        out.mkdir(parents=True, exist_ok=True)
    return out


@contextlib.contextmanager
def _writing(path: Path):
    """An output file that cannot be written (a directory in its place, no
    permission, a full disk) reports a config error naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_json(path: Path, obj) -> None:
    with _writing(path):
        path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[dict]) -> None:
    # rows hold Python scalars, and str of a Python float is its repr
    def fmt(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    lines = [",".join(header)]
    lines += [",".join(fmt(row[col]) for col in header) for row in rows]
    with _writing(path):
        path.write_text("\n".join(lines) + "\n")


def _log(path: Path, lines: list[str]) -> None:
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    with _writing(path), path.open("a") as fh:
        for line in lines:
            fh.write(f"[{stamp}] {line}\n")


def _history_rows(history: ltr_model.TrainHistory) -> tuple[list[str], list[dict]]:
    metric_keys = sorted(history.records[0].val_metrics) if history.records else []
    header = ["epoch", "train_loss", "skipped_queries", "val_skipped_queries"] + [
        f"val_{k}" for k in metric_keys]
    rows = []
    for rec in history.records:
        row = {"epoch": rec.epoch, "train_loss": rec.train_loss,
               "skipped_queries": rec.skipped_queries, "val_skipped_queries": rec.val_skipped_queries}
        row.update({f"val_{k}": rec.val_metrics[k] for k in metric_keys})
        rows.append(row)
    return header, rows


def cmd_train(settings: TrainSettings, strict: bool) -> int:
    train_cfg = settings.train_config(settings.alpha, settings.delta, strict)
    dataset = settings.load()
    out = _out_dir(settings)
    scorer, history = ltr_model.train(dataset, train_cfg)

    hashed = {k: v for k, v in _resolved(settings, "train").items() if k != "output_dir"}
    ltr_model.save_checkpoint(
        scorer,
        out / "checkpoint.json",
        extra={
            "loss": train_cfg.loss.label(),
            "best_epoch": history.best_epoch,
            "config_sha256": hashlib.sha256(
                json.dumps(hashed, sort_keys=True).encode()
            ).hexdigest(),
        },
    )
    header, rows = _history_rows(history)
    _write_csv(out / "history.csv", header, rows)
    data_io.write_stats_json(dataset, out / "dataset_stats.json")
    _log(out / "train.log", [f"epoch {r.epoch}: {r.seconds:.3f}s, {r.skipped_queries} training queries "
                             f"skipped (undefined loss), {r.val_skipped_queries} validation queries "
                             "skipped (no relevant document)" for r in history.records]
         + [f"best epoch {history.best_epoch} by validation {history.select_metric}"])
    print(f"trained {train_cfg.loss.label()}: best epoch {history.best_epoch}, "
          f"validation {history.select_metric}="
          f"{history.records[history.best_epoch - 1].val_metrics[history.select_metric]:.4f}")
    return EXIT_OK


def cmd_evaluate(settings: EvaluateSettings) -> int:
    dataset = settings.load()
    with _as_config_error():
        scorer = ltr_model.load_checkpoint(settings.checkpoint)
    if scorer.input_dim != dataset.feature_dim:
        raise ConfigError(
            f"checkpoint expects {scorer.input_dim} features, dataset has {dataset.feature_dim}"
        )
    split = settings.split
    try:
        result = ltr_model.evaluate(scorer, dataset, split, cutoffs=settings.cutoffs)
    except ltr_model.NonFiniteScoresError as exc:
        raise ConfigError(f"checkpoint {settings.checkpoint}: {exc}") from exc
    out = _out_dir(settings)
    _write_json(out / "metrics.json", result.to_dict())
    # the run file ranks the scores the metrics were computed from; the
    # zero-relevance queries evaluate skipped are scored here
    unscored = [dataset.groups[qid] for qid in dataset.query_ids(split) if qid not in result.scores]
    scores_by_qid = {**result.scores, **ltr_model.score_queries(scorer, unscored)}
    lines = []
    for qid in sorted(scores_by_qid):
        g = dataset.groups[qid]
        scores = scores_by_qid[qid]
        for rank, idx in enumerate(_rank_order(scores), start=1):
            lines.append(f"{qid} Q0 {g.doc_ids[idx]} {rank} {float(scores[idx])!r} {settings.run_tag}")
    (out / "run.txt").write_text("\n".join(lines) + "\n")
    data_io.write_qrels(dataset, out / "qrels.txt", split=split)
    data_io.write_stats_json(dataset, out / "dataset_stats.json")
    summary = " ".join(f"{k}={v:.4f}" for k, v in sorted(result.summary.items()))
    print(f"{split}: {summary} (skipped {result.skipped_queries} zero-relevance queries)")
    return EXIT_OK


def cmd_gradcheck(settings: GradcheckSettings) -> int:
    rng = np.random.default_rng(settings.seed)
    instances = []
    for _ in range(settings.instances):
        n = int(rng.integers(settings.min_docs, settings.max_docs + 1))
        raw = rng.random(n)
        rel = (rng.random(n) < 0.4).astype(float)
        if rel.sum() == 0:
            rel[int(rng.integers(n))] = 1.0
        if rel.sum() == n and n > 1:
            # an all-relevant list has a constant loss; nothing to check
            rel[int(rng.integers(n))] = 0.0
        k = int(rng.integers(1, min(settings.max_cutoff, n) + 1))
        # log-uniform draw, matching the log-spaced hyperparameter grid
        alpha = float(np.exp(rng.uniform(np.log(0.1), np.log(settings.alpha_max))))
        instances.append((n, raw, rel, k, alpha))
    lists = [(rel, raw) for _, raw, rel, _, _ in instances]
    reports = {}
    for kind in settings.loss_kinds:
        for mode in settings.grad_modes:
            specs = [make_loss_spec(kind, k=None if kind == SMOOTH_AP else k,
                                    alpha=alpha, delta=settings.delta, grad_mode=mode)
                     for _, _, _, k, alpha in instances]
            reports[kind, mode] = finite_difference_checks(lists, specs, h=settings.step_h)
    rows = []
    for i, (n, _, _, k, alpha) in enumerate(instances):
        for kind in settings.loss_kinds:
            for mode in settings.grad_modes:
                report = reports[kind, mode][i]
                rows.append({
                    "instance": i, "kind": kind, "mode": mode, "n": n,
                    "k": 0 if kind == SMOOTH_AP else k, "alpha": alpha,
                    "max_abs_err": report.max_abs_err,
                    "max_rel_err": report.max_rel_err,
                    "pass": report.max_rel_err <= settings.tolerance,
                })
    out = _out_dir(settings)
    header = ["instance", "kind", "mode", "n", "k", "alpha", "max_abs_err", "max_rel_err", "pass"]
    _write_csv(out / "gradcheck.csv", header, rows)
    worst = max((r["max_rel_err"] for r in rows), default=0.0)
    failed = [r for r in rows if not r["pass"]]
    print(f"gradcheck: {len(rows)} checks, worst max_rel_err={worst:.3e}, "
          f"{len(failed)} above tolerance {settings.tolerance}")
    return EXIT_GRADCHECK if failed else EXIT_OK


def cmd_verify_bounds(settings: VerifyBoundsSettings) -> int:
    # the sweep draws everything from the settings, so a ValueError it raises
    # (delta, k_values, alphas out of range) is a config error
    with _as_config_error():
        rows, summary = bounds_lab.bound_sweep(
            settings.instances, (settings.min_docs, settings.max_docs), settings.k_values,
            settings.delta, settings.seed, settings.alphas, settings.alpha_factors)
    out = _out_dir(settings)
    header = ["instance", "n", "k", "alpha", "delta", "beta", "gamma",
              "alpha_threshold", "epsilon_alpha", "max_err", "holds", "status"]
    _write_csv(out / "bounds.csv", header, rows)
    _write_json(out / "summary.json", summary)
    print(f"verify-bounds: {summary['checked']} checked, {summary['skipped']} skipped, "
          f"fraction holding {summary['fraction_holding']:.3f}")
    return EXIT_OK


def _sweep_workers(cells: int) -> int:
    """How many processes train a sweep's cells: the usable CPUs divided by
    the BLAS threads each process runs, at most one per cell. The threads
    come from the first of ``BLAS_THREAD_VARS`` holding a positive integer;
    without one, BLAS is taken to use every CPU. Without the ``fork`` start
    method, 1."""
    # imported here and in _train_cells: only a sweep needs multiprocessing
    # and concurrent.futures, which add about 10 ms to every command's start
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    threads = cpus
    for var in BLAS_THREAD_VARS:
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if value > 0:
            threads = value
            break
    return max(1, min(cells, cpus // threads))


def _cell_result(dataset: data_io.Dataset, train_cfg: ltr_model.TrainConfig) -> tuple[float, int]:
    """One sweep cell: its validation value at the best epoch, and that epoch."""
    _, history = ltr_model.train(dataset, train_cfg)
    return history.records[history.best_epoch - 1].val_metrics[history.select_metric], history.best_epoch


# a sweep worker's dataset, set by the pool's initializer: through fork it
# reaches each worker once, copy-on-write, and is never pickled
_worker_dataset: data_io.Dataset | None = None


def _share_dataset(dataset: data_io.Dataset) -> None:
    global _worker_dataset
    _worker_dataset = dataset


def _worker_cell(train_cfg: ltr_model.TrainConfig) -> tuple[float, int]:
    return _cell_result(_worker_dataset, train_cfg)


def _train_cells(dataset: data_io.Dataset, configs: list) -> list[tuple[float, int]]:
    """``_cell_result`` of every config, in order: inline with one worker
    (``_sweep_workers``), else in forked worker processes. The first cell to
    raise raises here, the cells not yet started are cancelled, and no worker
    outlives the call."""
    workers = _sweep_workers(len(configs))
    if workers == 1:
        return [_cell_result(dataset, train_cfg) for train_cfg in configs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a forked worker flushes its copy of these buffers when it exits
    sys.stdout.flush()
    sys.stderr.flush()
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_share_dataset, initargs=(dataset,))
    try:
        return list(pool.map(_worker_cell, configs))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def cmd_sweep(settings: SweepSettings, strict: bool) -> int:
    cells = [(alpha, delta, settings.train_config(alpha, delta, strict))
             for alpha in settings.alpha_grid for delta in settings.delta_grid]
    dataset = settings.load()
    results = _train_cells(dataset, [train_cfg for _, _, train_cfg in cells])
    rows = [{"alpha": alpha, "delta": delta, "val_ndcg": value, "best_epoch": best_epoch}
            for (alpha, delta, _), (value, best_epoch) in zip(cells, results)]
    best = max(rows, key=lambda row: row["val_ndcg"])
    out = _out_dir(settings)
    _write_csv(out / "sweep.csv", ["alpha", "delta", "val_ndcg", "best_epoch"], rows)
    _write_json(out / "best.json", best)
    print(f"sweep: best cell alpha={best['alpha']} delta={best['delta']} "
          f"val_ndcg={best['val_ndcg']:.4f}")
    return EXIT_OK


COMMANDS = {
    "train": (TrainSettings, cmd_train),
    "evaluate": (EvaluateSettings, cmd_evaluate),
    "gradcheck": (GradcheckSettings, cmd_gradcheck),
    "verify-bounds": (VerifyBoundsSettings, cmd_verify_bounds),
    "sweep": (SweepSettings, cmd_sweep),
}
# --strict pins the training recipe, so only the commands that train take it
STRICT_COMMANDS = ("train", "sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="smoothrank",
        description="Differentiable ranking: train/evaluate scorers, check gradients, verify error bounds.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="flat JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="train and sweep only: pin hyperparameters to the reference recipe "
        "(lr in {1e-2,1e-3}, 50 epochs, batch 128, alpha grid {0.1,1,10,100}, delta 0.1)",
    )
    args = parser.parse_args(argv)
    settings_cls, run = COMMANDS[args.command]
    try:
        trains = args.command in STRICT_COMMANDS
        _check(trains or not args.strict, f"--strict applies to train and sweep only, not {args.command}")
        settings = _load_settings(settings_cls, args.config, args.command, args.seed)
        code = run(settings, args.strict) if trains else run(settings)
        _write_json(_out_dir(settings) / "resolved_config.json", _resolved(settings, args.command))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (data_io.ParseError, data_io.SchemaError, data_io.DatasetError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ltr_model.DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
