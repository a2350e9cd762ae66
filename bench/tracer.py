"""Spans and counters around the public entry points of each smoothrank module.

The tracer replaces module attributes and class methods with timing
wrappers, so the program's own files stay untouched. Each call becomes one
span (name, parent span, start, end, attributes) kept in memory; ``write``
saves them at the end of a run, and ``layer_metrics`` turns them into the
per-layer metrics. Wrappers patch the name where the caller looks it up:
``train`` finds ``loss_and_gradient`` in ``ltr_model``'s namespace,
``loss_and_gradient`` finds ``shift_scores`` in ``gradients``' namespace,
and so on.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from smoothrank import bounds_lab, cli, data_io, gradients, ltr_model, smooth_metrics
from smoothrank.rank_core import UndefinedMetricError


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _forward_attrs(span, args, kwargs, result):
    training = kwargs.get("training", args[2] if len(args) > 2 else False)
    span.attrs["training"] = bool(training)
    span.attrs["docs"] = int(result[0].shape[0] if isinstance(result, tuple) else result.shape[0])
    if isinstance(result, tuple):
        span.attrs["cache_bytes"] = sum(
            v.nbytes for v in result[1].values() if hasattr(v, "nbytes")
        )


def _indicator_attrs(span, args, kwargs, result):
    span.attrs["row_elems"] = int(result.rows.size)


def _parse_attrs(span, args, kwargs, result):
    span.attrs["docs"] = sum(len(g) for g in result.groups.values())


def _cli_attrs(span, args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    span.attrs["command"] = argv[0] if argv else ""


# (owner, attribute, span name, attribute hook): every entry point the
# training loop, evaluation, the CLI and the certifier reach.
def _targets():
    return [
        (data_io, "synthesize", "data_io.synthesize", None),
        (data_io, "parse_svmlight", "data_io.parse_svmlight", _parse_attrs),
        (data_io, "assemble_folds", "data_io.assemble_folds", None),
        (ltr_model, "train", "ltr_model.train", None),
        (ltr_model, "evaluate", "ltr_model.evaluate", None),
        (ltr_model.Scorer, "forward", "ltr_model.forward", _forward_attrs),
        (ltr_model.Scorer, "backward", "ltr_model.backward", None),
        (ltr_model.Adam, "step", "ltr_model.adam_step", None),
        (ltr_model, "loss_and_gradient", "gradients.loss_and_gradient", None),
        (gradients, "finite_difference_check", "gradients.finite_difference_check", None),
        (cli, "finite_difference_check", "gradients.finite_difference_check", None),
        (gradients, "shift_scores", "smooth_metrics.shift_scores", None),
        (smooth_metrics, "shift_scores", "smooth_metrics.shift_scores", None),
        (gradients, "smooth_indicators", "smoothi.smooth_indicators", _indicator_attrs),
        (smooth_metrics, "smooth_indicators", "smoothi.smooth_indicators", _indicator_attrs),
        (bounds_lab, "smooth_indicators", "smoothi.smooth_indicators", _indicator_attrs),
        (bounds_lab, "certificate", "bounds_lab.certificate", None),
        (bounds_lab, "verify_indicator_bound", "bounds_lab.verify_indicator_bound", None),
        (bounds_lab, "verify_metric_bounds", "bounds_lab.verify_metric_bounds", None),
        (cli, "main", "cli.main", _cli_attrs),
    ]


class Tracer:
    """Wraps the entry points while installed; spans stay in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, hook in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, 0.0)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except UndefinedMetricError:
                span.attrs["undefined"] = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end, **s.attrs}) + "\n")

    def _inside(self, index: int, name: str) -> bool:
        """Whether span ``index`` has an ancestor called ``name``."""
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; counts and work totals are per traced round."""
        spans = self.spans
        by_name = defaultdict(list)
        for i, s in enumerate(spans):
            by_name[s.name].append(i)
        child_seconds = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_seconds[s.parent] += s.seconds

        def total(idx):
            return sum(spans[i].seconds for i in idx)

        def per(value, count):
            return value / count if count else 0.0

        def in_train(name):
            return [i for i in by_name[name] if self._inside(i, "ltr_model.train")]

        train_fwd = [i for i in by_name["ltr_model.forward"] if spans[i].attrs["training"]]
        # one eval-mode forward per query evaluate() scores
        eval_fwd = [i for i in by_name["ltr_model.forward"]
                    if not spans[i].attrs["training"] and self._inside(i, "ltr_model.evaluate")]
        batches = len(train_fwd)
        parse = by_name["data_io.parse_svmlight"]
        parse_docs = sum(spans[i].attrs["docs"] for i in parse)
        evaluate = by_name["ltr_model.evaluate"]
        loss = in_train("gradients.loss_and_gradient")
        shift = in_train("smooth_metrics.shift_scores")
        indicators = by_name["smoothi.smooth_indicators"]
        fd = by_name["gradients.finite_difference_check"]
        cert = by_name["bounds_lab.certificate"]
        vind = by_name["bounds_lab.verify_indicator_bound"]
        vmet = by_name["bounds_lab.verify_metric_bounds"]
        trains = by_name["ltr_model.train"]
        sweeps = [i for i in by_name["cli.main"] if spans[i].attrs["command"] == "sweep"]

        # train() entry to its first forward call
        first_forward = {}
        for i in train_fwd:
            first_forward.setdefault(spans[i].parent, i)
        setup_ms = [1e3 * (spans[first_forward[t]].start - spans[t].start)
                    for t in trains if t in first_forward]
        sweep_train = sum(spans[i].seconds for i in trains if self._inside(i, "cli.main"))
        sweep_wall = total(sweeps)

        r = max(rounds, 1)
        ms = 1e3
        return {
            "data_io.synthesize_s": (per(total(by_name["data_io.synthesize"]),
                                         len(by_name["data_io.synthesize"])), "s"),
            "data_io.synthesize_calls": (len(by_name["data_io.synthesize"]) / r, "count"),
            "data_io.parse_s": (per(total(parse), len(by_name["data_io.assemble_folds"])), "s"),
            "data_io.parse_docs_per_s": (per(parse_docs, total(parse)), "docs/s"),
            "data_io.parse_calls": (len(parse) / r, "count"),
            "ltr_model.forward_ms_per_batch": (ms * per(total(train_fwd), batches), "ms"),
            "ltr_model.backward_ms_per_batch": (
                ms * per(total(by_name["ltr_model.backward"]), len(by_name["ltr_model.backward"])), "ms"),
            "ltr_model.backward_calls": (len(by_name["ltr_model.backward"]) / r, "count"),
            "ltr_model.adam_ms_per_batch": (
                ms * per(total(by_name["ltr_model.adam_step"]), len(by_name["ltr_model.adam_step"])), "ms"),
            "ltr_model.adam_calls": (len(by_name["ltr_model.adam_step"]) / r, "count"),
            "ltr_model.batch_cache_mb": (
                per(sum(spans[i].attrs.get("cache_bytes", 0) for i in train_fwd), batches) / 2**20, "MB"),
            "ltr_model.train_setup_ms": (per(sum(setup_ms), len(setup_ms)), "ms"),
            "ltr_model.train_calls": (len(trains) / r, "count"),
            "ltr_model.evaluate_ms_per_query": (ms * per(total(evaluate), len(eval_fwd)), "ms"),
            "ltr_model.evaluate_calls": (len(evaluate) / r, "count"),
            "ltr_model.eval_forward_ms_per_query": (ms * per(total(eval_fwd), len(eval_fwd)), "ms"),
            "ltr_model.eval_forward_calls": (len(eval_fwd) / r, "count"),
            "ltr_model.batches": (batches / r, "count"),
            "ltr_model.train_docs": (sum(spans[i].attrs["docs"] for i in train_fwd) / r, "count"),
            "gradients.loss_grad_ms_per_batch": (ms * per(total(loss), batches), "ms"),
            "gradients.loss_grad_calls": (len(loss) / r, "count"),
            "gradients.skipped_queries": (
                sum(1 for i in loss if spans[i].attrs.get("undefined")) / r, "count"),
            "gradients.fd_check_ms": (ms * per(total(fd), len(fd)), "ms"),
            "gradients.fd_check_calls": (len(fd) / r, "count"),
            "smooth_metrics.shift_ms_per_batch": (ms * per(total(shift), batches), "ms"),
            "smooth_metrics.shift_calls": (len(shift) / r, "count"),
            "smoothi.indicator_calls": (len(indicators) / r, "count"),
            "smoothi.indicator_row_elems": (
                sum(spans[i].attrs.get("row_elems", 0) for i in indicators) / r, "count"),
            "smoothi.indicator_ms": (ms * total(indicators) / r, "ms"),
            "bounds_lab.certificate_ms": (ms * per(total(cert), len(cert)), "ms"),
            "bounds_lab.certificate_calls": (len(cert) / r, "count"),
            "bounds_lab.verify_indicator_ms": (ms * per(total(vind), len(vind)), "ms"),
            "bounds_lab.verify_indicator_calls": (len(vind) / r, "count"),
            "bounds_lab.verify_metric_ms": (ms * per(total(vmet), len(vmet)), "ms"),
            "bounds_lab.verify_metric_calls": (len(vmet) / r, "count"),
            "bounds_lab.instances_checked": ((len(vind) + len(vmet)) / r, "count"),
            "rank_core.exact_metrics_ms_per_query": (
                ms * per(sum(spans[i].seconds - child_seconds[i] for i in evaluate), len(eval_fwd)), "ms"),
            "cli.sweep_overhead_ms": (ms * per(sweep_wall - sweep_train, len(sweeps)), "ms"),
            "cli.sweep_calls": (len(sweeps) / r, "count"),
        }
