"""Differentiable learning-to-rank toolkit.

Smooth rank indicators, the smooth P@K/AP/NDCG@K metrics and training losses
built on them, their analytic gradients, numerical certification of the
approximation-error bounds, and a small batch-normalized neural scorer with
LETOR-format data handling and a CLI.
"""

from .rank_core import (
    UndefinedMetricError,
    average_precision,
    hard_indicator,
    hard_indicator_matrix,
    ideal_dcg_at_k,
    ndcg_at_k,
    precision_at_k,
    rank_permutation,
)
from .smoothi import (
    SmoothIndicatorMatrix,
    SmoothIParams,
    smooth_indicators,
    stable_softmax,
)
from .smooth_metrics import (
    FULL,
    STOP_GRADIENT,
    LossSpec,
    make_loss_spec,
    shift_scores,
    smooth_ap,
    smooth_metric,
    smooth_ndcg_at_k,
    smooth_precision_at_k,
    training_loss,
)
from .gradients import (
    GradientReport,
    finite_difference_check,
    loss_and_gradient,
    metric_gradient,
)
from .bounds_lab import (
    BoundCertificate,
    BoundReport,
    CertificateError,
    CorollaryReport,
    MetricBoundReport,
    ThresholdNotMetError,
    certificate,
    epsilon_alpha,
    verify_corollary,
    verify_indicator_bound,
    verify_metric_bounds,
)
from .data_io import (
    Dataset,
    DatasetError,
    ParseError,
    QueryGroup,
    SchemaError,
    assemble_folds,
    parse_svmlight,
    synthesize,
    write_qrels,
    write_svmlight,
)
from .ltr_model import (
    Adam,
    DivergenceError,
    Scorer,
    TrainConfig,
    TrainHistory,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "BoundCertificate",
    "BoundReport",
    "CertificateError",
    "CorollaryReport",
    "Dataset",
    "DatasetError",
    "DivergenceError",
    "FULL",
    "GradientReport",
    "LossSpec",
    "MetricBoundReport",
    "ParseError",
    "QueryGroup",
    "SchemaError",
    "Scorer",
    "SmoothIParams",
    "SmoothIndicatorMatrix",
    "STOP_GRADIENT",
    "ThresholdNotMetError",
    "TrainConfig",
    "TrainHistory",
    "UndefinedMetricError",
    "assemble_folds",
    "average_precision",
    "certificate",
    "epsilon_alpha",
    "evaluate",
    "finite_difference_check",
    "hard_indicator",
    "hard_indicator_matrix",
    "ideal_dcg_at_k",
    "load_checkpoint",
    "loss_and_gradient",
    "make_loss_spec",
    "metric_gradient",
    "ndcg_at_k",
    "parse_svmlight",
    "precision_at_k",
    "rank_permutation",
    "save_checkpoint",
    "shift_scores",
    "smooth_ap",
    "smooth_indicators",
    "smooth_metric",
    "smooth_ndcg_at_k",
    "smooth_precision_at_k",
    "stable_softmax",
    "synthesize",
    "train",
    "training_loss",
    "verify_corollary",
    "verify_indicator_bound",
    "verify_metric_bounds",
    "write_qrels",
    "write_svmlight",
]
