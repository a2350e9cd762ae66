"""The scorer's training-mode passes against the step-by-step covariance
formulas and the unfused batch-norm formulas, edge cases of the folded hidden
batch norm, and the position-independent score head."""

import tracemalloc

import numpy as np
import pytest

from smoothrank import Scorer

from oracles import scorer_covariance_pass, scorer_training_pass


DIM = 6
# relative to the largest magnitude of the oracle's array; the covariance fold
# rounds otherwise than the unfused formulas, by a few ulps on these inputs
RTOL = 1e-12


def random_scorer(hidden, seed):
    """A scorer with non-unit batch-norm scales, non-zero shifts and bias and
    running statistics away from their initial values."""
    scorer = Scorer(DIM, hidden, seed=seed)
    rng = np.random.default_rng(seed)
    for name in Scorer.RUNNING_NAMES + ("bn1_gamma", "bn2_gamma", "bn2_beta", "b2"):
        arr = getattr(scorer, name)
        arr[...] = rng.uniform(0.5, 1.5, size=arr.shape) if "var" in name or "gamma" in name else (
            rng.normal(scale=0.5, size=arr.shape))
    return scorer


def assert_close(got, want, name):
    assert got.shape == want.shape, name
    assert np.all(np.isfinite(got)), name
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max(), name


def run_pass(scorer, x, dscores):
    """The scorer's training pass beside both oracles' (run first, on the
    scorer's state before the pass): ``(scores, grads, cache, covariance,
    unfused)``, each oracle a ``(scores, running, grads)`` triple."""
    covariance = scorer_covariance_pass(scorer, x, dscores)
    unfused = scorer_training_pass(scorer, x, dscores)
    x_before = x.copy()
    scores, cache = scorer.forward(x, training=True)
    grads = scorer.backward(cache, dscores)
    np.testing.assert_array_equal(x, x_before)
    assert set(grads) == set(Scorer.PARAM_NAMES)
    return scores, grads, cache, covariance, unfused


def assert_matches_oracles(scorer, scores, grads, covariance, unfused, unfused_grads=True):
    """Scores and running statistics equal the covariance oracle's bit for
    bit; they meet both oracles within ``RTOL``, and so does every gradient,
    unless ``unfused_grads`` is false: then the gradients meet the covariance
    oracle alone."""
    np.testing.assert_array_equal(scores, covariance[0])
    for name, value in covariance[1].items():
        np.testing.assert_array_equal(getattr(scorer, name), value, err_msg=name)
    for want_scores, want_running, want_grads in (covariance, unfused):
        assert_close(scores, want_scores, "scores")
        for name, value in want_running.items():
            assert_close(getattr(scorer, name), value, name)
        if want_grads is covariance[2] or unfused_grads:
            for name, value in want_grads.items():
                assert_close(grads[name], value, name)


# (hidden units, rows); one unit in one row cannot mix live and dead units
@pytest.mark.parametrize("hidden, rows", [(1, 40), (33, 40), (1024, 40), (33, 1), (1024, 1)])
def test_fused_pass_matches_the_unfused_formulas(hidden, rows):
    scorer = random_scorer(hidden, seed=hidden + rows)
    rng = np.random.default_rng(hidden)
    x = rng.normal(size=(rows, DIM))
    dscores = rng.normal(size=rows)
    scores, grads, cache, covariance, unfused = run_pass(scorer, x, dscores)
    live = cache["h"] > 0.0
    assert live.any() and not live.all(), "the ReLU mask should mix live and dead units"
    assert_matches_oracles(scorer, scores, grads, covariance, unfused)


@pytest.mark.parametrize("hidden", [1, 33, 1024])
def test_one_row_batch_gives_exactly_zero_input_side_gradients(hidden):
    """One row normalizes to ``xhat1 = 0`` with mean ``abar = 0``, so the
    gradients of ``w1`` and of both batch-norm scales are exactly 0."""
    scorer = random_scorer(hidden, seed=hidden)
    rng = np.random.default_rng(hidden)
    _, cache = scorer.forward(rng.normal(size=(1, DIM)), training=True)
    grads = scorer.backward(cache, rng.normal(size=1))
    for name in ("w1", "bn1_gamma", "bn2_gamma"):
        assert not np.any(grads[name]), name


@pytest.mark.parametrize("factor", [1.0, 2.5], ids=["duplicated", "scaled"])
def test_collinear_features_keep_the_hidden_variance_nonnegative(factor):
    """Column 1 is column 0 times ``factor``, so their normalized columns are
    proportional, up to rounding, and ``C`` is singular. Units whose ``w1``
    column runs along the null direction have a hidden variance of 0, which
    rounding takes either side of 0: the folded one is clamped, as the
    unfused one is never negative. With the running variance set to 0,
    ``bn2_var`` is 0.1 times the batch variance.

    There the two variances differ by rounding, about 1e-16, against ``bn_eps
    = 1e-5``: ``1 / sqrt(var + eps)`` and the gradients of those units differ
    from the unfused ones by about 1e-16 / 1e-5, 4e-12 relative on the scaled
    copy. The scores do not, as the units' centered pre-activations are
    rounding residues."""
    hidden, rows = 64, 40
    scorer = random_scorer(hidden, seed=11)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(rows, DIM))
    x[:, 1] = x[:, 0] * factor
    xhat = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + scorer.bn_eps)
    ratio = xhat[:, 1] @ xhat[:, 0] / (xhat[:, 0] @ xhat[:, 0])
    null = np.zeros(DIM)
    null[:2] = scorer.bn1_gamma[1] * ratio, -scorer.bn1_gamma[0]
    scorer.w1[:, ::2] = np.outer(null, rng.uniform(0.5, 2.0, size=hidden // 2))
    scorer.bn2_var[...] = 0.0
    scores, grads, _, covariance, unfused = run_pass(scorer, x, rng.normal(size=rows))
    assert np.all(scorer.bn2_var >= 0.0)
    assert np.all(scorer.bn2_var[::2] < 1e-15 * scorer.bn2_var[1::2].max())
    assert_matches_oracles(scorer, scores, grads, covariance, unfused, unfused_grads=False)


@pytest.mark.parametrize("value", [0.0, 0.3])
def test_constant_feature_column(value):
    """A feature constant over the batch, as LETOR files have: its normalized
    column is 0 or a rounding residue, and the pass still meets both oracles."""
    scorer = random_scorer(33, seed=5)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, DIM))
    x[:, 2] = value
    scores, grads, _, covariance, unfused = run_pass(scorer, x, rng.normal(size=40))
    assert_matches_oracles(scorer, scores, grads, covariance, unfused)


def test_cache_holds_one_hidden_array_and_is_left_unchanged():
    scorer = random_scorer(33, seed=4)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(25, DIM))
    _, cache = scorer.forward(x, training=True)
    shapes = {k: v.shape for k, v in cache.items()}
    assert shapes.pop("h") == (25, 33)
    assert shapes.pop("xhat1") == (25, DIM)
    assert all(shape in ((DIM,), (33,)) for shape in shapes.values()), shapes
    before = {k: v.copy() for k, v in cache.items()}
    scorer.backward(cache, rng.normal(size=25))
    for name, value in before.items():
        np.testing.assert_array_equal(cache[name], value, err_msg=name)


def test_backward_allocates_about_one_hidden_array():
    """The ReLU mask is the backward's one hidden-size temporary: one float64
    comparison, with no boolean array before it (that one would add an eighth
    of an m x H float64 array to the peak). Everything else it allocates is
    m x (d + 1) or d x H."""
    rows, hidden = 2000, 256
    scorer = Scorer(1, hidden, seed=3)
    rng = np.random.default_rng(3)
    _, cache = scorer.forward(rng.normal(size=(rows, 1)), training=True)
    dscores = rng.normal(size=rows)
    before = {k: v.copy() for k, v in cache.items()}
    tracemalloc.start()
    try:
        scorer.backward(cache, dscores)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * rows * hidden * 8, peak / (rows * hidden * 8)
    for name, value in before.items():
        np.testing.assert_array_equal(cache[name], value, err_msg=name)


@pytest.mark.parametrize("hidden", [7, 33, 128, 300, 1024])
@pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
def test_equal_rows_get_equal_scores_at_any_position(hidden, training):
    """The head is one dot product per row, so a feature row repeated at any
    position of a call (here across eval slices too) gets one score."""
    scorer = random_scorer(hidden, seed=hidden)
    rng = np.random.default_rng(hidden)
    x = rng.normal(size=(301, DIM))
    positions = [0, 1, 2, 3, 7, 63, 64, 65, 127, 128, 200, 255, 256, 300]
    x[positions] = rng.normal(size=DIM)
    scores = scorer.forward(x, training=training)
    if training:
        scores, _ = scores
    assert len(set(scores[positions].tolist())) == 1
