"""The scorer's fused training-mode passes against the unfused batch-norm
formulas, and the position-independent score head."""

import numpy as np
import pytest

from smoothrank import Scorer

from oracles import scorer_training_pass


DIM = 6


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


# (hidden units, rows); one unit in one row cannot mix live and dead units
@pytest.mark.parametrize("hidden, rows", [(1, 40), (33, 40), (1024, 40), (33, 1), (1024, 1)])
def test_fused_pass_matches_the_unfused_formulas(hidden, rows):
    scorer = random_scorer(hidden, seed=hidden + rows)
    rng = np.random.default_rng(hidden)
    x = rng.normal(size=(rows, DIM))
    dscores = rng.normal(size=rows)
    want_scores, want_running, want_grads = scorer_training_pass(scorer, x, dscores)
    x_before = x.copy()

    scores, cache = scorer.forward(x, training=True)
    grads = scorer.backward(cache, dscores)

    np.testing.assert_array_equal(x, x_before)
    live = cache["h"] > 0.0
    assert live.any() and not live.all(), "the ReLU mask should mix live and dead units"
    np.testing.assert_array_equal(scores, want_scores)
    for name, value in want_running.items():
        np.testing.assert_array_equal(getattr(scorer, name), value, err_msg=name)
    assert set(grads) == set(Scorer.PARAM_NAMES)
    # one row normalizes to exactly 0 at both batch norms: every gradient
    # before the hidden one is then exactly 0 on both sides
    for name, want in want_grads.items():
        got = grads[name]
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def test_cache_holds_two_hidden_arrays_and_is_left_unchanged():
    scorer = random_scorer(33, seed=4)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(25, DIM))
    _, cache = scorer.forward(x, training=True)
    assert {k: v.shape for k, v in cache.items()} == {
        "xhat1": (25, DIM), "xhat2": (25, 33), "inv2": (33,), "h": (25, 33)}
    before = {k: v.copy() for k, v in cache.items()}
    scorer.backward(cache, rng.normal(size=25))
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
