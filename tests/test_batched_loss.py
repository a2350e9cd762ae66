"""The batched loss kernel against one single-list call per list, and the
length buckets ``train`` groups its lists into."""

from dataclasses import replace

import numpy as np
import pytest

from smoothrank import LossSpec, SmoothIParams, UndefinedMetricError, loss_and_gradient
from smoothrank.ltr_model import BUCKET_SPREAD, length_buckets
from smoothrank import smooth_metrics
from smoothrank.smooth_metrics import undefined_lists

from oracles import rectangular_loss_and_gradient

AP_CAP = 64
CUTOFF = 10


@pytest.fixture
def ap_cap(monkeypatch):
    """AP ranks at most ``AP_CAP`` documents, so some lists pass the cap."""
    monkeypatch.setattr(smooth_metrics, "AP_LIST_CAP", AP_CAP)


def random_batch(rng, kind):
    """A padded batch of lists of 2-140 documents that holds lists longer
    than the AP cap, lists shorter than the cutoff, zero-relevance lists and
    tied raw scores. Padded entries hold junk the kernel must ignore."""
    lengths = rng.integers(2, 141, size=12)
    lengths[:3] = [2, 7, 140]
    width = lengths.max()
    mask = np.arange(width) < lengths[:, None]
    raw = rng.normal(size=(12, width))
    raw[3, :4] = raw[3, 0]  # a tie at the top
    raw[4] = np.round(raw[4])  # many ties
    if kind == "ndcg@k":
        rel = rng.integers(0, 3, size=(12, width)).astype(float)
    else:
        rel = (rng.random((12, width)) < 0.3).astype(float)
    rel[:, 0] = 1.0
    rel[5] = 0.0
    raw[~mask] = np.nan
    rel[~mask] = 7.0
    return rel, raw, mask, lengths


@pytest.mark.parametrize("mode", ["stop_gradient", "full"])
@pytest.mark.parametrize("kind", ["p@k", "ap", "ndcg@k"])
def test_batch_matches_one_call_per_list(kind, mode, ap_cap):
    rng = np.random.default_rng(11)
    for _ in range(3):
        rel, raw, mask, lengths = random_batch(rng, kind)
        spec = LossSpec(
            kind=kind,
            params=SmoothIParams(alpha=float(rng.uniform(0.5, 10.0)), delta=0.1),
            k=None if kind == "ap" else CUTOFF,
            grad_mode=mode,
        )
        undefined = np.array([undefined_lists(r[:n], kind) for r, n in zip(rel, lengths)])
        assert undefined[5] == (kind != "p@k")
        if undefined.any():
            with pytest.raises(UndefinedMetricError):
                loss_and_gradient(rel, raw, spec, mask)
        keep = ~undefined
        rel, raw, mask, lengths = rel[keep], raw[keep], mask[keep], lengths[keep]

        values, grads = loss_and_gradient(rel, raw, spec, mask)
        assert values.shape == (len(lengths),) and grads.shape == raw.shape
        for b, n in enumerate(lengths):
            single = spec if spec.k is None else replace(spec, k=min(spec.k, n))
            value, grad = loss_and_gradient(rel[b, :n], raw[b, :n], single)
            assert isinstance(value, float)
            assert values[b] == pytest.approx(value, rel=0, abs=1e-12)
            np.testing.assert_allclose(grads[b, :n], grad, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(grads[b, n:], 0.0)


@pytest.mark.parametrize("mode", ["stop_gradient", "full"])
@pytest.mark.parametrize("kind", ["p@k", "ap", "ndcg@k"])
def test_staircase_keeps_every_bit_of_the_rectangular_path(kind, mode, ap_cap):
    """Shuffled lists of mixed lengths: the staircase batch gives each list
    the value and gradient bits of the rectangular path at the same padded
    width, in the caller's order."""
    rng = np.random.default_rng(13)
    for _ in range(3):
        rel, raw, mask, lengths = random_batch(rng, kind)
        keep = ~np.array([undefined_lists(r[:n], kind) for r, n in zip(rel, lengths)])
        shuffle = rng.permutation(np.flatnonzero(keep))
        rel, raw, mask = rel[shuffle], raw[shuffle], mask[shuffle]
        spec = LossSpec(
            kind=kind,
            params=SmoothIParams(alpha=float(rng.uniform(0.5, 10.0)), delta=0.1),
            k=None if kind == "ap" else CUTOFF,
            grad_mode=mode,
        )
        values, grads = loss_and_gradient(rel, raw, spec, mask)
        want_values, want_grads = rectangular_loss_and_gradient(rel, raw, spec, mask)
        np.testing.assert_array_equal(values, want_values)
        np.testing.assert_array_equal(grads, want_grads)


def test_undefined_lists_match_the_single_list_error():
    for kind in ("ap", "ndcg@k"):
        spec = LossSpec(kind=kind, params=SmoothIParams(alpha=2.0))
        for rel in ([0.0, 0.0, 0.0], [0.0, 1.0, 0.0]):
            undefined = bool(undefined_lists(rel, kind))
            try:
                loss_and_gradient(rel, [0.3, 0.1, 0.2], spec)
            except UndefinedMetricError:
                assert undefined
            else:
                assert not undefined


def test_length_buckets_partition_the_lists_within_the_spread():
    rng = np.random.default_rng(12)
    for size in (1, 2, 17, 128):
        lengths = rng.integers(1, 300, size=size)
        buckets = length_buckets(lengths)
        np.testing.assert_array_equal(np.sort(np.concatenate(buckets)), np.arange(size))
        for bucket in buckets:
            assert lengths[bucket].max() <= BUCKET_SPREAD * lengths[bucket].min()
        # greedy: each bucket ends where the next list breaks the spread
        for first, second in zip(buckets, buckets[1:]):
            assert lengths[second].min() > BUCKET_SPREAD * lengths[first].min()
