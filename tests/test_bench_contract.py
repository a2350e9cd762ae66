"""The names the benchmark's tracer wraps exist and come back unwrapped,
and the recursion is reached through them.

``bench/tracer.py`` patches module attributes and class methods through
``owner.__dict__[attr]``, so renaming or moving one of them breaks every
traced benchmark run. This runs its install/uninstall cycle in Tier-1.
"""

from pathlib import Path

import numpy as np

from smoothrank import (
    certificate,
    finite_difference_checks,
    loss_and_gradient,
    make_loss_spec,
    verify_indicator_bounds,
    verify_metric_bounds,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_wraps_every_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    targets = [(owner, attr) for owner, attr, _, _ in tracer._targets()]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    traced = tracer.Tracer()
    traced.install()
    try:
        for (owner, attr), original in zip(targets, originals):
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} not wrapped"
    finally:
        traced.uninstall()
    for (owner, attr), original in zip(targets, originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_every_recursion_passes_through_a_traced_name(monkeypatch):
    """Each entry point that runs the recursion finds ``smooth_indicators``
    under a name the tracer wraps, so a traced round counts its calls
    (``smoothi.indicator_calls`` and ``smoothi.indicator_ms``). A full-mode
    gradient check records its forward pass and its perturbed copies."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    scores = np.array([4.0, 1.0, 3.0, 2.0])
    rel = np.array([1.0, 0.0, 0.0, 1.0])
    cert = certificate(scores, 2, 0.1)
    alpha_at_n = 2.0 * certificate(scores, scores.size, 0.1).alpha_threshold
    spec = make_loss_spec("ndcg@k", k=2, alpha=1.0)
    full = make_loss_spec("ndcg@k", k=2, alpha=1.0, grad_mode="full")
    calls = {
        "loss_and_gradient": (lambda: loss_and_gradient(
            np.stack([rel, rel]), np.stack([scores, scores[::-1]]), spec, np.ones((2, 4), dtype=bool)), 1),
        "finite_difference_checks": (lambda: finite_difference_checks([(rel, scores)], [full]), 2),
        "verify_indicator_bounds": (lambda: verify_indicator_bounds(
            [scores], [2.0 * cert.alpha_threshold], [cert]), 1),
        "verify_metric_bounds": (lambda: verify_metric_bounds(rel, scores, 2, alpha_at_n, 0.1), 1),
    }
    traced = tracer.Tracer()
    traced.install()
    try:
        for name, (call, least) in calls.items():
            before = len(traced.spans)
            call()
            spans = [s for s in traced.spans[before:] if s.name == "smoothi.smooth_indicators"]
            assert len(spans) >= least, f"{name} recorded {len(spans)} smoothi.smooth_indicators spans"
    finally:
        traced.uninstall()
