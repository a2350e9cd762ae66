"""The names the benchmark's tracer wraps exist and come back unwrapped.

``bench/tracer.py`` patches module attributes and class methods through
``owner.__dict__[attr]``, so renaming or moving one of them breaks every
traced benchmark run. This runs its install/uninstall cycle in Tier-1.
"""

from pathlib import Path

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
