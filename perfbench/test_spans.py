"""Self-tests of the benchmark's spans (spans.py).

    python3 perfbench/test_spans.py        # or: python3 -m pytest perfbench/test_spans.py

A span nested in a span of the same name must not be counted twice, and the
verdicts that symmetric_alpha_intervals makes must not be reported as
verdicts.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import toleq as tq  # noqa: E402
from toleq import serialize  # noqa: E402

import spans  # noqa: E402


def _traced(fn):
    tracer = spans.Tracer()
    tracer.spans = []
    tracer.install()
    try:
        with tracer.op("test"):
            fn()
    finally:
        tracer.uninstall()
    return tracer


def test_nested_load_counts_the_outermost_call_once():
    dist = {"type": "discrete", "support": [0.0, 1.5], "probs": [0.25, 0.75]}
    obj = {"players": [dist, dist]}
    tracer = _traced(lambda: serialize.tolerance_profile_from_obj(obj))
    loads = [(start, end) for _, _, label, start, end in tracer.spans if label == "serialize.load"]
    assert len(loads) == 3  # the profile and its two distributions
    outer_start, outer_end = min(loads)
    stat = tracer.stats["serialize.load"]
    assert stat.calls == 1
    assert stat.total == outer_end - outer_start
    assert 0.0 < stat.own <= stat.total


def test_alpha_interval_verdicts_are_not_counted_as_verdicts():
    game = tq.as_game(tq.PdPayoffs(cc=3.0, cd=-1.0, dc=4.0, dd=0.0))
    pi = tq.DiscreteToleranceProfile.iid(tq.DiscreteToleranceDist((0.5, 2.0), (0.5, 0.5)), 2)
    profile = tq.MixedProfile((tq.MixedStrategy((0.5, 0.5)), tq.MixedStrategy((0.5, 0.5))))

    def calls():
        tq.symmetric_alpha_intervals(game, pi, 11)
        tq.verify_tolerant_equilibrium(game, profile, pi)

    tracer = _traced(calls)
    verdicts = [label for _, _, label, _, _ in tracer.spans if label.startswith("equilibrium.verify_")]
    assert len(verdicts) == 12  # 11 grid points and the direct call
    counted = tracer.stats.get("equilibrium.verify_pass", spans.Stat()).calls
    counted += tracer.stats.get("equilibrium.verify_fail", spans.Stat()).calls
    assert counted == 1
    assert tracer.stats["equilibrium.alpha_intervals"].calls == 1


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok    {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL  {name}: {exc}")
    sys.exit(1 if failures else 0)
