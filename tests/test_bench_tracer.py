"""The benchmark's tracer wraps tfan names from outside the program.

A traced run raises ``TraceError`` when a wrapped name is gone, and its pair
counters need what ``_head_reduce`` returns to have ``.is_zero``, but only a
``--trace 1`` run gets that far; these tests make either fault fail here too.
"""

import os

import tfan
import tfan.cli  # noqa: F401  (the tracer wraps names in tfan.cli as well)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def test_tracer_finds_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    from tracer import Tracer

    original = tfan.poly.leading_term
    tracer = Tracer()
    try:
        tracer.install()
        assert tfan.poly.leading_term is not original
    finally:
        tracer.uninstall()
    assert tfan.poly.leading_term is original


def test_tracer_counts_completion_pairs(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    from tracer import Tracer

    with open(os.path.join(ROOT, "demos", "ideals", "flip.ideal"), encoding="utf-8") as fh:
        problem = tfan.cli.parse_problem(fh.read())
    tracer = Tracer()
    try:
        tracer.install()
        tfan.fan.groebner_cone_at(problem.ordering(None), problem.gens, problem.prime)
    finally:
        tracer.uninstall()
    stats = tracer.snapshot(1)
    assert stats["division.pairs_reduced"] > 0
    assert 0 <= stats["division.pairs_zero"] <= stats["division.pairs_reduced"]
