"""The benchmark's tracer wraps tfan names from outside the program.

A traced run raises ``TraceError`` when a wrapped name is gone, but only a
``--trace 1`` run gets that far; this test makes a rename fail here too.
"""

import os

import tfan
import tfan.cli  # noqa: F401  (the tracer wraps names in tfan.cli as well)

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


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
