"""Output identity of the benchmark fans.

The 58 fan cases of the benchmark corpus (the prime cases, then the generic
cases, with the arguments ``bench/reference.json`` records) are rendered
with ``render_fan``.  Each group gets one sha256 over each case's name and
then its text, which must equal the recorded value.  A change that alters
any printed fan byte fails here, not only in a benchmark run.  ``bench/`` is
imported read-only.

There are two pins because the two regimes move apart.  The 53 generic
fans (no declared prime) never reach the completion up to units, and their
pin has not moved with it.  The 5 prime fans complete from generators up to
the units of Z_(p) and re-reduce strata under the cross-degree guard, so
their ``SB`` and ``INEQ`` bytes moved there; their fingerprints equal
``reference.json``'s, which the benchmark checks on every run.
"""

import hashlib
import json
import os

from tfan.cli import parse_problem, render_fan
from tfan.fan import groebner_fan

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")

PRIME_FANS_SHA256 = "b75f047cec4df2d0fe90ad2710b4765aa3b873a2b6ec0e93558cbf65dcbe46e9"
GENERIC_FANS_SHA256 = "cf300bb2d36d320b5bc01f6486eb837e0fd75b2b6851a4295a7d5051a449f51e"


def _digest(cases):
    digest = hashlib.sha256()
    for name, text in cases:
        problem = parse_problem(text)
        fan = groebner_fan(problem.ideal(), tiebreak=problem.tiebreak)
        digest.update(name.encode())
        digest.update(render_fan(fan, problem.names).encode())
    return digest.hexdigest()


def test_benchmark_fans_render_unchanged(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import corpus

    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    params = ref["params"]
    prime = corpus.prime_cases(params["prime_corpus_seed"], params["scaling_seeds"],
                               ref["prime_keep"])
    generic = corpus.generic_cases(params["generic_corpus_seed"],
                                   {int(k) for k in ref["generic_excluded"]})
    assert (len(prime), len(generic)) == (5, 53)
    assert {"prime": _digest(prime), "generic": _digest(generic)} == \
        {"prime": PRIME_FANS_SHA256, "generic": GENERIC_FANS_SHA256}
