"""Output identity of the benchmark fans.

The 58 fan cases of the benchmark corpus (the prime cases, then the generic
cases, with the arguments ``bench/reference.json`` records) are rendered
with ``render_fan``; one sha256 over each case's name and then its text must
equal the recorded value.  A change that alters any printed fan byte fails
here, not only in a benchmark run.  ``bench/`` is imported read-only.
"""

import hashlib
import json
import os

from tfan.cli import parse_problem, render_fan
from tfan.fan import groebner_fan

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")

FANS_SHA256 = "df3e56e0837cee96f9889f4949cecbf151102eed0329bb2bd78fc7ea60994fa6"


def test_benchmark_fans_render_unchanged(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import corpus

    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    params = ref["params"]
    cases = corpus.prime_cases(params["prime_corpus_seed"], params["scaling_seeds"],
                               ref["prime_keep"])
    cases += corpus.generic_cases(params["generic_corpus_seed"],
                                  {int(k) for k in ref["generic_excluded"]})
    assert len(cases) == 58
    digest = hashlib.sha256()
    for name, text in cases:
        problem = parse_problem(text)
        fan = groebner_fan(problem.ideal(), tiebreak=problem.tiebreak)
        digest.update(name.encode())
        digest.update(render_fan(fan, problem.names).encode())
    assert digest.hexdigest() == FANS_SHA256
