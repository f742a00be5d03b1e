"""Regenerate reference.json, the fingerprints the benchmark checks against.

Usage (from the repository root, after a change that is meant to alter fans
or with other corpus seeds)::

    python3 bench/make_reference.py [--prime-corpus-seed 2] [--scaling-seeds 4,5]
                                    [--generic-corpus-seed 0]

It computes every corpus fan once and stores, per case, the sorted cone keys
(rays and lineality) and the ADJ pairs.  It also fixes corpus membership:
the members of the ``random_prime_ideal`` stream (first five) with more than
one cone, and the generic-stream indices left out because the program fails
on them (``InredDiverged`` and other tfan errors) or exceeds the time limit.
"""

from __future__ import annotations

import json
import signal
import sys

import checks
import corpus
import run

TIME_LIMIT_S = 30


class TimeLimit(Exception):
    pass


def _alarm(signum, frame):
    raise TimeLimit()


def fingerprint(mods, text):
    problem = mods.cli.parse_problem(text)
    return checks.fingerprint(mods.fan.groebner_fan(problem.ideal(), tiebreak=problem.tiebreak))


def limited(mods, text):
    """Fingerprint, or the reason the program could not produce one."""
    signal.alarm(TIME_LIMIT_S)
    try:
        return fingerprint(mods, text), None
    except TimeLimit:
        return None, f"no fan within {TIME_LIMIT_S} s"
    except mods.errors.TfanError as exc:
        return None, type(exc).__name__
    finally:
        signal.alarm(0)


def required(mods, name, text):
    """Fingerprint of a case that must succeed."""
    fp, why = limited(mods, text)
    if why is not None:
        raise SystemExit(f"{name}: {why}")
    return fp


def _dump(ref) -> str:
    """JSON with one line per fan and per left-out ideal, for readable diffs."""
    lines = ["{"]
    for key in ("params", "prime_keep"):
        lines.append(f" {json.dumps(key)}: {json.dumps(ref[key], sort_keys=True)},")
    for key in ("generic_excluded", "fans"):
        items = sorted(ref[key].items(),
                       key=lambda kv: int(kv[0]) if key == "generic_excluded" else kv[0])
        lines.append(f" {json.dumps(key)}: {{")
        lines += [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                  + ("," if i < len(items) - 1 else "") for i, (k, v) in enumerate(items)]
        lines.append(" }" + ("," if key != "fans" else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = run.parse_args(["--workload", "prime-fans", "--seed", "0", "--seconds", "0"]
                          + (sys.argv[1:] if argv is None else argv))
    signal.signal(signal.SIGALRM, _alarm)
    mods = run.Modules()
    fans = {}
    keep = []
    for k in range(5):
        text = corpus.problem_text(*corpus.random_prime_ideal_at(args.prime_corpus_seed, k))
        if len(required(mods, f"rand{k}", text)["cones"]) > 1:
            keep.append(k)
    for name, text in corpus.prime_cases(args.prime_corpus_seed, args.scaling_seeds, keep):
        fans[name] = required(mods, name, text)
    excluded = {}
    ok = 0
    for k, ideal in enumerate(corpus.generic_ideals(args.generic_corpus_seed)):
        if ok == corpus.GENERIC_COUNT:
            break
        text = corpus.problem_text(*ideal)
        fp, why = limited(mods, text)
        if why is None:
            fans[f"gen{k:03d}"] = fp
            ok += 1
        else:
            excluded[str(k)] = {"reason": why, "ideal": text}
            print(f"gen{k:03d} left out: {why}", file=sys.stderr)
    for name in corpus.HAND_COUNTS:
        fans[name] = required(mods, name, corpus.demo_text(name))
    ref = {"params": run.corpus_params(args), "prime_keep": keep,
           "generic_excluded": excluded, "fans": fans}
    run.REFERENCE.write_text(_dump(ref), encoding="utf-8")
    print(f"wrote {run.REFERENCE}: {len(fans)} fans, {len(excluded)} generic ideals left out",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
