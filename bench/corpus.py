"""Benchmark inputs: seeded ideal generators and the problem texts built from them.

Every fan case is handed to the program as problem-file text, the same form
``tfan fan`` reads, so parsing is part of each measured operation.  The
generators take their seed as an argument; which generated ideals belong to
the corpus is fixed by ``reference.json`` (see ``make_reference.py``).
"""

from __future__ import annotations

import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos" / "ideals"
NAMES = ("x", "y", "z", "w")

# Hand-derived maximal-cone counts of the demo ideals in the generic corpus.
HAND_COUNTS = {"fig1": 3, "linear": 3, "worked3": 6}

# Members of the generic stream in the corpus (those on which tfan ends in a fan).
GENERIC_COUNT = 50

# Cases of the seed-0 generic corpus whose fan from the default start is right
# but which raise InredDiverged from some other start weights; the
# second-start check accepts that from these cases only.
KNOWN_DIVERGENT = {"gen031", "gen043"}


def _poly(terms):
    """Sorted (coefficient, exponent) pairs with zero coefficients dropped."""
    return tuple(sorted((c, e) for e, c in terms.items() if c))


def random_prime_ideal(rng: random.Random):
    """Small random x-homogeneous ideal containing p - t for p in {2, 3}.

    The same draws as ``random_prime_ideal`` in ``tests/helpers.py``, so the
    corpus ``random_prime_ideal(Random(2))`` matches the one the tests and
    the ROADMAP figures use.  Returns (nvars, prime, generators).
    """
    n = rng.randint(1, 3)
    p = rng.choice([2, 3])
    gens = [((p, (0,) * (1 + n)), (-1, (1,) + (0,) * n))]
    for _ in range(rng.randint(1, 2)):
        d = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            alpha = [0] * n
            for v in rng.choices(range(n), k=d):
                alpha[v] += 1
            beta = rng.randint(0, 3)
            c = rng.choice([c for c in range(-3, 4) if c])
            key = (beta, *alpha)
            terms[key] = terms.get(key, 0) + c
        g = _poly(terms)
        if not g:
            g = ((1, (0, 1) + (0,) * (n - 1)),)
        gens.append(g)
    return n, p, tuple(gens)


def random_prime_ideal_at(seed: int, k: int):
    """Member k (from 0) of the stream ``random_prime_ideal(Random(seed))``."""
    rng = random.Random(seed)
    for _ in range(k):
        random_prime_ideal(rng)
    return random_prime_ideal(rng)


def scaling_ideal(n: int, seed: int):
    """2 - t plus two random 3-term x-quadrics in n variables.

    t-powers are 0..2 and coefficients come from {-3, -1, 1, 2, 3}.
    """
    rng = random.Random(seed)
    gens = [((2, (0,) * (1 + n)), (-1, (1,) + (0,) * n))]
    for _ in range(2):
        terms = {}
        while len(terms) < 3:
            alpha = [0] * n
            for v in rng.choices(range(n), k=2):
                alpha[v] += 1
            key = (rng.randint(0, 2), *alpha)
            if key not in terms:
                terms[key] = rng.choice([-3, -1, 1, 2, 3])
        gens.append(_poly(terms))
    return n, 2, tuple(gens)


def generic_ideals(seed: int):
    """Endless stream of random x-homogeneous ideals with no declared prime.

    Three x-variables, two generators of x-degree 1 or 2 with 2-3 terms,
    t-powers 0..2, coefficients in [-3, 3].
    """
    rng = random.Random(seed)
    n = 3
    while True:
        gens = []
        for _ in range(2):
            d = rng.randint(1, 2)
            terms = {}
            for _ in range(rng.randint(2, 3)):
                alpha = [0] * n
                for v in rng.choices(range(n), k=d):
                    alpha[v] += 1
                key = (rng.randint(0, 2), *alpha)
                terms[key] = terms.get(key, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
            g = _poly(terms)
            if g:
                gens.append(g)
        if gens:
            yield n, None, tuple(gens)


def _term_text(coeff: int, exp) -> str:
    factors = [name if e == 1 else f"{name}^{e}"
               for name, e in zip(("t",) + NAMES, exp) if e]
    if abs(coeff) != 1 or not factors:
        factors.insert(0, str(abs(coeff)))
    return "*".join(factors)


def problem_text(n: int, prime, gens) -> str:
    """Problem-file text of an ideal in the format ``tfan`` reads."""
    if n > len(NAMES):
        raise ValueError(f"at most {len(NAMES)} x-variables have names")
    lines = [f"ring t; {', '.join(NAMES[:n])}"]
    if prime is not None:
        lines.append(f"prime {prime}")
    lines.append("ideal")
    for g in gens:
        body = ""
        for k, (c, e) in enumerate(g):
            sign = "-" if c < 0 else ("" if k == 0 else "+")
            body += (" " if k else "") + (f"{sign} " if k else sign) + _term_text(c, e)
        lines.append("  " + body)
    lines.append("end")
    return "\n".join(lines) + "\n"


def demo_text(name: str) -> str:
    return (DEMO_DIR / f"{name}.ideal").read_text(encoding="utf-8")


def prime_cases(prime_corpus_seed: int, scaling_seeds, keep):
    """(name, text) of the prime-regime fan cases.

    ``keep`` names the members of the ``random_prime_ideal`` stream to use
    (the trivial one-cone members are left out by the reference).
    """
    cases = [("flip", demo_text("flip"))]
    for k in keep:
        cases.append((f"rand{k}", problem_text(*random_prime_ideal_at(prime_corpus_seed, k))))
    for s in scaling_seeds:
        cases.append((f"scale3-{s}", problem_text(*scaling_ideal(3, s))))
    return cases


def generic_cases(generic_corpus_seed: int, excluded):
    """(name, text) of the generic-regime fan cases.

    The first ``GENERIC_COUNT`` members of the generator stream whose index
    is not in ``excluded``, then the three demo ideals with hand-derived counts.
    """
    cases = []
    for k, ideal in enumerate(generic_ideals(generic_corpus_seed)):
        if len(cases) == GENERIC_COUNT:
            break
        if k not in excluded:
            cases.append((f"gen{k:03d}", problem_text(*ideal)))
    return cases + [(name, demo_text(name)) for name in HAND_COUNTS]
