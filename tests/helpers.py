"""Shared test helpers: polynomial building, seeded random ideals, the
pair builders and pair certificate that check completions, the polynomial
product by a Z[t] coefficient and the coefficient lookup that the
initial-reduction oracles use, the element normalisation of a completion
and the sort-based ``minimize`` that checks the minimality rule, the gcd
loop that checks the content strip, the generator and ``Fraction`` routes
that check the vector arithmetic and ``format_frac``, the ``t_skeleton``
route of ``cone_from_basis`` and the thrice-deduplicating ``facets`` that
check the cone layer, the determinate division by polynomial arithmetic
that checks ``hddwr``, the demo problems, and one query weight per maximal
cone of the prime-regime benchmark fans."""

import json
import os
import random
import signal
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from math import gcd

from tfan import (
    DivisionResult,
    Fan,
    Ideal,
    InvalidInput,
    Polynomial,
    Term,
    groebner_fan,
    intersect,
    leading_term,
    make_cone,
    mora_weak_nf,
)
from tfan.cli import parse_poly, parse_problem
from tfan.cone import ConeData, Facet, HCone, _dedupe_rows, dd_rays
from tfan.division import sorted_basis
from tfan.exact import dot, extended_gcd, primitive, vneg
from tfan.poly import (
    exp_div,
    exp_x_degree,
    strip_unit_t_content,
    t_coefficients,
    t_skeleton,
    term_divides,
    tpoly_divexact,
    tpoly_gcd,
    tpoly_min_beta,
    tpoly_shift,
)

XY = ["x", "y"]
XYZ = ["x", "y", "z"]

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(REPO, "bench")


def P(text, names):
    return parse_poly(text, names)


def polys(names, *texts):
    return tuple(parse_poly(t, names) for t in texts)


def mul_tpoly(f, tp):
    """f * sum_i c_i t^{beta_i} for tp = ((beta_i, c_i), ...), by polynomial
    arithmetic."""
    return Polynomial.from_terms((c1 * c, (e1[0] + beta,) + e1[1:])
                                 for beta, c in tp for c1, e1 in f.terms)


def t_coefficient(f, alpha):
    """The Z[t] coefficient of x^alpha in f, as ((beta, c), ...) ascending."""
    return t_coefficients(f).get(tuple(alpha), ())


def old_strip_unit_t_content_view(coeffs):
    """The content strip of a Z[t]-coefficient view by its gcd loop alone:
    the running gcd of the coefficients, stopped once it is a single term,
    then division by its t-free part when that part is not constant and has
    constant term 1."""
    content = ()
    for tp in coeffs.values():
        content = tpoly_gcd(content, tp)
        if len(content) == 1:
            return coeffs
    unit = tpoly_shift(content, -tpoly_min_beta(content))
    if unit[0][1] != 1 or len(unit) == 1:
        return coeffs
    return {a: tpoly_divexact(tp, unit) for a, tp in coeffs.items()}


def normalize_element(ord_, f):
    """f with its Z[[t]]-unit content stripped and its leading coefficient
    made positive, as a completion leaves its elements."""
    f = strip_unit_t_content(f)
    return -f if leading_term(ord_, f).coeff < 0 else f


def old_minimize(basis):
    """``minimize`` by a sorted scan: potential divisors first (x-degree,
    t-power and |coefficient| of the leading term, then its key, then the
    terms), each element kept unless a kept one's leading term
    term-divides its own.  The oracle of the minimality rule."""
    ord_ = basis.ordering

    def order(g):
        lt = leading_term(ord_, g)
        return (exp_x_degree(lt.exp), lt.exp[0], abs(lt.coeff), ord_.key(lt.exp), g.terms)

    kept = []
    for g in sorted(basis.elements, key=order):
        lt = leading_term(ord_, g)
        if not any(term_divides(leading_term(ord_, h), lt) for h in kept):
            kept.append(g)
    return sorted_basis(ord_, kept)


def old_dot(u, v):
    """The scalar product by a generator over zipped entries, with the
    length check."""
    if len(u) != len(v):
        raise InvalidInput(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def old_vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def old_vscale(c, u):
    return tuple(c * a for a in u)


def old_format_frac(x):
    """A rational as the CLI prints it, through ``Fraction`` for every x."""
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def demo_problem(name):
    """The parsed problem of ``demos/ideals/<name>.ideal``."""
    with open(os.path.join(REPO, "demos", "ideals", name + ".ideal"), encoding="utf-8") as fh:
        return parse_problem(fh.read())


def bench_modules(monkeypatch):
    """The benchmark's ``corpus`` and ``checks`` modules; ``bench`` is only
    read."""
    monkeypatch.syspath_prepend(BENCH)
    import checks
    import corpus

    return corpus, checks


def old_hddwr(ord_, f, divisors):
    """Determinate division by polynomial arithmetic: each step searches the
    running remainder for its leading term and subtracts the first divisor
    whose leading term term-divides it, shifted, as a Polynomial; a term
    no divisor's leading term divides moves to the remainder."""
    lts = [leading_term(ord_, g) for g in divisors]
    quotient_parts = [[] for _ in divisors]
    rem_parts = []
    h = f
    while h:
        t = leading_term(ord_, h)
        for i, lt in enumerate(lts):
            if term_divides(lt, t):
                m = Term(t.coeff // lt.coeff, exp_div(t.exp, lt.exp))
                quotient_parts[i].append(m)
                h = h - divisors[i].term_mul(m.coeff, m.exp)
                break
        else:
            rem_parts.append(t)
            h = Polynomial(tuple(u for u in h.terms if u.exp != t.exp))
    return DivisionResult(tuple(Polynomial.from_terms(q) if q else Polynomial.zero()
                                for q in quotient_parts),
                          Polynomial.from_terms(rem_parts))


def old_cone_from_basis(basis, initial_forms):
    """``cone_from_basis`` by the ``t_skeleton`` route: each element's
    skeleton built as a Polynomial and its exponents read off it."""
    d = 1 + basis.elements[0].nvars
    ineqs, eqs = [], []
    for g in basis.elements:
        lead = leading_term(basis.ordering, g).exp
        for term in t_skeleton(g).terms:
            if term.exp != lead:
                ineqs.append(old_vsub(lead, term.exp))
    for h in initial_forms:
        lam = [t.exp for t in t_skeleton(h).terms]
        eqs += [old_vsub(lam[0], other) for other in lam[1:]]
    return make_cone(d, ineqs, eqs)


def old_facets(hc):
    """``facets`` with three deduplications: of all inequality rows with the
    halfspace row, of the inequalities and of the equations."""
    data = dd_rays(hc)
    rows = _dedupe_rows(hc.all_ineq_rows())
    ineqs, eqs = _dedupe_rows(hc.ineqs), set(_dedupe_rows(hc.eqs))
    masks = [sum(1 << i for i, r in enumerate(data.rays) if dot(a, r) == 0) for a in rows]
    proper = set(masks) - {(1 << len(data.rays)) - 1}
    maximal = {m for m in proper if not any(o != m and o & m == m for o in proper)}
    out = []
    for a, m in zip(rows, masks):
        if m not in maximal:
            continue
        maximal.discard(m)
        tight = tuple(r for i, r in enumerate(data.rays) if m >> i & 1)
        tight_rows = tuple(z for i, z in enumerate(data.tight) if m >> i & 1)
        fc = HCone(hc.dim_ambient, ineqs, tuple(sorted(eqs | {a})))
        object.__setattr__(fc, "_data", ConeData(tight, data.lineality, data.dim - 1,
                                                 tight_rows))
        out.append(Facet(fc, primitive(vneg(a)), all(r[0] == 0 for r in tight)))
    out.sort(key=lambda f: f.outer_normal)
    return out


def doctored_fig1_fans():
    """Broken copies of the fig1 fan, keyed by the invariant each is built to fail.

    One cone dropped; the whole halfspace beside a real cone; the two
    halfspaces v_1 >= 0 and v_1 <= 0, whose rows miss (0, 1, 1); and the
    real fan with one ``ADJ`` pair dropped.  ``DOCTORED_FLAGS`` lists every
    invariant each copy fails.
    """
    fig1 = groebner_fan(Ideal(polys(XY, "t*x^2 + x*y + t*y^2"), 2))
    cones = fig1.maximal_cones
    halves = (make_cone(3, ineqs=[(0, 1, 0)]), make_cone(3, ineqs=[(0, -1, 0)]))

    def adjacent_pair(a, b):
        return Fan((a, b), ((0, 1, intersect(a.hcone, b.hcone)),))

    return {
        "coverage": Fan(cones[1:], ()),
        "face-to-face": adjacent_pair(cones[0], replace(cones[0], hcone=make_cone(3))),
        "lineality-ones": adjacent_pair(*(replace(cones[0], hcone=h) for h in halves)),
        "facet-pairs": Fan(cones, fig1.adjacency[1:]),
    }


# A fan with a cone missing also leaves that cone's neighbours' facets unpaired.
DOCTORED_FLAGS = {
    "coverage": {"coverage", "facet-pairs"},
    "face-to-face": {"face-to-face"},
    "lineality-ones": {"lineality-ones"},
    "facet-pairs": {"facet-pairs"},
}


def random_prime_ideal(rng: random.Random) -> Ideal:
    """Small random x-homogeneous ideal containing p - t for p in {2, 3}.

    Bounds: at most 3 generators (p - t included), x-degrees <= 3, at most
    3 x-variables, coefficients in [-3, 3], t-powers <= 3.
    """
    n = rng.randint(1, 3)
    p = rng.choice([2, 3])
    gens = [Polynomial.from_terms([(p, (0,) * (1 + n)), (-1, (1,) + (0,) * n)])]
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
        g = Polynomial.from_terms([(c, e) for e, c in terms.items()])
        if g.is_zero:
            g = Polynomial.term(1, (0, 1) + (0,) * (n - 1))
        gens.append(g)
    return Ideal(tuple(gens), n, prime=p)


def prime_stream_member(k: int) -> Ideal:
    """Member k (from 0) of the stream random_prime_ideal(Random(2)); members
    1 and 2 are the rand1 and rand2 of the tests and the benchmark."""
    rng = random.Random(2)
    for _ in range(k):
        random_prime_ideal(rng)
    return random_prime_ideal(rng)


def prime_benchmark_cones(monkeypatch, rng):
    """(case name, parsed problem, weight) for one interior weight, drawn
    with ``rng``, of each maximal cone of every prime-regime benchmark fan
    that ``bench/reference.json`` records; ``bench`` is only read."""
    corpus, checks = bench_modules(monkeypatch)
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    params = ref["params"]
    cases = corpus.prime_cases(params["prime_corpus_seed"], params["scaling_seeds"],
                               ref["prime_keep"])
    out = []
    for name, text in cases:
        problem = parse_problem(text)
        for rays, lin in ref["fans"][name]["cones"]:
            out.append((name, problem, checks.interior_weight(rays, lin, rng)))
    return out


@contextmanager
def time_limit(seconds):
    """Fail the enclosed block with TimeoutError after ``seconds`` of wall
    time, so a regression to a hang fails instead of stalling the suite."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# --- pairs by polynomial arithmetic ------------------------------------------


def exp_lcm(e1, e2):
    """The componentwise maximum of two exponents."""
    return tuple(map(max, e1, e2))


def old_s_poly(f, lf, g, lg):
    """The S-polynomial of f and g, given their leading terms, by
    polynomial arithmetic."""
    m = exp_lcm(lf.exp, lg.exp)
    a, b = lf.coeff, lg.coeff
    c = abs(a * b) // gcd(a, b)
    return f.term_mul(c // a, exp_div(m, lf.exp)) - g.term_mul(c // b, exp_div(m, lg.exp))


def old_gcd_poly(f, lf, g, lg):
    """The GCD-polynomial of f and g, given their leading terms, by
    polynomial arithmetic: its leading coefficient is the gcd of theirs."""
    m = exp_lcm(lf.exp, lg.exp)
    _, u, v = extended_gcd(lf.coeff, lg.coeff)
    return f.term_mul(u, exp_div(m, lf.exp)) + g.term_mul(v, exp_div(m, lg.exp))


def assert_pairs_reduce_to_zero(ord_, elements):
    """The pair certificate of a strong standard basis over Z: every S-pair,
    and every GCD-pair whose leading coefficients do not divide each other,
    has weak normal form zero modulo the elements."""
    for i, f in enumerate(elements):
        for g in elements[i + 1:]:
            lf, lg = leading_term(ord_, f), leading_term(ord_, g)
            pairs = [old_s_poly(f, lf, g, lg)]
            if lf.coeff % lg.coeff and lg.coeff % lf.coeff:
                pairs.append(old_gcd_poly(f, lf, g, lg))
            for h in pairs:
                assert mora_weak_nf(ord_, h, elements).remainder.is_zero, (ord_, f, g)
