"""Division with remainder and standard bases over Z under t-local orderings.

Three engines live here:

* ``hddwr`` -- determinate division with remainder.  Deterministic: at every
  step the compare-greatest reducible term of the running remainder is
  reduced by the first list element whose leading term divides it (term
  divisibility over Z: coefficient divides and exponents are componentwise
  <=).  Terms nobody divides move to the remainder.  Termination is
  guaranteed when dividend and divisors are x-homogeneous and weighted
  homogeneous for one weight with negative t-entry.

* ``mora_weak_nf`` -- weak normal form with a unit multiplier u, lt(u) = 1.
  t-local orderings are not well-founded (1 > t > t^2 > ...), so plain tail
  chasing loops forever; the classical fix is to allow previously computed
  partial remainders as reducers, choosing among eligible reducers one of
  minimal t-ecart and recording the current state as a new reducer whenever
  the chosen ecart exceeds the current one.  No computation path calls it:
  the tests use it as an oracle and ``bench/tracer.py`` times it by name.

* ``standard_basis`` -- completion with both S-pairs and GCD-pairs (the
  strong-basis pair set for coefficient rings like Z where leading ideals
  are generated by terms, not monomials).  The output is strong: every
  leading term of an ideal element is term-divisible by some basis leading
  term, which is what makes single-divisor division above sufficient.
  Three pair criteria proved for Z skip candidates that reduce to zero:
  the product criterion for S-pairs (coprime leading monomials *and*
  coprime leading coefficients; Kandri-Rody and Kapur, JSC 6, 1988), the
  chain criterion for S-pairs (Kandri-Rody and Kapur; Gebauer and Moeller,
  JSC 6, 1988) and the GCD-pair criterion (Lichtblau, Illinois J. Math.
  56, 2012).  Both chain forms fire only through a third element whose
  pairs with the two are already treated (out of the pair heap); the
  looser form changes the bases (see ``standard_basis``).
  Its hot path does no repeated key or sorting work: one key table per
  completion holds the graded key of each exponent met, pair candidates are
  built straight into the ``exp -> coeff`` dict that head reduction works
  on, and only nonzero remainders become Polynomials.

Every loop here is bounded by the one module constant ``STEP_CAP``.  It
guards against faults and is not a tuning value: the homogenised completion
and determinate division terminate on their documented inputs, and the cap
turns any other run into ``DivisionDiverged`` instead of a hang.  Loops read
``division.STEP_CAP`` when they run, so lowering that one attribute (as the
tests do) lowers every cap, the one in ``inred`` included.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import gcd as _int_gcd
from operator import add, sub
from typing import NamedTuple, Sequence

from .errors import DivisionDiverged, InvalidInput
from .exact import extended_gcd
from .poly import (
    MonomialOrdering,
    Polynomial,
    Term,
    exp_div,
    exp_divides,
    exp_lcm,
    exp_x_degree,
    leading_term,
    strip_unit_t_content,
    term_divides,
)

STEP_CAP = 10**6


class DivisionResult(NamedTuple):
    quotients: tuple[Polynomial, ...]
    remainder: Polynomial


class WeakNFResult(NamedTuple):
    unit: Polynomial
    quotients: tuple[Polynomial, ...]
    remainder: Polynomial


class StandardBasis(NamedTuple):
    elements: tuple[Polynomial, ...]
    ordering: MonomialOrdering


def ecart(ord_: MonomialOrdering, f: Polynomial) -> int:
    """t-degree spread: max t-power in f minus the leading term's t-power."""
    lt = leading_term(ord_, f)
    return max(t.exp[0] for t in f.terms) - lt.exp[0]


def hddwr(ord_: MonomialOrdering, f: Polynomial,
          divisors: Sequence[Polynomial]) -> DivisionResult:
    """Determinate division f = sum q_i g_i + r, no term of r divisible."""
    lts = [leading_term(ord_, g) for g in divisors]
    quotient_parts: list[list[Term]] = [[] for _ in divisors]
    rem_parts: list[Term] = []
    h = f
    steps = 0
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
        steps += 1
        if steps > STEP_CAP:
            raise DivisionDiverged(
                f"determinate division exceeded {STEP_CAP} steps",
                trace=[str(t.exp) for t in h.terms[:4]],
            )
    return DivisionResult(tuple(Polynomial.from_terms(q) for q in quotient_parts),
                          Polynomial.from_terms(rem_parts))


def mora_weak_nf(ord_: MonomialOrdering, f: Polynomial,
                 divisors: Sequence[Polynomial]) -> WeakNFResult:
    """Weak normal form u*f = sum q_i g_i + r with lt(u) = 1.

    Reducer choice among the eligible: minimal t-ecart, then smallest
    absolute leading coefficient (coefficient-1 reducers always apply over Z
    and keep coefficient growth down), then order of entry.
    """
    k = len(divisors)
    if f.is_zero:
        return WeakNFResult(_one_like(divisors, f), (Polynomial.zero(),) * k, f)
    one = Polynomial.constant(1, f.nvars)
    # reducers: (ecart, |lc|, order-of-entry, lt, poly, payload); payload is
    # an index into divisors or a snapshot (h, u, quotients) of a state.
    reducers = []
    for i, g in enumerate(divisors):
        if g.is_zero:
            raise InvalidInput("zero divisor in weak normal form")
        lt = leading_term(ord_, g)
        reducers.append((ecart(ord_, g), abs(lt.coeff), len(reducers), lt, g, i))
    u = one
    q = [Polynomial.zero() for _ in divisors]
    h = f
    steps = 0
    while h:
        t = leading_term(ord_, h)
        eligible = [r for r in reducers if term_divides(r[3], t)]
        if not eligible:
            break
        e_h = ecart(ord_, h)
        red = min(eligible, key=lambda r: (r[0], r[1], r[2]))
        if red[0] > e_h:
            reducers.append((e_h, abs(t.coeff), len(reducers), t, h, (h, u, tuple(q))))
        m = Term(t.coeff // red[3].coeff, exp_div(t.exp, red[3].exp))
        if isinstance(red[5], int):
            q[red[5]] = q[red[5]] + Polynomial.term(m.coeff, m.exp)
            h = h - red[4].term_mul(m.coeff, m.exp)
        else:
            h_s, u_s, q_s = red[5]
            h = h - h_s.term_mul(m.coeff, m.exp)
            u = u - u_s.term_mul(m.coeff, m.exp)
            q = [qi - qs.term_mul(m.coeff, m.exp) for qi, qs in zip(q, q_s)]
        steps += 1
        if steps > STEP_CAP:
            raise DivisionDiverged(
                f"weak normal form exceeded {STEP_CAP} steps",
                trace=[str(t.exp) for t in h.terms[:4]],
            )
    return WeakNFResult(u, tuple(q), h)


def _one_like(divisors, f):
    for g in divisors:
        if not g.is_zero:
            return Polynomial.constant(1, g.nvars)
    if not f.is_zero:
        return Polynomial.constant(1, f.nvars)
    return Polynomial.zero()


def spair(ord_: MonomialOrdering, f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial over Z: cancel lcm of leading terms via coefficient lcm."""
    return _from_dict(_s_pair(f, leading_term(ord_, f), g, leading_term(ord_, g)))


def gpair(ord_: MonomialOrdering, f: Polynomial, g: Polynomial) -> Polynomial:
    """GCD-polynomial: leading coefficient becomes gcd of the two lc's."""
    return _from_dict(_gcd_pair(f, leading_term(ord_, f), g, leading_term(ord_, g)))


def _s_pair(f: Polynomial, lf: Term, g: Polynomial, lg: Term) -> dict:
    """The S-polynomial of f and g as a dict, given their leading terms."""
    a, b = lf.coeff, lg.coeff
    c = abs(a * b) // _gcd(a, b)
    return _pair_dict(c // a, f, lf, -(c // b), g, lg)


def _gcd_pair(f: Polynomial, lf: Term, g: Polynomial, lg: Term) -> dict:
    """The GCD-polynomial of f and g as a dict, given their leading terms."""
    _, u, v = extended_gcd(lf.coeff, lg.coeff)
    return _pair_dict(u, f, lf, v, g, lg)


def _pair_dict(u: int, f: Polynomial, lf: Term, v: int, g: Polynomial, lg: Term) -> dict:
    """u*x^(m-lf)*f + v*x^(m-lg)*g as an ``exp -> coeff`` dict with no zero
    coefficient, where m is the lcm of the two leading exponents."""
    m = exp_lcm(lf.exp, lg.exp)
    acc: dict[tuple, int] = {}
    for k, h, lt in ((u, f, lf), (v, g, lg)):
        if not k:
            continue
        shift = tuple(map(sub, m, lt.exp))
        for c, e in h.terms:
            e = tuple(map(add, e, shift))
            c = acc.get(e, 0) + k * c
            if c:
                acc[e] = c
            else:
                del acc[e]
    return acc


def _from_dict(acc: dict) -> Polynomial:
    return Polynomial.from_terms((c, e) for e, c in acc.items())


def _gcd(a, b):
    return _int_gcd(abs(a), abs(b))


def sorted_basis(ord_: MonomialOrdering, elems) -> StandardBasis:
    """The one basis order: leading monomial descending, then terms."""
    elems = sorted(elems, key=lambda g: (ord_.key(leading_term(ord_, g).exp), g.terms),
                   reverse=True)
    return StandardBasis(tuple(elems), ord_)


def normalize_element(ord_: MonomialOrdering, f: Polynomial) -> Polynomial:
    """Basis-element normalisation: strip unit t-content, make lc positive."""
    f = strip_unit_t_content(f)
    if leading_term(ord_, f).coeff < 0:
        f = -f
    return f


# --- standard bases via degree homogenisation -------------------------------
#
# Single-divisor reduction under a t-local ordering need not terminate over
# Z: a coefficient-1 reducer can force an eternal climb in t while the
# stored partial remainders never re-apply because integer divisibility
# fails.  The classical cure is to compute in one extra variable s that
# homogenises the t-degree: under an ordering graded by (s+t+x)-degree the
# monomial order is global, head reduction strictly descends in a
# well-order, and the strong-pair completion over Z terminates.  Setting
# s = 1 afterwards yields a strong standard basis for the t-local ordering
# (x-homogeneity and st-homogeneity are preserved throughout, so leading
# terms dehomogenise to leading terms).


class _KeyTable(dict):
    """Graded keys of homogenised exponents (sigma, beta, alpha...): the total
    degree, then ``ord_.key`` of the dehomogenised exponent.

    A plain dict for lookups; a missing exponent has its key computed and
    entered on first lookup, so ``keys.__getitem__`` is a key function that
    runs in C for every exponent seen before.  One table serves one
    completion."""

    def __init__(self, ord_: MonomialOrdering):
        super().__init__()
        self.ord = ord_

    def __missing__(self, e):
        k = self[e] = (sum(e),) + self.ord.key(e[1:])
        return k


def _homogenize(f: Polynomial) -> Polynomial:
    top = max(t.exp[0] for t in f.terms)
    return Polynomial.from_terms([(c, (top - e[0],) + e) for c, e in f.terms])


def _dehomogenize(f: Polynomial) -> Polynomial:
    return Polynomial.from_terms([(c, e[1:]) for c, e in f.terms])


def _head_reduce(keys: _KeyTable, acc: dict, basis) -> Polynomial:
    """Weak head reduction under a global order: stop at the first leading
    term no basis leading term divides.

    ``acc`` is the running remainder as an ``exp -> coeff`` dict, updated in
    place by every step; its leading exponent is the one with the greatest
    key in ``keys``.  ``basis`` holds (leading term, element) pairs, and the
    first element whose leading term divides the current leading term is the
    reducer.  A Polynomial is built once, on return."""
    steps = 0
    while acc:
        e = max(acc, key=keys.__getitem__)
        c = acc[e]
        for lt, g in basis:
            if c % lt.coeff == 0 and exp_divides(lt.exp, e):
                break
        else:
            return _from_dict(acc)
        q = c // lt.coeff
        m = tuple(map(sub, e, lt.exp))
        for gc, ge in g.terms:
            ge = tuple(map(add, ge, m))
            v = acc.get(ge, 0) - q * gc
            if v:
                acc[ge] = v
            else:
                del acc[ge]
        steps += 1
        if steps > STEP_CAP:
            raise DivisionDiverged(f"head reduction exceeded {STEP_CAP} steps")
    return Polynomial.zero()


def standard_basis(ord_: MonomialOrdering, gens: Sequence[Polynomial]) -> StandardBasis:
    """Strong standard basis of <gens> w.r.t. a t-local ordering.

    The completion runs on the t-degree homogenisation with both S- and
    GCD-pairs (the strong pair set needed over Z, where leading ideals are
    generated by terms rather than monomials).  One ``_KeyTable`` holds the
    graded key of every homogenised exponent the completion meets, each
    computed once.  Pairs wait in a heap keyed by (graded key of their lcm,
    i, j), so they are processed smallest lcm first and, among equal lcms,
    by index; a pair is *treated* once it has left the heap.  Each candidate
    is built straight into the ``exp -> coeff`` dict that ``_head_reduce``
    works on, and only a nonzero remainder becomes a Polynomial and joins
    the reducer list, in place; the GCD-candidate of a pair is reduced after
    its S-remainder has joined.

    A candidate is skipped, unbuilt, when one of the three pair criteria
    over Z below shows that it reduces to zero.  With a_i x^m_i the leading
    term of element i and m = lcm(m_i, m_j) over all homogenised exponents:

    * product criterion (Kandri-Rody and Kapur): the S-pair of (i, j) when
      m_i and m_j are coprime and so are a_i and a_j.  Coprime monomials
      alone are not enough over Z: <2x, 2y + t*x> needs t*x^2;
    * chain criterion (Kandri-Rody and Kapur; Gebauer and Moeller): the
      S-pair of (i, j) when some k other than i and j has a leading term
      that term-divides lcm(a_i, a_j) x^m, and the pairs (i, k) and (j, k)
      are both treated;
    * GCD-pair criterion (Lichtblau): the GCD-pair of (i, j) under the same
      condition with gcd(a_i, a_j) x^m.

    The chain forms ask for treated pairs (i, k) and (j, k).  A pair still
    in the heap has not been reduced yet, and the looser form that ignores
    this changes the bases: along the criteria-free completions of the
    cone-queries benchmark (seed 1) it flags 377 candidates whose remainder
    is not zero.  The treated forms flag 7,100 candidates there, and none
    has a nonzero remainder, so on that corpus the output is the one the
    criteria-free loop gives.  That identity is measured, not proved: the
    tests compare against the criteria-free loop and certify every pair.

    The dehomogenised elements are normalised by stripping Z[[t]]-unit
    content and fixing positive leading coefficients.
    """
    first = [normalize_element(ord_, f) for f in gens if not f.is_zero]
    if not first:
        raise InvalidInput("standard basis of the zero ideal is not represented")
    keys = _KeyTable(ord_)
    reducers: list[tuple[Term, Polynomial]] = []  # (leading term, element)
    pending: list[tuple] = []  # heap of (keys[lcm], i, j)
    treated: list[bytearray] = []  # treated[j][i] for i < j: (i, j) left the heap

    def add(h):
        lt = max(h.terms, key=lambda u: keys[u.exp])
        j = len(reducers)
        for i, (lt_i, _) in enumerate(reducers):
            heappush(pending, (keys[exp_lcm(lt_i.exp, lt.exp)], i, j))
        reducers.append((lt, h))
        treated.append(bytearray(j))

    def chained(i, j, c, m):
        """Some k not in {i, j} whose leading term term-divides c*x^m, with
        (i, k) and (j, k) treated."""
        for k, (lt, _) in enumerate(reducers):
            if c % lt.coeff == 0 and exp_divides(lt.exp, m) and k != i and k != j \
                    and (treated[k][i] if i < k else treated[i][k]) \
                    and (treated[k][j] if j < k else treated[j][k]):
                return True
        return False

    for f in first:
        h = _homogenize(f)
        if all(h != g for _, g in reducers):
            add(h)
    guard = 0
    while pending:
        _, i, j = heappop(pending)
        treated[j][i] = 1
        (lf, f), (lg, g) = reducers[i], reducers[j]
        a, b = abs(lf.coeff), abs(lg.coeff)
        d = _int_gcd(a, b)
        m = exp_lcm(lf.exp, lg.exp)
        pair_kinds = []
        if (d != 1 or any(map(min, lf.exp, lg.exp))) and not chained(i, j, a // d * b, m):
            pair_kinds.append(_s_pair)
        if d != a and d != b and not chained(i, j, d, m):
            pair_kinds.append(_gcd_pair)
        for pair in pair_kinds:
            acc = pair(f, lf, g, lg)
            if acc:
                r = _head_reduce(keys, acc, reducers)
                if not r.is_zero:
                    add(r)
        guard += 1
        if guard > STEP_CAP:
            raise DivisionDiverged(f"pair processing exceeded {STEP_CAP} pairs")
    out: list[Polynomial] = []
    for _, h in reducers:
        f = normalize_element(ord_, _dehomogenize(h))
        if f not in out:
            out.append(f)
    return sorted_basis(ord_, out)


def minimize(basis: StandardBasis) -> StandardBasis:
    """Drop elements whose leading term is term-divisible by another's.

    The leading ideal is unchanged; minimal standard bases remain standard
    bases (and generating sets).  Potential divisors are processed first so
    the outcome is deterministic.
    """
    ord_ = basis.ordering

    def order(g):
        lt = leading_term(ord_, g)
        return (exp_x_degree(lt.exp), lt.exp[0], abs(lt.coeff), ord_.key(lt.exp), g.terms)

    kept: list[Polynomial] = []
    for g in sorted(basis.elements, key=order):
        lt = leading_term(ord_, g)
        if any(term_divides(leading_term(ord_, h), lt) for h in kept):
            continue
        kept.append(g)
    return sorted_basis(ord_, kept)
