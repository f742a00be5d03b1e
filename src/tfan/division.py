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
  the chosen ecart exceeds the current one.

* ``standard_basis`` -- completion with both S-pairs and GCD-pairs (the
  strong-basis pair set for coefficient rings like Z where leading ideals
  are generated by terms, not monomials).  The output is strong: every
  leading term of an ideal element is term-divisible by some basis leading
  term, which is what makes single-divisor division above sufficient.

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
    quotients = [Polynomial.zero() for _ in divisors]
    rem_parts: list[tuple[int, tuple]] = []
    h = f
    steps = 0
    while h:
        t = leading_term(ord_, h)
        for i, lt in enumerate(lts):
            if term_divides(lt, t):
                m = Term(t.coeff // lt.coeff, exp_div(t.exp, lt.exp))
                quotients[i] = quotients[i] + Polynomial.term(m.coeff, m.exp)
                h = h - divisors[i].term_mul(m.coeff, m.exp)
                break
        else:
            rem_parts.append((t.coeff, t.exp))
            h = Polynomial(tuple(u for u in h.terms if u.exp != t.exp))
        steps += 1
        if steps > STEP_CAP:
            raise DivisionDiverged(
                f"determinate division exceeded {STEP_CAP} steps",
                trace=[str(t.exp) for t in h.terms[:4]],
            )
    return DivisionResult(tuple(quotients), Polynomial.from_terms(rem_parts))


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
    return _s_poly(f, leading_term(ord_, f), g, leading_term(ord_, g))


def gpair(ord_: MonomialOrdering, f: Polynomial, g: Polynomial) -> Polynomial:
    """GCD-polynomial: leading coefficient becomes gcd of the two lc's."""
    return _gcd_poly(f, leading_term(ord_, f), g, leading_term(ord_, g))


def _s_poly(f: Polynomial, lf: Term, g: Polynomial, lg: Term) -> Polynomial:
    """The S-polynomial of f and g, given their leading terms lf and lg."""
    m = exp_lcm(lf.exp, lg.exp)
    a, b = lf.coeff, lg.coeff
    c = abs(a * b) // _gcd(a, b)
    return f.term_mul(c // a, exp_div(m, lf.exp)) - g.term_mul(c // b, exp_div(m, lg.exp))


def _gcd_poly(f: Polynomial, lf: Term, g: Polynomial, lg: Term) -> Polynomial:
    """The GCD-polynomial of f and g, given their leading terms lf and lg."""
    m = exp_lcm(lf.exp, lg.exp)
    _, u, v = extended_gcd(lf.coeff, lg.coeff)
    return f.term_mul(u, exp_div(m, lf.exp)) + g.term_mul(v, exp_div(m, lg.exp))


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


def _hom_key(ord_: MonomialOrdering):
    """Sort key on homogenised exponents (sigma, beta, alpha...): the total
    degree, then ``ord_.key`` of the dehomogenised exponent.  Keys are
    memoised in a dict owned by the returned function, so the memo lives as
    long as the one completion that uses it."""
    memo: dict[tuple, tuple] = {}

    def key(e):
        k = memo.get(e)
        if k is None:
            k = memo[e] = (sum(e),) + ord_.key(e[1:])
        return k

    return key


def _homogenize(f: Polynomial) -> Polynomial:
    top = max(t.exp[0] for t in f.terms)
    return Polynomial.from_terms([(c, (top - e[0],) + e) for c, e in f.terms])


def _dehomogenize(f: Polynomial) -> Polynomial:
    return Polynomial.from_terms([(c, e[1:]) for c, e in f.terms])


def _head_reduce(key, h: Polynomial, basis) -> Polynomial:
    """Weak head reduction under a global order: stop at the first leading
    term no basis leading term divides.

    The running remainder is an ``exp -> coeff`` dict that each step updates
    in place; the first basis element whose leading term divides the current
    leading term is the reducer.  A Polynomial is built once, on return."""
    acc = {e: c for c, e in h.terms}
    steps = 0
    while acc:
        e = max(acc, key=key)
        c = acc[e]
        for lt, g in basis:
            if c % lt.coeff == 0 and exp_divides(lt.exp, e):
                break
        else:
            return Polynomial.from_terms((c, e) for e, c in acc.items())
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
    generated by terms rather than monomials).  Pairs wait in a heap keyed
    by (graded key of their lcm, i, j), computed once when the pair is
    pushed, so they are processed smallest lcm first and, among equal lcms,
    by index.  The dehomogenised elements are normalised by stripping
    Z[[t]]-unit content and fixing positive leading coefficients.
    """
    first = [normalize_element(ord_, f) for f in gens if not f.is_zero]
    if not first:
        raise InvalidInput("standard basis of the zero ideal is not represented")
    key = _hom_key(ord_)

    def hlt(f):
        return max(f.terms, key=lambda u: key(u.exp))

    G: list[Polynomial] = []
    lts: list[Term] = []
    pending: list[tuple] = []  # heap of (key(lcm), i, j)

    def add(h):
        G.append(h)
        lts.append(hlt(h))
        j = len(G) - 1
        for i in range(j):
            heappush(pending, (key(exp_lcm(lts[i].exp, lts[j].exp)), i, j))

    for f in first:
        h = _homogenize(f)
        if h not in G:
            add(h)
    guard = 0
    while pending:
        _, i, j = heappop(pending)
        a, b = lts[i].coeff, lts[j].coeff
        candidates = [_s_poly(G[i], lts[i], G[j], lts[j])]
        if a % b != 0 and b % a != 0:
            candidates.append(_gcd_poly(G[i], lts[i], G[j], lts[j]))
        for h in candidates:
            if h.is_zero:
                continue
            r = _head_reduce(key, h, list(zip(lts, G)))
            if r.is_zero:
                continue
            add(r)
        guard += 1
        if guard > STEP_CAP:
            raise DivisionDiverged(f"pair processing exceeded {STEP_CAP} pairs")
    out: list[Polynomial] = []
    for h in G:
        f = normalize_element(ord_, _dehomogenize(h))
        if f not in out:
            out.append(f)
    return sorted_basis(ord_, out)


def minimize(ord_: MonomialOrdering, basis: StandardBasis) -> StandardBasis:
    """Drop elements whose leading term is term-divisible by another's.

    The leading ideal is unchanged; minimal standard bases remain standard
    bases (and generating sets).  Potential divisors are processed first so
    the outcome is deterministic.
    """
    elems = list(basis.elements)

    def order(g):
        lt = leading_term(ord_, g)
        return (exp_x_degree(lt.exp), lt.exp[0], abs(lt.coeff), ord_.key(lt.exp), g.terms)

    kept: list[Polynomial] = []
    for g in sorted(elems, key=order):
        lt = leading_term(ord_, g)
        if any(term_divides(leading_term(ord_, h), lt) for h in kept):
            continue
        kept.append(g)
    return sorted_basis(ord_, kept)
