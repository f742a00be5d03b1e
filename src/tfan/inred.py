"""Initial reduction of standard bases.

A basis element g = sum g_alpha(t) x^alpha has a t-skeleton: the t-minimal
term of each Z[t]-coefficient.  A standard basis is *initially reduced* when
it is minimal and no tail term of any element's skeleton is term-divisible by
a basis leading term.  That is the exact property needed to read the
Groebner cone off the basis; full tail reduction would in general produce
power series, initial reduction keeps everything polynomial.

Two regimes:

* prime regime: the ideal contains p - t for a declared prime p.  Then
  initial reduction terminates unconditionally.  The pipeline is
  (p - t)-reduction of single elements, mutual reduction of an
  equal-x-degree block (two triangular passes), cross-degree reduction
  against lower strata one reducible skeleton term at a time, and a driver
  that walks x-degrees bottom up.

* generic regime: ``generic_initial_reduce`` chases skeleton tail terms
  directly.  Termination is not guaranteed without p - t; a t-degree limit
  (and, behind it, the fixed ``division.STEP_CAP``) turns divergence into
  ``InredDiverged``.  Dividing out Z[[t]]-unit content after each
  elimination resolves the common benign loops (for example a pair like
  {x + t*y, y + t*x} reduces to {x, y} instead of cycling).

``initially_reduce`` is the one path from a known standard basis to an
initially reduced one, in either regime; it never completes again and
expects elements normalised as ``standard_basis`` leaves them.  The fan
traversal normalises lifted bases and calls it on them.
``ensure_initially_reduced`` is the one entry from generators: it applies
``Ideal``'s rule that a declared prime p needs p - t among the generators
(so membership of p - t is never decided by a normal form), completes, then
calls ``initially_reduce``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import division
from .division import (
    StandardBasis,
    minimize,
    sorted_basis,
    standard_basis,
)
from .errors import InredDiverged, InvalidInput
from .exact import extended_gcd, is_prime, p_valuation
from .poly import (
    Ideal,
    MonomialOrdering,
    Polynomial,
    Term,
    exp_divides,
    is_x_homogeneous,
    leading_term,
    mul_tpoly,
    p_minus_t,
    strip_unit_t_content,
    t_coefficient,
    t_coefficients,
    t_skeleton,
    term_div,
    term_divides,
    tpoly_min_beta,
    tpoly_shift,
    x_degree,
)


@dataclass(frozen=True)
class InredContext:
    """Prime-regime parameters: the uniformising prime and the ordering."""

    p: int
    ord: MonomialOrdering

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidInput(f"{self.p} is not prime")


def p_reduce(ctx: InredContext, g: Polynomial) -> Polynomial:
    """Reduce g initially with respect to p - t.

    Each x-monomial but the leading one is settled on its own: while p
    divides the coefficient c of its lowest t-power t^b, c*t^b is traded for
    (c/p^l)*t^{b+l}, p^l the exact power of p in c (a multiple of p^l - t^l
    apart), merging with any term already at t^{b+l}.  Leading term and the
    ideal generated together with p - t are unchanged, and no tail term of
    the result's skeleton is divisible by p.
    """
    if g.is_zero:
        raise InvalidInput("p_reduce of the zero polynomial")
    if not is_x_homogeneous(g):
        raise InvalidInput("p_reduce input must be x-homogeneous")
    p = ctx.p
    gamma = leading_term(ctx.ord, g).exp[1:]
    terms = []
    for alpha, tp in t_coefficients(g).items():
        if alpha != gamma:
            coeff = dict(tp)
            while coeff and coeff[min(coeff)] % p == 0:
                b = min(coeff)
                c = coeff.pop(b)
                l = p_valuation(c, p)
                v = coeff.pop(b + l, 0) + c // p**l
                if v:
                    coeff[b + l] = v
            tp = sorted(coeff.items())
        terms.extend(Term(c, (b,) + alpha) for b, c in tp)
    return Polynomial(tuple(terms))


def _check_block(ord_, G):
    """Shared preconditions of the same-degree reducers."""
    if not G:
        return
    degs = set()
    lms = []
    for g in G:
        if g.is_zero or not is_x_homogeneous(g):
            raise InvalidInput("block elements must be nonzero and x-homogeneous")
        degs.add(x_degree(g))
        lt = leading_term(ord_, g)
        if lt.coeff != 1:
            raise InvalidInput("block elements must have leading coefficient 1")
        lms.append(lt.exp)
    if len(degs) > 1:
        raise InvalidInput("block elements must share one x-degree")
    if len(set(lms)) != len(lms):
        raise InvalidInput("block elements must have distinct leading monomials")
    if len({lm[1:] for lm in lms}) != len(lms):
        raise InvalidInput("block elements must have distinct leading x-monomials")


def inred_same_degree(ctx: InredContext, G: Sequence[Polynomial]) -> list[Polynomial]:
    """Initially reduce a block of equal x-degree against itself and p - t.

    Two triangular passes over the block ordered by decreasing leading
    monomial: the first eliminates the x-monomial of each leading term from
    all later elements, the second clears reducible skeleton terms of earlier
    elements against later leading terms.  Every combination is (p - t)-
    reduced immediately.  Leading terms are preserved and the ideal generated
    together with p - t is unchanged.
    """
    ord_ = ctx.ord
    _check_block(ord_, G)
    g = [p_reduce(ctx, x) for x in G]
    g.sort(key=lambda f: ord_.key(leading_term(ord_, f).exp), reverse=True)
    k = len(g)
    lts = [leading_term(ord_, f) for f in g]
    beta = [lt.exp[0] for lt in lts]
    alpha = [lt.exp[1:] for lt in lts]
    for i in range(k):
        for j in range(i + 1, k):
            cj = t_coefficient(g[j], alpha[i])
            if not cj:
                continue
            ci = t_coefficient(g[i], alpha[i])
            assert tpoly_min_beta(cj) >= beta[i], "t-divisibility guaranteed by ordering"
            g[j] = p_reduce(ctx, _cross_eliminate(g[j], cj, g[i], ci, beta[i]))
    for i in range(k):
        for j in range(i + 1, k):
            ci = t_coefficient(g[i], alpha[j])
            if not ci or tpoly_min_beta(ci) < beta[j]:
                continue
            cj = t_coefficient(g[j], alpha[j])
            g[i] = p_reduce(ctx, _cross_eliminate(g[i], ci, g[j], cj, beta[j]))
    return g


def _cross_eliminate(g: Polynomial, c_g, h: Polynomial, c_h, beta: int) -> Polynomial:
    """c_h(t)/t^beta * g - c_g(t)/t^beta * h.

    c_g and c_h are the Z[t]-coefficients of g and h at the x-monomial being
    cleared, h's leading term sits at t^beta there, and t^beta divides c_g;
    the combination has no term at that x-monomial.  This is the one
    cross-multiplication step of initial reduction.
    """
    return mul_tpoly(g, tpoly_shift(c_h, -beta)) - mul_tpoly(h, tpoly_shift(c_g, -beta))


def _check_cross(ord_, G, H):
    _check_block(ord_, H)
    if not H:
        raise InvalidInput("nothing to reduce")
    d = x_degree(H[0])
    for g in G:
        if g.is_zero or not is_x_homogeneous(g):
            raise InvalidInput("lower-degree elements must be nonzero and x-homogeneous")
        if x_degree(g) >= d:
            raise InvalidInput("lower-degree elements must have x-degree < the block's")
        if leading_term(ord_, g).coeff != 1:
            raise InvalidInput("lower-degree elements must have leading coefficient 1")
    glts = [leading_term(ord_, g) for g in G]
    for h in H:
        lm = leading_term(ord_, h).exp
        if any(exp_divides(lt.exp, lm) for lt in glts):
            raise InvalidInput("block leading monomial lies in the lower leading ideal")
    return d


def _split_by_lm(ord_, combined, h_lms, e_lms):
    by_lm = {leading_term(ord_, f).exp: f for f in combined}
    return [by_lm[lm] for lm in h_lms], [by_lm[lm] for lm in e_lms]


def _reducible_tail(ord_, f, lt_f, lts):
    """Yield (term, j) for each skeleton tail term of f, greatest first, and
    each ``lts[j]`` that term-divides it; ``lt_f`` is f's leading term."""
    tail = sorted((t for t in t_skeleton(f).terms if t.exp != lt_f.exp),
                  key=lambda t: ord_.key(t.exp), reverse=True)
    for term in tail:
        for j, lt in enumerate(lts):
            if term_divides(lt, term):
                yield term, j


def inred_step_by_step(ctx: InredContext, G: Sequence[Polynomial],
                       H: Sequence[Polynomial]) -> list[Polynomial]:
    """Cross-degree reduction, one reducible skeleton term at a time.

    Each step takes the greatest skeleton tail term of the block, below the
    term the previous step handled, that a lower leading term divides (the
    first such lower element is the reducer).  The matching multiple of
    that element, carrying the maximal feasible t-power, joins the helper
    set and the whole block is re-reduced.  The loop ends when no such term
    is left.  Only the term's exponent matters: lower leading coefficients
    are 1, so divisibility is a question of exponents.
    """
    ord_ = ctx.ord
    if not G:
        return inred_same_degree(ctx, H)
    _check_cross(ord_, G, H)
    h = inred_same_degree(ctx, H)
    h_lts = [leading_term(ord_, f) for f in h]
    h_lms = [lt.exp for lt in h_lts]
    glts = [leading_term(ord_, g) for g in G]
    E: list[Polynomial] = []
    e_lms: list[tuple] = []
    below = None  # ordering key of the term the last step handled
    while True:
        hits = []
        for f, lt_f in zip(h, h_lts):
            for term, j in _reducible_tail(ord_, f, lt_f, glts):
                key = ord_.key(term.exp)
                if below is None or key < below:
                    hits.append((key, term.exp, j))
                    break
        if not hits:
            return h
        below, s, j = max(hits)
        mult = G[j].term_mul(1, tuple(a - b for a, b in zip(s, glts[j].exp)))
        lm = leading_term(ord_, mult).exp
        assert lm not in e_lms
        E.append(mult)
        e_lms.append(lm)
        h, E = _split_by_lm(ord_, inred_same_degree(ctx, h + E), h_lms, e_lms)


def initially_reduce(basis: StandardBasis, prime: int | None = None) -> StandardBasis:
    """Minimal initially reduced standard basis from a known standard basis.

    ``basis`` must already be a standard basis w.r.t. its ordering, which
    the result keeps; nothing is completed again.  With a declared prime the
    ideal must contain p - t, which is not checked here.  Its elements must
    be normalised as ``standard_basis`` leaves them (``normalize_element``:
    unit t-content stripped, positive leading coefficient); callers with a
    basis from elsewhere, such as a lifted one, normalise it first.  Prime
    regime: drops elements whose leading coefficient the prime divides (p - t
    covers them), normalises the remaining leading coefficients to 1 via a
    Bezout combination with p - t, minimises, then reduces the x-degree
    strata bottom up against everything already finished; the result always
    contains p - t.  Generic regime: ``generic_initial_reduce``.
    """
    if not basis.elements:
        raise InvalidInput("empty standard basis")
    if prime is None:
        return generic_initial_reduce(basis)
    ord_ = basis.ordering
    ctx = InredContext(prime, ord_)
    pt = p_minus_t(prime, basis.elements[0].nvars)
    monic: list[Polynomial] = []
    for g in basis.elements:
        lc = leading_term(ord_, g).coeff
        if lc % ctx.p == 0:
            continue
        if lc != 1:
            lm = leading_term(ord_, g).exp
            _, a, b = extended_gcd(lc, ctx.p)
            g = g * a + pt.term_mul(b, lm)
            assert leading_term(ord_, g).coeff == 1
        monic.append(g)
    remaining = list(minimize(StandardBasis(tuple(monic), ord_)).elements)
    done: list[Polynomial] = []
    while remaining:
        d = min(x_degree(g) for g in remaining)
        stratum = [g for g in remaining if x_degree(g) == d]
        remaining = [g for g in remaining if x_degree(g) > d]
        done.extend(inred_step_by_step(ctx, done, stratum))
    return StandardBasis(tuple(done) + (pt,), ord_)


def _eliminate_tail(ord_, g, lt_g, term, h, lt_h):
    """One elimination of a reducible skeleton tail term of g against h.

    When h is monic up to sign, the whole Z[t]-coefficient of the offending
    x-monomial is cleared by cross-multiplication: (b/t^beta) * g minus
    (a/t^beta) * x^shift * h, where a and b are the Z[t]-coefficients of g
    and h at the relevant x-monomials.  The multiplier has unit leading term,
    so the ideal and (after a sign fix) the leading term are unchanged.  This
    is what finds polynomial reduced forms such as (1+t)*g - t*h where plain
    term-by-term subtraction would climb in t forever.  Reducers with bigger
    leading coefficients fall back to single-term subtraction.
    """
    if abs(lt_h.coeff) == 1:
        alpha = term.exp[1:]
        a = t_coefficient(g, alpha)
        b = t_coefficient(h, lt_h.exp[1:])
        beta = lt_h.exp[0]
        shift = (0,) + tuple(x - y for x, y in zip(alpha, lt_h.exp[1:]))
        out = _cross_eliminate(g, a, h.term_mul(1, shift), b, beta)
        if lt_h.coeff < 0:
            out = -out
        return out
    m = term_div(term, lt_h)
    return g - h.term_mul(m.coeff, m.exp)


def _fmt_vector(v) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


def _fmt_term(term) -> str:
    """A term as c*t^b*x^(a1, ..., an)."""
    return f"{term.coeff}*t^{term.exp[0]}*x^{_fmt_vector(term.exp[1:])}"


def _diverged(ord_, term, lt_g, bound) -> InredDiverged:
    weight = _fmt_vector(ord_.weights[0]) if ord_.weights else "(none)"
    return InredDiverged(
        f"generic initial reduction diverged at weight {weight}: eliminating "
        f"skeleton term {_fmt_term(term)} from the element with leading term "
        f"{_fmt_term(lt_g)}, {bound} (no p - t in the ideal guarantees "
        "termination); declare a prime"
    )


def generic_initial_reduce(basis: StandardBasis) -> StandardBasis:
    """Initially reduce a minimal standard basis without a declared prime.

    Element by element, repeatedly eliminates the element's greatest
    reducible skeleton tail term against the first other element whose
    leading term divides it (whole-coefficient elimination against monic
    reducers, single-term subtraction otherwise); unit t-content is stripped
    after every step.
    Termination is not guaranteed in this regime, so the loop is bounded by
    a t-degree limit and by ``division.STEP_CAP``; ``InredDiverged`` names
    the bound that tripped.
    """
    ord_ = basis.ordering
    elems = list(minimize(basis).elements)
    # Divergence in this regime shows up as unbounded t-degree growth (each
    # pass trades a tail term for higher t-powers); catching it by degree
    # keeps the failure fast and diagnosable instead of grinding toward the
    # step cap on ever-larger polynomials.
    degree_limit = 32 + 8 * max(
        (t.exp[0] for g in elems for t in g.terms), default=0)
    # Leading terms never change (checked after every step), and whether an
    # element has a reducible skeleton term depends only on that element and
    # the leading terms, so one pass over the elements finishes the job.
    lts = [leading_term(ord_, g) for g in elems]
    steps = 0
    for i, lt_g in enumerate(lts):
        while hit := next(((term, j) for term, j in _reducible_tail(ord_, elems[i], lt_g, lts)
                           if j != i), None):
            term, j = hit
            g = strip_unit_t_content(
                _eliminate_tail(ord_, elems[i], lt_g, term, elems[j], lts[j]))
            assert leading_term(ord_, g) == lt_g, \
                "initial reduction must preserve leading terms"
            elems[i] = g
            steps += 1
            degree = max(t.exp[0] for t in g.terms)
            if degree > degree_limit:
                raise _diverged(ord_, term, lt_g,
                                f"its t-degree reached {degree}, past the "
                                f"t-degree limit {degree_limit}")
            if steps > division.STEP_CAP:
                raise _diverged(ord_, term, lt_g,
                                f"the reduction passed {division.STEP_CAP} "
                                "elimination steps")
    return sorted_basis(ord_, elems)


def is_initially_reduced(ord_: MonomialOrdering, elements: Sequence[Polynomial]) -> bool:
    """Minimal, and no skeleton tail term lies under any leading term."""
    elems = [g for g in elements]
    if any(g.is_zero for g in elems):
        return False
    lts = [leading_term(ord_, g) for g in elems]
    for i, lt in enumerate(lts):
        if any(j != i and term_divides(lts[j], lt) for j in range(len(lts))):
            return False
    for g, lt_g in zip(elems, lts):
        for term in t_skeleton(g).terms:
            if term.exp == lt_g.exp:
                continue
            if any(term_divides(lt, term) for lt in lts):
                return False
    return True


def ensure_initially_reduced(ord_: MonomialOrdering, elements: Sequence[Polynomial],
                             prime: int | None = None) -> StandardBasis:
    """Minimal initially reduced standard basis of <elements> w.r.t. ord_.

    The one entry from generators: checks the generators by ``Ideal``'s
    rules, computes a strong standard basis, then hands it to
    ``initially_reduce``.  A declared prime p requires p - t among the
    generators, the hypothesis under which initial reduction terminates;
    without it ``InvalidInput`` is raised before any completion, even when
    p - t lies in the ideal.
    """
    gens = tuple(f for f in elements if not f.is_zero)
    if not gens:
        raise InvalidInput("empty generating set")
    Ideal(gens, gens[0].nvars, prime)
    return initially_reduce(standard_basis(ord_, gens), prime)
