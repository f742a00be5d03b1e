"""Initial reduction of standard bases.

A basis element g = sum g_alpha(t) x^alpha has a t-skeleton: the t-minimal
term of each Z[t]-coefficient.  A standard basis is *initially reduced* when
it is minimal and no tail term of any element's skeleton is term-divisible by
a basis leading term.  That is the exact property needed to read the
Groebner cone off the basis; full tail reduction would in general produce
power series, initial reduction keeps everything polynomial.  Two regimes:

* prime regime: the ideal contains p - t for a declared prime p, and
  initial reduction terminates unconditionally: (p - t)-reduction of single
  elements, mutual reduction of an equal-x-degree block (two triangular
  passes), cross-degree reduction against lower strata one reducible
  skeleton term at a time, and a driver that walks x-degrees bottom up.
  After each cross-degree step the block's views are divided by their
  Z[[t]]-unit content (the guard of ``_reduce_stratum``); a block with no
  such step is left as its two passes leave it.

* generic regime: ``generic_initial_reduce`` chases skeleton tail terms
  directly.  Termination is not guaranteed without p - t; a t-degree limit
  (and, behind it, the fixed ``division.STEP_CAP``) turns divergence into
  ``InredDiverged``.  Dividing out Z[[t]]-unit content after each
  elimination resolves the common benign loops (for example a pair like
  {x + t*y, y + t*x} reduces to {x, y} instead of cycling).

Both regimes compute on Z[t]-coefficient views, the dicts
``{alpha: [(beta, c), ...]}`` of ``t_coefficients`` (betas ascending, no
key for a vanished x-monomial), each with its leading term carried beside
it, since no reduction step moves a leading term.  ``_cross_eliminate``
makes every combination of two views and ``_reducible_tail`` finds
reducible skeleton tail terms, keying only those.

One path leads into either driver: normalised (leading term, view) pairs,
cut down by the regime's rule on leading terms (``_rule``, built on
``division.minimal``) before any element is built.
``ensure_initially_reduced``, the entry from generators, applies
``Ideal``'s rule that a declared prime p needs p - t among the generators
(so membership of p - t is never decided by a normal form) and takes the
pairs of the completion up to the units of Z_(p) (``standard_basis_views``
with the prime), whose leading coefficients the prime driver's Bezout step
makes monic.  ``initially_reduce``, the entry from a known standard basis,
completes nothing and normalises the views it makes.  A view becomes a
polynomial once, when it is returned.  ``p_reduce``, ``inred_same_degree`` and
``inred_step_by_step`` take polynomials through ``_views``, whose rule
checks name the rule, the element's position and its leading exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import add, itemgetter, sub
from typing import Sequence

from . import division
from .division import StandardBasis, first_of_equal, minimal, sorted_basis, standard_basis_views
from .errors import InredDiverged, InvalidInput
from .exact import extended_gcd, is_prime, p_valuation
from .poly import (
    Ideal,
    MonomialOrdering,
    Polynomial,
    Term,
    exp_divides,
    from_t_coefficients,
    leading_term,
    p_minus_t,
    record_leading_term,
    strip_unit_t_content_view,
    t_coefficients,
    t_skeleton,
    term_div,
    term_divides,
    view_terms,
)


@dataclass(frozen=True)
class InredContext:
    """Prime-regime parameters: the uniformising prime and the ordering."""

    p: int
    ord: MonomialOrdering

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidInput(f"{self.p} is not prime")


# --- views: {alpha: [(beta, c), ...]}, the leading term carried beside ------


def _fault(what: str, i: int, lm, rule: str) -> InvalidInput:
    """The error for element i, leading exponent lm, of the list ``what``."""
    return InvalidInput(f"{what} element {i} (leading exponent {lm}) must {rule}")


def _views(ord_, F: Sequence[Polynomial], what: str) -> list[tuple[Term, dict]]:
    """The (leading term, view) pairs of nonzero x-homogeneous polynomials."""
    pairs = []
    for i, f in enumerate(F):
        if f.is_zero:
            raise InvalidInput(f"{what} element {i} must be nonzero")
        lt = leading_term(ord_, f)
        view = t_coefficients(f)
        if len({sum(a) for a in view}) > 1:
            raise _fault(what, i, lt.exp, "be x-homogeneous")
        pairs.append((lt, view))
    return pairs


def _polynomials(ord_, views, lms) -> list[Polynomial]:
    """The polynomials of reduced views, keeping 1*x^lm: the block rules
    check that term, and no reduction step moves it."""
    return [record_leading_term(ord_, from_t_coefficients(v), Term(1, lm))
            for v, lm in zip(views, lms)]


def _term_mul(view: dict, e) -> dict:
    """The view times the monomial t^e[0] * x^e[1:]."""
    b0, a0 = e[0], e[1:]
    return {tuple(map(add, a, a0)): [(b + b0, c) for b, c in tp] for a, tp in view.items()}


def _cross_eliminate(g: dict, c_g, h: dict, c_h, beta: int) -> dict:
    """The view of c_h(t)/t^beta * g - c_g(t)/t^beta * h.

    c_g and c_h are Z[t]-coefficients that t^beta divides.  Taken at the
    x-monomial being cleared, with h's leading term at t^beta in c_h, they
    leave no term there.  This is every combination of two views in initial
    reduction: the eliminations of both regimes and the prime Bezout step.
    """
    u = [(b - beta, c) for b, c in c_h]
    v = [(b - beta, -c) for b, c in c_g]
    out = {}
    for alpha in {**g, **h}:
        acc: dict[int, int] = {}
        for f, m in ((g, u), (h, v)):
            for b1, c1 in f.get(alpha, ()):
                for b2, c2 in m:
                    acc[b1 + b2] = acc.get(b1 + b2, 0) + c1 * c2
        tp = sorted([bc for bc in acc.items() if bc[1]])
        if tp:
            out[alpha] = tp
    return out


def _reducible_tail(ord_, view, lm, lts):
    """Yield (key, term, j) for each skeleton tail term of a view, greatest
    first, and each ``lts[j]`` that term-divides it; ``lm`` is the view's
    leading exponent.  Only these terms are keyed."""
    hits = []
    for a, tp in view.items():
        term = Term(tp[0][1], (tp[0][0],) + a)
        js = [j for j, lt in enumerate(lts) if term_divides(lt, term)] if a != lm[1:] else ()
        if js:
            hits.append((ord_.key(term.exp), term, js))
    hits.sort(key=itemgetter(0), reverse=True)
    for k, term, js in hits:
        for j in js:
            yield k, term, j


# --- prime regime ------------------------------------------------------------


def _p_reduce_view(p: int, view: dict, gamma) -> None:
    """``p_reduce`` on a view, in place; gamma is the leading x-monomial.

    An x-monomial whose coefficient the lifts cancel entirely loses its key.
    """
    for alpha, tp in list(view.items()):
        if alpha == gamma or tp[0][1] % p:
            continue
        coeff = dict(tp)
        while coeff and coeff[min(coeff)] % p == 0:
            b = min(coeff)
            c = coeff.pop(b)
            l = p_valuation(c, p)
            v = coeff.pop(b + l, 0) + c // p**l
            if v:
                coeff[b + l] = v
        if coeff:
            view[alpha] = sorted(coeff.items())
        else:
            del view[alpha]


def p_reduce(ctx: InredContext, g: Polynomial) -> Polynomial:
    """Reduce g initially with respect to p - t.

    Each x-monomial but the leading one is settled on its own: while p
    divides the coefficient c of its lowest t-power t^b, c*t^b is traded for
    (c/p^l)*t^{b+l}, p^l the exact power of p in c (a multiple of p^l - t^l
    apart), merging with any term already at t^{b+l}.  Leading term and the
    ideal generated together with p - t are unchanged, and no tail term of
    the result's skeleton is divisible by p.  g must be nonzero and
    x-homogeneous.
    """
    ((lt, view),) = _views(ctx.ord, [g], "p_reduce")
    _p_reduce_view(ctx.p, view, lt.exp[1:])
    return from_t_coefficients(view)


def _check_monic(what: str, views, lms) -> None:
    """Coefficient 1 at each carried leading exponent."""
    for i, (v, lm) in enumerate(zip(views, lms)):
        if lm[1:] not in v or v[lm[1:]][0] != (lm[0], 1):
            raise _fault(what, i, lm, "have leading coefficient 1")


def _check_block_views(views, lms) -> None:
    """The block rules, on views with carried leading exponents: one
    x-degree, leading coefficient 1, and distinct leading x-monomials.
    ``_reduce_block`` checks them on entry and at every re-reduction."""
    d = sum(lms[0][1:])
    first: dict[tuple, int] = {}
    for i, lm in enumerate(lms):
        if sum(lm[1:]) != d:
            raise _fault("block", i, lm, f"have the block's x-degree {d}")
        j = first.setdefault(lm[1:], i)
        if j != i:
            raise _fault("block", i, lm,
                         f"have a leading x-monomial other than block element {j}'s")
    _check_monic("block", views, lms)


def _check_lower(g_views, g_lms, lms) -> None:
    """The lower-element rules against a block with leading exponents
    ``lms``: x-degree below the block's, no leading monomial dividing a block
    one, and leading coefficient 1."""
    d = sum(lms[0][1:])
    for j, g_lm in enumerate(g_lms):
        if sum(g_lm[1:]) >= d:
            raise _fault("lower", j, g_lm, f"have x-degree below the block's {d}")
        for i, lm in enumerate(lms):
            if exp_divides(g_lm, lm):
                raise _fault("block", i, lm, "lie outside the lower leading ideal; "
                             f"lower element {j}'s leading exponent {g_lm} divides it")
    _check_monic("lower", g_views, g_lms)


def _reduce_block(ctx: InredContext, views: list, lms: list) -> list[int]:
    """Reduce a block of views against itself and p - t, in place.

    Two triangular passes over the block ordered by decreasing leading
    monomial: the first eliminates the x-monomial of each leading term from
    all later elements, the second clears reducible skeleton terms of
    earlier elements against later leading terms.  Every combination is (p - t)-reduced immediately.
    Element i stays at position i; the returned positions list the block by
    decreasing leading monomial.
    """
    _check_block_views(views, lms)
    p = ctx.p
    for v, lm in zip(views, lms):
        _p_reduce_view(p, v, lm[1:])
    key = ctx.ord.key
    order = sorted(range(len(views)), key=lambda i: key(lms[i]), reverse=True)
    for n, i in enumerate(order):
        beta, alpha = lms[i][0], lms[i][1:]
        for j in order[n + 1:]:
            cj = views[j].get(alpha)
            if not cj:
                continue
            assert cj[0][0] >= beta, "t-divisibility guaranteed by ordering"
            views[j] = _cross_eliminate(views[j], cj, views[i], views[i][alpha], beta)
            _p_reduce_view(p, views[j], lms[j][1:])
    for n, i in enumerate(order):
        for j in order[n + 1:]:
            beta, alpha = lms[j][0], lms[j][1:]
            ci = views[i].get(alpha)
            if not ci or ci[0][0] < beta:
                continue
            views[i] = _cross_eliminate(views[i], ci, views[j], views[j][alpha], beta)
            _p_reduce_view(p, views[i], lms[i][1:])
    return order


def _reduce_stratum(ctx: InredContext, g_views, g_lms, views, lms) -> tuple:
    """``inred_step_by_step`` on views and leading exponents.

    Each step takes the greatest skeleton tail term of the block, below the
    term the previous step handled, that a lower leading term divides (the
    first such lower element is the reducer).  That element's multiple with
    this leading exponent joins the helpers, and the block is
    re-reduced, until no such term is left.  Lower leading coefficients are
    1, so only exponents matter.  Returns the block by decreasing leading
    monomial.

    The guard: after each such step every block view, but no helper, is
    divided by its Z[[t]]-unit content u(t), u(0) = 1
    (``strip_unit_t_content_view``).  u
    is a unit of Z[[t]], so the ideal is unchanged, and dividing by it
    keeps the lowest term of every Z[t]-coefficient, so the carried leading
    term 1*x^lm and the skeleton stay as they were.  Without it a valid
    change of basis can feed the re-reductions a common factor that each
    one multiplies up: on the fan of ``scaling_ideal(3, 2)``, started from
    generators completed up to units, the reduced strata reached 909-bit
    coefficients and t-degree 537 without it (69 and 41 with it), and the
    fan took 35 times as long.  A stratum with no cross-degree step, such
    as the same-degree derivation of the paper, is left untouched, and so
    are the elimination steps inside ``_reduce_block``: stripping there too
    cures the growth, but changes the reduced blocks of
    ``inred_same_degree`` that the paper's worked examples pin."""
    order = _reduce_block(ctx, views, lms)
    _check_lower(g_views, g_lms, lms)
    views, lms = [views[i] for i in order], [lms[i] for i in order]
    k = len(views)
    glts = [Term(1, g_lm) for g_lm in g_lms]
    below = None  # ordering key of the term the last step handled
    while True:
        hits = []
        for v, lm in zip(views[:k], lms[:k]):
            for key, term, j in _reducible_tail(ctx.ord, v, lm, glts):
                if below is None or key < below:
                    hits.append((key, term.exp, j))
                    break
        if not hits:
            return views[:k], lms[:k]
        below, s, j = max(hits)
        # an ordering is multiplicative, so this multiple's leading exponent is s
        mult = _term_mul(g_views[j], tuple(map(sub, s, g_lms[j])))
        assert s not in lms[k:]
        views.append(mult)
        lms.append(s)
        _reduce_block(ctx, views, lms)
        views[:k] = map(strip_unit_t_content_view, views[:k])


def inred_same_degree(ctx: InredContext, G: Sequence[Polynomial]) -> list[Polynomial]:
    """Initially reduce a block of equal x-degree against itself and p - t:
    ``inred_step_by_step`` with no lower elements.  Leading terms and the
    ideal generated with p - t are kept; the block comes back by decreasing
    leading monomial."""
    return inred_step_by_step(ctx, (), G)


def inred_step_by_step(ctx: InredContext, G: Sequence[Polynomial],
                       H: Sequence[Polynomial]) -> list[Polynomial]:
    """Cross-degree reduction of the block H against the lower elements G,
    one reducible skeleton term at a time (``_reduce_stratum``, on views
    made once); the block returns by decreasing leading monomial, [] if
    empty."""
    ord_ = ctx.ord
    block, lower = _views(ord_, H, "block"), _views(ord_, G, "lower")
    if not block:
        return []
    out = _reduce_stratum(ctx, [v for _, v in lower], [lt.exp for lt, _ in lower],
                          [v for _, v in block], [lt.exp for lt, _ in block])
    return _polynomials(ord_, *out)


def _rule(prime: int | None):
    """The regime's ``keep`` rule on leading terms: ``minimal``, or the prime
    drop, which drops an element if p divides its leading coefficient (p - t
    covers it) or ``minimal`` drops 1*x^lm, its Bezout step's, among the rest."""
    if prime is None:
        return minimal

    def keep(lts):
        units = [lt.coeff % prime != 0 for lt in lts]
        flags = iter(minimal([Term(1, lm) for (_, lm), u in zip(lts, units) if u]))
        return [u and next(flags) for u in units]
    return keep


def _initially_reduce(ord_, prime: int | None, pairs, known: dict) -> StandardBasis:
    """Reduce the normalised pairs that the regime's rule keeps, in place.
    Generic regime: ``generic_initial_reduce``, which reads ``known``.
    Prime regime: each element is made monic by a*g + b*x^lm*(p - t),
    a*lc + b*p = 1; of equal leading monomials the one whose terms sort
    first is kept, and the x-degree strata are reduced bottom up.  Each
    element is built once, keeping 1*x^lm, and p - t is always returned."""
    if prime is None:
        return generic_initial_reduce(ord_, pairs, known)
    ctx = InredContext(prime, ord_)
    monic = []
    for (lc, lm), view in pairs:
        if lc != 1:
            _, a, b = extended_gcd(lc, prime)
            pt = {lm[1:]: [(lm[0], prime), (lm[0] + 1, -1)]}
            view = _cross_eliminate(view, ((0, -b),), pt, ((0, a),), 0)
        monic.append((Term(1, lm), view))
    kept = {lt.exp: view for lt, view in first_of_equal(monic, view_terms).items()}
    views, lms = [], []
    for d in sorted({sum(lm[1:]) for lm in kept}):
        block = [lm for lm in kept if sum(lm[1:]) == d]
        new_views, new_lms = _reduce_stratum(ctx, views, lms, [kept[lm] for lm in block], block)
        views.extend(new_views)
        lms.extend(new_lms)
    n = ord_.nvars
    pt = record_leading_term(ord_, p_minus_t(prime, n), Term(prime, (0,) * (n + 1)))
    return StandardBasis(tuple(_polynomials(ord_, views, lms)) + (pt,), ord_)


def initially_reduce(basis: StandardBasis, prime: int | None = None) -> StandardBasis:
    """Minimal initially reduced standard basis from a known standard basis.

    ``basis`` must already be a standard basis w.r.t. its ordering, which
    the result keeps; nothing is completed again.  With a declared prime the
    ideal must contain p - t, which is not checked here.  The elements need
    not be normalised: their views are stripped of unit t-content and signed
    to a positive leading coefficient, as the completion's are; an element
    already normalised is ``known`` with its view.  The kept pairs go to
    the driver of the regime.
    """
    if not basis.elements:
        raise InvalidInput("empty standard basis")
    ord_, known, pairs = basis.ordering, {}, []
    for f, (lt, view) in zip(basis.elements, _views(ord_, basis.elements, "basis")):
        if lt.coeff < 0:
            lt, f = Term(-lt.coeff, lt.exp), None
            view = {a: [(b, -c) for b, c in tp] for a, tp in view.items()}
        normal = strip_unit_t_content_view(view)
        if f is not None and normal is view:
            known[lt] = (view, f)
        pairs.append((lt, normal))
    keep = _rule(prime)([lt for lt, _ in pairs])
    return _initially_reduce(ord_, prime, list(compress(pairs, keep)), known)


def _eliminate_tail(g: dict, term: Term, h: dict, lt_h: Term) -> dict:
    """One elimination of a reducible skeleton tail term of the view g
    against the view h, whose leading term ``lt_h`` term-divides ``term``.

    When h is monic, the whole Z[t]-coefficient of the offending x-monomial
    is cleared by cross-multiplication: (b/t^beta) * g minus (a/t^beta) *
    x^shift * h, where a and b are the Z[t]-coefficients of g and h at the
    relevant x-monomials.  The multiplier has unit leading term, so the
    ideal and the leading term are unchanged.  This is what finds polynomial
    reduced forms such as (1+t)*g - t*h where plain term-by-term subtraction
    would climb in t forever.  Reducers with bigger leading coefficients
    fall back to single-term subtraction, the same kernel with multipliers 1
    and the quotient term.
    """
    alpha, gamma = term.exp[1:], lt_h.exp[1:]
    shifted = _term_mul(h, (0,) + tuple(map(sub, alpha, gamma)))
    if lt_h.coeff == 1:
        return _cross_eliminate(g, g[alpha], shifted, h[gamma], lt_h.exp[0])
    m = term_div(term, lt_h)
    return _cross_eliminate(g, ((m.exp[0], m.coeff),), shifted, ((0, 1),), 0)


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


def generic_initial_reduce(ord_: MonomialOrdering, pairs, known: dict) -> StandardBasis:
    """Initial reduction without a declared prime, on the pairs that
    ``minimal`` keeps, one of equal leading terms (the one whose terms sort
    first).  In the order of ``sorted_basis``, each element's greatest
    reducible skeleton tail term is eliminated against the first other
    element whose leading term divides it (whole-coefficient elimination
    against monic reducers, single-term subtraction otherwise), and unit
    t-content stripped, until none is left; an element whose view is still
    the one ``known`` maps its leading term to is returned as the polynomial
    beside it.  Divergence is bounded by a t-degree limit and by
    ``division.STEP_CAP``; ``InredDiverged`` names the bound that tripped.
    """
    kept = first_of_equal(pairs, view_terms)
    # the terms only break ties of leading monomial, which few bases have
    ties = len({lt.exp for lt in kept}) < len(kept)
    key = ord_.key
    lts = sorted(kept, key=lambda lt: (key(lt.exp), ties and view_terms(kept[lt])), reverse=True)
    views = [kept[lt] for lt in lts]
    # Divergence in this regime shows up as unbounded t-degree growth (each
    # pass trades a tail term for higher t-powers); catching it by degree
    # keeps the failure fast and diagnosable instead of grinding toward the
    # step cap on ever-larger polynomials.
    degree_limit = 32 + 8 * max(tp[-1][0] for v in views for tp in v.values())
    # Leading terms never change (checked on each element's view), and
    # whether an element has a reducible skeleton term depends only on that
    # element and the leading terms, so one pass over the elements finishes
    # the job.
    steps = 0
    for i, lt_g in enumerate(lts):
        while hit := next(((term, j) for _, term, j in _reducible_tail(
                ord_, views[i], lt_g.exp, lts) if j != i), None):
            term, j = hit
            v = views[i] = strip_unit_t_content_view(
                _eliminate_tail(views[i], term, views[j], lts[j]))
            steps += 1
            degree = max(tp[-1][0] for tp in v.values())
            if degree > degree_limit:
                raise _diverged(ord_, term, lt_g,
                                f"its t-degree reached {degree}, past the "
                                f"t-degree limit {degree_limit}")
            if steps > division.STEP_CAP:
                raise _diverged(ord_, term, lt_g,
                                f"the reduction passed {division.STEP_CAP} "
                                "elimination steps")
        tp = views[i].get(lt_g.exp[1:])
        assert tp and tp[0] == (lt_g.exp[0], lt_g.coeff), \
            "initial reduction must preserve leading terms"
    elems = []
    for lt, v in zip(lts, views):
        view, f = known.get(lt, (None, None))
        f = f if view is v else from_t_coefficients(v)
        elems.append(record_leading_term(ord_, f, lt))
    return sorted_basis(ord_, elems)


def is_initially_reduced(ord_: MonomialOrdering, elements: Sequence[Polynomial]) -> bool:
    """Minimal, and no skeleton tail term lies under any leading term."""
    elems = list(elements)
    if any(g.is_zero for g in elems):
        return False
    lts = [leading_term(ord_, g) for g in elems]
    if any(i != j and term_divides(a, b) for i, a in enumerate(lts) for j, b in enumerate(lts)):
        return False
    return not any(term.exp != lt_g.exp and any(term_divides(lt, term) for lt in lts)
                   for g, lt_g in zip(elems, lts) for term in t_skeleton(g).terms)


def ensure_initially_reduced(ord_: MonomialOrdering, elements: Sequence[Polynomial],
                             prime: int | None = None) -> StandardBasis:
    """Minimal initially reduced standard basis of <elements> w.r.t. ord_.

    The one entry from generators: checks the generators by ``Ideal``'s
    rules, completes with the regime's rule as the ``keep`` flag, so no
    dropped element is unpacked, and reduces the completion's pairs.  A
    declared prime p requires p - t among the generators, the hypothesis
    under which initial reduction terminates; without it ``InvalidInput`` is
    raised before any completion, even when p - t lies in the ideal.  With
    it the completion runs up to the units of Z_(p), and the leading terms
    come out as from the completion over Z (``standard_basis_views``).
    """
    gens = tuple(f for f in elements if not f.is_zero)
    if not gens:
        raise InvalidInput("empty generating set")
    Ideal(gens, gens[0].nvars, prime)
    return _initially_reduce(ord_, prime, standard_basis_views(ord_, gens, _rule(prime), prime), {})
