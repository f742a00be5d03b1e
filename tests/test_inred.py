import random
from itertools import combinations_with_replacement, islice

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

import tfan.fan
import tfan.inred
from tfan import (
    InredContext,
    InredDiverged,
    InvalidInput,
    MonomialOrdering,
    Polynomial,
    StandardBasis,
    ensure_initially_reduced,
    groebner_fan,
    initially_reduce,
    inred_same_degree,
    inred_step_by_step,
    is_initially_reduced,
    leading_term,
    lex_ordering,
    minimize,
    p_reduce,
    standard_basis,
    t_skeleton,
    weighted_ordering,
)
from tfan.cli import parse_problem
from tfan.cone import GroebnerCone, cone_from_basis
from tfan.division import sorted_basis, standard_basis_views
from tfan.exact import extended_gcd, p_valuation
from tfan.inred import _p_reduce_view
from tfan.poly import (
    Term,
    exp_divides,
    from_t_coefficients,
    initial_forms_at,
    is_x_homogeneous,
    p_minus_t,
    strip_unit_t_content,
    t_coefficients,
    term_divides,
    tpoly_min_beta,
    tpoly_shift,
    x_degree,
)

from helpers import (
    P,
    XY,
    XYZ,
    bench_modules,
    mul_tpoly,
    normalize_element,
    polys,
    prime_benchmark_cones,
    random_prime_ideal,
    t_coefficient,
)

X123 = ["x1", "x2", "x3"]


def ctx123(p=2):
    return InredContext(p, weighted_ordering((-1, 1, 1, 1), 3))


class TestPReduce:
    def test_golden_value(self):
        g = P("x1^2 - t^2*x1^2 - 2*t^2*x3^2 - t^3*x3^2", X123)
        out = p_reduce(ctx123(), g)
        assert out == P("x1^2 - t^2*x1^2 - t^4*x3^2", X123)

    def test_untouched_without_p_divisible_tail(self):
        g = P("x1^2 + t*x2^2 - t^2*x3^2", X123)
        assert p_reduce(ctx123(), g) == g

    def test_small_trace(self):
        ctx = InredContext(2, weighted_ordering((-1, 1, 1), 2))
        assert p_reduce(ctx, P("x + 2*t*y", XY)) == P("x + t^2*y", XY)

    def test_preserves_leading_term_and_ideal(self):
        ctx = ctx123()
        rng = random.Random(4)
        pt = P("2 - t", X123)
        for _ in range(20):
            terms = [(rng.choice([-4, -2, -1, 1, 2, 3]),
                      (rng.randint(0, 3), 2 - d, d, 0))
                     for d in (0, 1, 2) for _ in range(rng.randint(0, 2))]
            g = Polynomial.from_terms(terms)
            if g.is_zero:
                continue
            out = p_reduce(ctx, g)
            assert leading_term(ctx.ord, out) == leading_term(ctx.ord, g)
            diff = g - out
            if not diff.is_zero:
                # g - g' is a Z[t,x]-multiple of 2 - t: substituting t -> 2 kills it
                assert _substitute_t(diff, 2).is_zero


def p_reduce_oracle(ctx, g):
    """The top-down walk over all tail terms: the oracle for ``p_reduce``.

    Repeatedly takes the greatest remaining term outside the leading
    x-monomial.  When p divides its coefficient it is lifted, c*t^b ->
    (c/p^l)*t^{b+l}, by polynomial arithmetic; otherwise the whole
    Z[t]-coefficient of its x-monomial is kept as it stands.
    """
    ord_, p = ctx.ord, ctx.p
    gamma = leading_term(ord_, g).exp[1:]
    done = [(c, e) for c, e in g.terms if e[1:] == gamma]
    work = Polynomial(tuple(t for t in g.terms if t.exp[1:] != gamma))
    while work:
        top = leading_term(ord_, work)
        if top.coeff % p == 0:
            l = p_valuation(top.coeff, p)
            lifted = (top.exp[0] + l,) + top.exp[1:]
            work = work - Polynomial.term(top.coeff, top.exp) \
                        + Polynomial.term(top.coeff // p**l, lifted)
        else:
            alpha = top.exp[1:]
            done.extend((c, e) for c, e in work.terms if e[1:] == alpha)
            work = Polynomial(tuple(t for t in work.terms if t.exp[1:] != alpha))
    return Polynomial.from_terms(done)


@st.composite
def p_reduce_inputs(draw):
    """An x-homogeneous polynomial in 1-3 variables with coefficients
    u * p^k (k = 0..3) and t-powers 0-4, so lifts land on existing terms,
    merge with them and cancel; plus a prime and a weight."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 2))
    p = draw(st.sampled_from([2, 3, 5]))
    alphas = [tuple(combo.count(v) for v in range(n))
              for combo in combinations_with_replacement(range(n), d)]
    terms = draw(st.lists(st.tuples(st.sampled_from([-2, -1, 1, 2, 3]), st.integers(0, 3),
                                    st.integers(0, 4), st.sampled_from(alphas)),
                          min_size=1, max_size=10))
    g = Polynomial.from_terms([(u * p**k, (b,) + a) for u, k, b, a in terms])
    weight = (draw(st.integers(-3, -1)),) + tuple(draw(st.lists(st.integers(-2, 2),
                                                                min_size=n, max_size=n)))
    return p, n, g, weight


@seed(8)
@settings(max_examples=200, deadline=None)
@given(p_reduce_inputs())
def test_p_reduce_matches_top_down_oracle(case):
    p, n, g, weight = case
    assume(not g.is_zero)
    for ord_ in (weighted_ordering(weight, n), lex_ordering(n)):
        ctx = InredContext(p, ord_)
        assert p_reduce(ctx, g) == p_reduce_oracle(ctx, g)


def _substitute_t(f, val):
    acc = {}
    for c, e in f.terms:
        key = (0,) + e[1:]
        acc[key] = acc.get(key, 0) + c * val ** e[0]
    return Polynomial.from_terms([(c, e) for e, c in acc.items()])


class TestSameDegree:
    def test_already_reduced_pair_unchanged(self):
        ctx = InredContext(2, weighted_ordering((-1, 3, 3, 3), 3))
        G = polys(XYZ, "x - t^3*x + t^3*z - t^4*z", "y - t^3*y + t^2*z - t^4*z")
        assert set(inred_same_degree(ctx, G)) == set(G)

    def test_worked_three_element_block(self):
        # independent oracle: replay the row operations in exact arithmetic
        ctx = ctx123()
        g1 = P("x1^2 + t*x2^2 - t^2*x3^2", X123)
        g2 = P("x2^2 + t*x1^2 + t*x3^2 + t^2*x3^2", X123)
        g3 = P("t^3*x3^2 + t^4*x1^2 + t^4*x2^2 + t^5*x2^2", X123)
        expected = _replay_row_operations(g1, g2, g3)
        out = inred_same_degree(ctx, [g1, g2, g3])
        assert out == expected
        assert out == list(polys(
            X123,
            "x1^2 - 3*t^2*x1^2 + t^4*x1^2 - t^5*x1^2 + t^6*x1^2 + t^7*x1^2",
            "x2^2 - t^2*x2^2 + t*x3^2 + t^2*x3^2 + t^3*x3^2",
            "t^3*x3^2 - 2*t^5*x3^2 - t^7*x3^2 - t^8*x3^2",
        ))

    def test_singleton_is_p_reduce(self):
        ctx = ctx123()
        g = P("x1^2 - t^2*x1^2 - 2*t^2*x3^2 - t^3*x3^2", X123)
        assert inred_same_degree(ctx, [g]) == [p_reduce(ctx, g)]

    def test_rejects_non_monic(self):
        ctx = ctx123()
        with pytest.raises(InvalidInput):
            inred_same_degree(ctx, polys(X123, "2*x1^2"))


# One row per precondition rule and entry point: the entry point, its
# polynomial arguments (after the context) and a fragment of the message.
REJECTIONS = [
    (p_reduce, ["0"],
     "p_reduce element 0 must be nonzero"),
    (p_reduce, ["x1^2 + x2"],
     "p_reduce element 0 (leading exponent (0, 2, 0, 0)) must be x-homogeneous"),
    (inred_same_degree, [["x1^2", "0"]],
     "block element 1 must be nonzero"),
    (inred_same_degree, [["x1^2", "x2 + t*x3"]],
     "block element 1 (leading exponent (0, 0, 1, 0)) must have the block's x-degree 2"),
    (inred_same_degree, [["x1^2", "x2^2 + x3"]],
     "block element 1 (leading exponent (0, 0, 2, 0)) must be x-homogeneous"),
    (inred_same_degree, [["2*x1^2"]],
     "block element 0 (leading exponent (0, 2, 0, 0)) must have leading coefficient 1"),
    (inred_same_degree, [["x1^2", "t*x1^2 + t^2*x2^2"]],
     "block element 1 (leading exponent (1, 2, 0, 0)) must have a leading x-monomial "
     "other than block element 0's"),
    (inred_same_degree, [["x1^2", "x1^2 + t*x2^2"]],
     "block element 1 (leading exponent (0, 2, 0, 0)) must have a leading x-monomial "
     "other than block element 0's"),
    (inred_step_by_step, [["0"], ["x2^2"]],
     "lower element 0 must be nonzero"),
    (inred_step_by_step, [["x1^2"], ["x2^2"]],
     "lower element 0 (leading exponent (0, 2, 0, 0)) must have x-degree below the block's 2"),
    (inred_step_by_step, [["2*x1"], ["x2^2"]],
     "lower element 0 (leading exponent (0, 1, 0, 0)) must have leading coefficient 1"),
    (inred_step_by_step, [["x1 + x2^2"], ["x3^2"]],
     "lower element 0 (leading exponent (0, 0, 2, 0)) must be x-homogeneous"),
    (inred_step_by_step, [["x2", "x1"], ["x2^2", "x1^2 + t*x3^2"]],
     "block element 0 (leading exponent (0, 0, 2, 0)) must lie outside the lower leading "
     "ideal; lower element 0's leading exponent (0, 0, 1, 0) divides it"),
]


@pytest.mark.parametrize("entry, args, message", REJECTIONS)
def test_rejection_names_rule_position_and_leading_exponent(entry, args, message):
    args = [P(a, X123) if isinstance(a, str) else [P(f, X123) for f in a] for a in args]
    with pytest.raises(InvalidInput) as err:
        entry(ctx123(), *args)
    assert message in str(err.value)


def test_empty_block_is_already_reduced():
    ctx = ctx123()
    assert inred_same_degree(ctx, []) == []
    assert inred_step_by_step(ctx, [], []) == []
    assert inred_step_by_step(ctx, polys(X123, "x1"), []) == []


def _replay_row_operations(g1, g2, g3):
    """The two-pass elimination, written directly in polynomial arithmetic."""
    t = lambda k: ((k, 1),)
    # first pass
    g2 = g2 - mul_tpoly(g1, t(1))
    g3 = g3 - mul_tpoly(g1, t(4))
    g3 = mul_tpoly(g3, ((0, 1), (2, -1))) - mul_tpoly(g2, t(4))
    # second pass: g1 against g2, then (2 - t)-reduce, then against g3
    g1 = mul_tpoly(g1, ((0, 1), (2, -1))) - mul_tpoly(g2, t(1))
    two_minus_t = Polynomial.from_terms([(2, (0, 0, 0, 0)), (-1, (1, 0, 0, 0))])
    g1 = g1 - two_minus_t * Polynomial.from_terms([(-1, (2, 0, 0, 2)), (-1, (3, 0, 0, 2))])
    g1 = mul_tpoly(g1, ((0, 1), (2, -2), (4, -1), (5, -1))) + mul_tpoly(g3, t(1))
    return [g1, g2, g3]


# --- the polynomial loop: the oracle of the view kernel ------------------------
#
# The block reduction written on ``Polynomial`` values, sharing no arithmetic
# with the view kernel: every combination is two ``mul_tpoly`` products and a
# subtraction, every coefficient is looked up afresh, and the leading terms
# are searched again after every re-reduction.


def old_cross_eliminate(g, c_g, h, c_h, beta):
    """c_h(t)/t^beta * g - c_g(t)/t^beta * h, by polynomial arithmetic."""
    return mul_tpoly(g, tpoly_shift(c_h, -beta)) - mul_tpoly(h, tpoly_shift(c_g, -beta))


def _check_block(ord_, G):
    """The block preconditions, written on polynomials."""
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


def _check_cross(ord_, G, H):
    """The block and lower-element preconditions, written on polynomials;
    the block's x-degree."""
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


def old_inred_same_degree(ctx, G):
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
            assert tpoly_min_beta(cj) >= beta[i]
            g[j] = p_reduce(ctx, old_cross_eliminate(g[j], cj, g[i], ci, beta[i]))
    for i in range(k):
        for j in range(i + 1, k):
            ci = t_coefficient(g[i], alpha[j])
            if not ci or tpoly_min_beta(ci) < beta[j]:
                continue
            cj = t_coefficient(g[j], alpha[j])
            g[i] = p_reduce(ctx, old_cross_eliminate(g[i], ci, g[j], cj, beta[j]))
    return g


def _split_by_lm(ord_, combined, h_lms, e_lms):
    by_lm = {leading_term(ord_, f).exp: f for f in combined}
    return [by_lm[lm] for lm in h_lms], [by_lm[lm] for lm in e_lms]


def old_reducible_tail(ord_, f, lt_f, lts):
    tail = sorted((t for t in t_skeleton(f).terms if t.exp != lt_f.exp),
                  key=lambda t: ord_.key(t.exp), reverse=True)
    for term in tail:
        for j, lt in enumerate(lts):
            if term_divides(lt, term):
                yield term, j


def old_inred_step_by_step(ctx, G, H):
    ord_ = ctx.ord
    if not G:
        return old_inred_same_degree(ctx, H)
    _check_cross(ord_, G, H)
    h = old_inred_same_degree(ctx, H)
    h_lts = [leading_term(ord_, f) for f in h]
    h_lms = [lt.exp for lt in h_lts]
    glts = [leading_term(ord_, g) for g in G]
    E, e_lms = [], []
    below = None
    while True:
        hits = []
        for f, lt_f in zip(h, h_lts):
            for term, j in old_reducible_tail(ord_, f, lt_f, glts):
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
        h, E = _split_by_lm(ord_, old_inred_same_degree(ctx, h + E), h_lms, e_lms)
        # the cross-degree guard: each block element loses its Z[[t]]-unit content
        h = [strip_unit_t_content(f) for f in h]


def inred_all_at_once(ctx, G, H):
    """Cross-degree reduction by brute force: the oracle for
    ``inred_step_by_step``.

    Every x-monomial of the block's degree that is reachable from a lower
    leading term gets one minimal-t multiple of a lower element up front;
    the enlarged block then goes through ``inred_same_degree`` once.
    """
    ord_ = ctx.ord
    if not G:
        return inred_same_degree(ctx, H)
    d = _check_cross(ord_, G, H)
    n = H[0].nvars
    E = []
    for combo in combinations_with_replacement(range(n), d):
        alpha = [0] * n
        for v in combo:
            alpha[v] += 1
        alpha = tuple(alpha)
        best = None
        for g in G:
            lt = leading_term(ord_, g)
            if exp_divides(lt.exp[1:], alpha) and (best is None or lt.exp[0] < best[0]):
                best = (lt.exp[0], g, lt)
        if best is not None:
            _, g, lt = best
            E.append(g.term_mul(1, (0,) + tuple(a - b for a, b in zip(alpha, lt.exp[1:]))))
    h_lms = [leading_term(ord_, h).exp for h in H]
    e_lms = [leading_term(ord_, e).exp for e in E]
    combined = inred_same_degree(ctx, list(H) + E)
    new_h, _ = _split_by_lm(ord_, combined, h_lms, e_lms)
    return new_h


class TestCrossDegree:
    def test_all_at_once_empty_lower(self):
        ctx = ctx123()
        H = polys(X123, "x1^2 + t*x2^2 - t^2*x3^2")
        assert inred_all_at_once(ctx, [], H) == inred_same_degree(ctx, H)

    def test_all_at_once_eliminates_lower_multiples(self):
        ctx = InredContext(2, weighted_ordering((-1, 1, 1), 2))
        out = inred_all_at_once(ctx, polys(XY, "x"), polys(XY, "y^2 + t*x*y"))
        assert out == [P("y^2", XY)]

    def test_step_by_step_empty_lower(self):
        ctx = ctx123()
        H = polys(X123, "x1^2 + t*x2^2 - t^2*x3^2")
        assert inred_step_by_step(ctx, [], H) == inred_same_degree(ctx, H)

    def test_step_by_step_no_reducible_tail(self):
        ctx = InredContext(2, weighted_ordering((-1, 1, 1), 2))
        G = polys(XY, "x^2 - t^3*y^2")
        H = polys(XY, "x*y^2 - t^2*y^3")
        assert inred_step_by_step(ctx, G, H) == list(H)

    def test_cross_oracle_between_strategies(self):
        ctx = InredContext(2, weighted_ordering((-1, 1, 1), 2))
        rng = random.Random(13)
        for _ in range(10):
            G = [P("x", XY)]
            terms = [(rng.choice([-3, -1, 1, 3]), (rng.randint(0, 2), a, 2 - a))
                     for a in (0, 1) for _ in range(rng.randint(0, 2))]
            h = Polynomial.from_terms(terms) + P("y^2", XY)
            if leading_term(ctx.ord, h) != (1, (0, 0, 2)):
                continue  # block leading monomial must stay y^2, outside <x>
            lazy = inred_step_by_step(ctx, G, [h])
            brute = inred_all_at_once(ctx, G, [h])
            assert [leading_term(ctx.ord, f) for f in lazy] == \
                   [leading_term(ctx.ord, f) for f in brute]
            for out in (lazy, brute):
                full = list(out) + G + [p_minus_t(ctx.p, 2)]
                assert is_initially_reduced(ctx.ord, full)


# --- the view kernel against the polynomial loop ------------------------------


def test_p_reduction_that_empties_an_x_monomial_drops_its_key():
    # 2*x2^2 - t*x2^2 lifts to (1 - 1)*t*x2^2: the whole coefficient cancels
    ctx = ctx123()
    g = P("x1^2 + 2*x2^2 - t*x2^2", X123)
    assert inred_same_degree(ctx, [g]) == [P("x1^2", X123)]
    assert old_inred_same_degree(ctx, [g]) == [P("x1^2", X123)]
    view = t_coefficients(g)
    _p_reduce_view(2, view, (2, 0, 0))
    assert view == {(2, 0, 0): ((0, 1),)}


def _monic(draw, ord_, p, alphas, lm):
    """lm with coefficient 1 plus up to six smaller terms at the given
    x-monomials, with coefficients u * p^k so that p-reduction lifts them."""
    terms = draw(st.lists(st.tuples(st.sampled_from([-2, -1, 1, 2, 3]), st.integers(0, 2),
                                    st.integers(0, 3), st.sampled_from(alphas)),
                          max_size=6))
    key = ord_.key
    return Polynomial.from_terms([(1, lm)] + [
        (u * p**k, (b,) + a) for u, k, b, a in terms if key((b,) + a) < key(lm)])


def _alphas(n, d):
    return [tuple(combo.count(v) for v in range(n))
            for combo in combinations_with_replacement(range(n), d)]


@st.composite
def prime_blocks(draw):
    """A prime, an ordering, an initially reduced lower stratum of x-degree 1
    (possibly empty) and a block of x-degree 2 whose leading monomials are
    distinct in x and lie outside the lower leading ideal."""
    n = draw(st.integers(2, 3))
    p = draw(st.sampled_from([2, 3, 5]))
    weight = (draw(st.integers(-3, -1)),) + tuple(draw(st.lists(st.integers(-2, 2),
                                                                min_size=n, max_size=n)))
    ctx = InredContext(p, weighted_ordering(weight, n))
    lower = draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(_alphas(n, 1))),
                          max_size=n, unique_by=lambda e: e[1]))
    G = [_monic(draw, ctx.ord, p, _alphas(n, 1), (b,) + a) for b, a in lower]
    G = old_inred_same_degree(ctx, G)
    free = [(b,) + a for b in range(3) for a in _alphas(n, 2)
            if not any(exp_divides(leading_term(ctx.ord, g).exp, (b,) + a) for g in G)]
    assume(free)
    lms = draw(st.lists(st.sampled_from(free), min_size=1, max_size=3,
                        unique_by=lambda e: e[1:]))
    H = [_monic(draw, ctx.ord, p, _alphas(n, 2), lm) for lm in lms]
    return ctx, G, H


@seed(18)
@settings(max_examples=150, deadline=None)
@given(prime_blocks())
def test_view_kernel_matches_polynomial_loop(case):
    ctx, G, H = case
    assert inred_same_degree(ctx, H) == old_inred_same_degree(ctx, H)
    out = inred_step_by_step(ctx, G, H)
    assert out == old_inred_step_by_step(ctx, G, H)
    n = H[0].nvars
    assert is_initially_reduced(ctx.ord, out + G + [p_minus_t(ctx.p, n)])


def poly_initially_reduce(basis, prime, step=old_inred_step_by_step):
    """The prime regime of ``initially_reduce`` written on polynomials: the
    oracle of the driver on (leading term, view) pairs.  It drops on
    searched leading terms, Bezout-normalises the survivors by polynomial
    arithmetic, minimises with ``minimize`` and reduces each stratum with
    ``step``, the polynomial loop unless a test passes a counted one.  The
    elements are copied first, so no leading term kept on them is used."""
    ord_ = basis.ordering
    ctx = InredContext(prime, ord_)
    pt = p_minus_t(prime, basis.elements[0].nvars)
    elems = [Polynomial(g.terms) for g in basis.elements]
    lts = [leading_term(ord_, g) for g in elems]
    lms = {lm for lc, lm in lts if lc % prime}
    monic = []
    for g, (lc, lm) in zip(elems, lts):
        if lc % prime == 0 or any(m != lm and exp_divides(m, lm) for m in lms):
            continue
        if lc != 1:
            _, a, b = extended_gcd(lc, prime)
            g = g * a + pt.term_mul(b, lm)
            assert leading_term(ord_, g) == (1, lm)
        monic.append(g)
    strata = {}
    for g in minimize(StandardBasis(tuple(monic), ord_)).elements:
        strata.setdefault(x_degree(g), []).append(g)
    done = []
    for d in sorted(strata):
        done.extend(step(ctx, done, strata[d]))
    return StandardBasis(tuple(done) + (pt,), ord_)


def completion_up_to_units(ord_, gens, prime):
    """The completion that ``ensure_initially_reduced`` reduces, up to the
    units of Z_(p), as a basis of polynomials."""
    views = standard_basis_views(ord_, gens, prime=prime)
    return StandardBasis(tuple(from_t_coefficients(v) for _, v in views), ord_)


def test_view_kernel_matches_polynomial_loop_on_benchmark_cones(monkeypatch):
    """At one interior weight of each maximal cone of every prime-regime
    benchmark fan, initial reduction gives the same basis through the view
    driver as through the polynomial driver and loop on the same
    completion: from the standard basis over Z, and from the completion's
    pairs up to units."""
    calls = []

    def counted_old_inred_step_by_step(ctx, G, H):
        calls.append(len(H))
        return old_inred_step_by_step(ctx, G, H)

    cones = prime_benchmark_cones(monkeypatch, random.Random(18))
    for name, problem, w in cones:
        ord_ = MonomialOrdering((w,), problem.tiebreak)
        sb = standard_basis(ord_, problem.gens)
        made = len(calls)
        old = poly_initially_reduce(sb, problem.prime, counted_old_inred_step_by_step)
        # the oracle ran, so the comparison is not the new code against itself
        assert len(calls) > made, (name, w)
        assert initially_reduce(sb, problem.prime).elements == old.elements, (name, w)
        new = ensure_initially_reduced(ord_, problem.gens, problem.prime)
        units = completion_up_to_units(ord_, problem.gens, problem.prime)
        assert new.elements == poly_initially_reduce(units, problem.prime).elements, (name, w)
        assert is_initially_reduced(ord_, new.elements), (name, w)
    assert len(cones) == 42


def test_prime_driver_matches_polynomial_driver_on_random_ideals():
    """At the start weight and two random weights of seeded random prime
    ideals, both entries of the view driver give the polynomial driver's
    basis on the same completion: over Z from a known standard basis, up
    to units from the generators."""
    rng = random.Random(24)
    checked = 0
    for _ in range(16):
        ideal = random_prime_ideal(rng)
        n = ideal.nvars
        weights = [(-1,) + (1,) * n] + [
            (-rng.randint(1, 4),) + tuple(rng.randint(-3, 3) for _ in range(n))
            for _ in range(2)]
        for w in weights:
            ord_ = weighted_ordering(w, n)
            sb = standard_basis(ord_, ideal.gens)
            old = poly_initially_reduce(sb, ideal.prime)
            assert initially_reduce(sb, ideal.prime).elements == old.elements, (ideal, w)
            new = ensure_initially_reduced(ord_, ideal.gens, ideal.prime)
            units = completion_up_to_units(ord_, ideal.gens, ideal.prime)
            assert new.elements == poly_initially_reduce(units, ideal.prime).elements, (ideal, w)
            checked += 1
    assert checked == 48


def test_prime_driver_matches_polynomial_driver_on_lifted_bases(monkeypatch):
    """Along the whole fans of the prime-regime benchmark ideals and of
    seeded random prime ideals, every lifted basis that the traversal
    initially reduces gives the polynomial driver's basis."""
    checked = []
    original = tfan.fan.initially_reduce

    def checking(basis, prime):
        ord_ = basis.ordering
        old = poly_initially_reduce(StandardBasis(
            tuple(normalize_element(ord_, g) for g in basis.elements), ord_), prime)
        out = original(basis, prime)
        assert prime is not None and out.elements == old.elements
        checked.append(basis)
        return out

    monkeypatch.setattr(tfan.fan, "initially_reduce", checking)
    ideals = {problem.ideal(): problem.tiebreak
              for _, problem, _ in prime_benchmark_cones(monkeypatch, random.Random(24))}
    rng = random.Random(24)
    for _ in range(6):
        ideals[random_prime_ideal(rng)] = None
    cones = sum(len(groebner_fan(ideal, tiebreak=tiebreak).maximal_cones)
                for ideal, tiebreak in ideals.items())
    # every cone but each fan's start cone comes from a lifted basis
    assert len(checked) == cones - len(ideals)


def cone_key(basis):
    """The canonical key of the cone read off an initially reduced basis at
    its ordering's first weight."""
    w = basis.ordering.weights[0]
    hc = cone_from_basis(basis, initial_forms_at(w, basis.elements))
    return GroebnerCone(hc, basis).canonical_key()


def test_completion_up_to_units_gives_the_cones_of_the_completion_over_z(monkeypatch):
    """The cross-ring oracle of the unit rule.  At one seeded interior
    weight of each of the 42 prime benchmark cones, and at the start weight
    and two random weights of 16 seeded random prime ideals, the entry from
    generators (completion up to the units of Z_(p)) and initial reduction
    of the standard basis over Z give the same leading terms and the same
    cone, and both bases are initially reduced.  The two completions differ
    on some of these inputs, so neither side is the other."""
    cases = [(problem.gens, problem.prime, MonomialOrdering((w,), problem.tiebreak))
             for _, problem, w in prime_benchmark_cones(monkeypatch, random.Random(28))]
    rng = random.Random(28)
    for _ in range(16):
        ideal = random_prime_ideal(rng)
        n = ideal.nvars
        weights = [(-1,) + (1,) * n] + [
            (-rng.randint(1, 4),) + tuple(rng.randint(-3, 3) for _ in range(n))
            for _ in range(2)]
        cases.extend((ideal.gens, ideal.prime, weighted_ordering(w, n)) for w in weights)
    assert len(cases) == 42 + 48
    differ = 0
    for gens, prime, ord_ in cases:
        units = ensure_initially_reduced(ord_, gens, prime)
        sb = standard_basis(ord_, gens)
        over_z = initially_reduce(sb, prime)
        assert {leading_term(ord_, g) for g in units.elements} == \
            {leading_term(ord_, g) for g in over_z.elements}, (gens, ord_)
        assert cone_key(units) == cone_key(over_z), (gens, ord_)
        assert is_initially_reduced(ord_, units.elements), (gens, ord_)
        assert is_initially_reduced(ord_, over_z.elements), (gens, ord_)
        differ += completion_up_to_units(ord_, gens, prime).elements != sb.elements
    assert differ > 0


def test_unit_rule_keeps_a_unit_leading_coefficient():
    """<3 - t, 2t*xy + t^2*xy> at (-1, 1, 1).  Over Z the GCD-pair of 3 and
    2t*xy gives t*xy; up to the units of Z_(3) the leading coefficient 2 is
    a unit, so the completion keeps 2t*xy and makes no GCD-pair, and the
    Bezout step of the prime driver makes it monic.  Both routes end with
    the leading terms t*xy and 3."""
    o = weighted_ordering((-1, 1, 1), 2)
    F = polys(XY, "3 - t", "2*t*x*y + t^2*x*y")
    units = [lt for lt, _ in standard_basis_views(o, F, prime=3)]
    over_z = [lt for lt, _ in standard_basis_views(o, F)]
    assert units == [Term(3, (0, 0, 0)), Term(2, (1, 1, 1)), Term(5, (2, 1, 1))]
    assert Term(1, (1, 1, 1)) in over_z and Term(1, (1, 1, 1)) not in units
    assert ensure_initially_reduced(o, F, 3).elements == polys(XY, "t*x*y - 2*t^2*x*y", "3 - t")
    assert initially_reduce(standard_basis(o, F), 3).elements == polys(XY, "t*x*y", "3 - t")


def old_initially_reduce(basis, prime, egcd=extended_gcd):
    """Prime-regime ``initially_reduce`` by Bezout-normalising every
    candidate, then minimising.  The elements are copied first, so no
    leading term kept on them is used."""
    ord_ = basis.ordering
    ctx = InredContext(prime, ord_)
    pt = p_minus_t(prime, basis.elements[0].nvars)
    monic = []
    for g in (Polynomial(g.terms) for g in basis.elements):
        lc = leading_term(ord_, g).coeff
        if lc % prime == 0:
            continue
        if lc != 1:
            lm = leading_term(ord_, g).exp
            _, a, b = egcd(lc, prime)
            g = g * a + pt.term_mul(b, lm)
            assert leading_term(ord_, g).coeff == 1
        monic.append(g)
    strata = {}
    for g in minimize(StandardBasis(tuple(monic), ord_)).elements:
        strata.setdefault(x_degree(g), []).append(g)
    done = []
    for d in sorted(strata):
        done.extend(inred_step_by_step(ctx, done, strata[d]))
    return StandardBasis(tuple(done) + (pt,), ord_)


def counting(calls, fn):
    """fn, appending each call's arguments to ``calls``."""
    def counted(*args):
        calls.append(args)
        return fn(*args)
    return counted


def test_filter_before_bezout_keeps_the_survivors(monkeypatch):
    """Dropping candidates whose leading monomial another's strictly divides
    before the Bezout step gives the bases that Bezout-normalising every
    candidate gives, with fewer Bezout steps: at one weight per benchmark
    cone, and at the start and two random weights of seeded random prime
    ideals."""
    new_calls, old_calls = [], []
    monkeypatch.setattr(tfan.inred, "extended_gcd", counting(new_calls, extended_gcd))
    old_egcd = counting(old_calls, extended_gcd)
    cases = [(problem.gens, problem.prime, MonomialOrdering((w,), problem.tiebreak))
             for _, problem, w in prime_benchmark_cones(monkeypatch, random.Random(20))]
    rng = random.Random(20)
    for _ in range(12):
        ideal = random_prime_ideal(rng)
        n = ideal.nvars
        weights = [(-1,) + (1,) * n] + [
            (-rng.randint(1, 4),) + tuple(rng.randint(-3, 3) for _ in range(n))
            for _ in range(2)]
        cases.extend((ideal.gens, ideal.prime, weighted_ordering(w, n)) for w in weights)
    for gens, prime, ord_ in cases:
        sb = standard_basis(ord_, gens)
        assert initially_reduce(sb, prime).elements == \
            old_initially_reduce(sb, prime, old_egcd).elements, (gens, ord_)
    assert 0 < len(new_calls) < len(old_calls)


def test_bezout_tie_is_broken_on_the_monic_terms(monkeypatch):
    """Two candidates share the leading monomial x with leading coefficients
    1 and 2 (p = 3).  The Bezout combination of the second, x - t*x -
    t^2*y, sorts before x + t*y in ``minimize`` and survives, so both must
    reach the Bezout step; 2*x^2 + t*y^2, whose leading monomial x^2 is
    strictly divided by x, is dropped before it.  The basis is made by hand
    for the tie; ``initially_reduce`` does not check that it is standard."""
    o = weighted_ordering((-1, 1, 1), 2)
    basis = sorted_basis(o, polys(XY, "3 - t", "x + t*y", "2*x + t^2*y", "2*x^2 + t*y^2"))
    new_calls, old_calls = [], []
    monkeypatch.setattr(tfan.inred, "extended_gcd", counting(new_calls, extended_gcd))
    new = initially_reduce(basis, 3)
    old = old_initially_reduce(basis, 3, counting(old_calls, extended_gcd))
    assert new.elements == old.elements == polys(XY, "x - t*x - t^2*y", "3 - t")
    assert [args[0] for args in new_calls] == [2]
    assert sorted(args[0] for args in old_calls) == [2, 2]


class TestDriver:
    def test_p_minus_t_alone(self):
        o = weighted_ordering((-1, 1, 1), 2)
        basis = ensure_initially_reduced(o, polys(XY, "2 - t"), 2)
        assert basis.elements == (P("2 - t", XY),)

    def test_only_p_minus_t_survives_the_drop(self):
        """Every element of the completion has a leading coefficient that 2
        divides, so the drop leaves nothing to reduce."""
        o = weighted_ordering((-1, 1, 1), 2)
        F = polys(XY, "2 - t", "2*x - t*x", "4*y^2 - 2*t*y^2")
        sb = standard_basis(o, F)
        assert len(sb.elements) == 3
        assert all(leading_term(o, g).coeff % 2 == 0 for g in sb.elements)
        expected = (P("2 - t", XY),)
        assert ensure_initially_reduced(o, F, 2).elements == expected
        assert initially_reduce(sb, 2).elements == expected
        assert poly_initially_reduce(sb, 2).elements == expected

    def test_prime_entry_builds_each_returned_element_once(self, monkeypatch):
        """From generators, the prime regime builds a polynomial only for
        an element it returns, p - t aside, and searches no leading term:
        each returned element keeps its leading term, and it is what a
        search finds."""
        builds, searches = [], []

        def counted_build(view):
            builds.append(view)
            return from_t_coefficients(view)

        def counted_search(*args):
            searches.append(args)
            return leading_term(*args)

        monkeypatch.setattr(tfan.inred, "from_t_coefficients", counted_build)
        monkeypatch.setattr(tfan.inred, "leading_term", counted_search)
        returned = 0
        for _, problem, w in prime_benchmark_cones(monkeypatch, random.Random(24)):
            ord_ = MonomialOrdering((w,), problem.tiebreak)
            made = len(builds)
            basis = ensure_initially_reduced(ord_, problem.gens, problem.prime)
            assert len(builds) - made <= len(basis.elements) - 1, (problem, w)
            returned += len(basis.elements) - 1
            for g in basis.elements:
                assert g._lt[0] is ord_, (problem, w)
                assert g._lt[1] == max(g.terms, key=lambda t: ord_.key(t.exp)), (problem, w)
        assert searches == []
        assert len(builds) == returned

    def test_generic_entry_builds_each_returned_element_once(self, monkeypatch):
        """From generators, the generic regime builds a polynomial only for
        an element it returns, and searches no leading term, at the weight
        (-1, 1, 1, 1) of the first 40 members of the generic benchmark
        stream, those that diverge there aside; the completions hold more
        elements than are returned."""
        builds, searches, made = [], [], []
        views = tfan.inred.standard_basis_views

        def counted_views(*args):
            made.append(len(views(args[0], args[1])))
            return views(*args)

        monkeypatch.setattr(tfan.inred, "from_t_coefficients",
                            counting(builds, from_t_coefficients))
        monkeypatch.setattr(tfan.inred, "leading_term", counting(searches, leading_term))
        monkeypatch.setattr(tfan.inred, "standard_basis_views", counted_views)
        corpus, _ = bench_modules(monkeypatch)
        returned = diverged = 0
        for spec in islice(corpus.generic_ideals(0), 40):
            problem = parse_problem(corpus.problem_text(*spec))
            n = len(problem.tiebreak)
            o = MonomialOrdering(((-1,) + (1,) * n,), problem.tiebreak)
            try:
                returned += len(ensure_initially_reduced(o, problem.gens).elements)
            except InredDiverged:
                diverged += 1
                made.pop()
        assert searches == [] and diverged < 10
        assert len(builds) == returned < sum(made)

    def test_section3_driver(self):
        o = weighted_ordering((-1, 1, 1, 1), 3)
        F = polys(XYZ, "2 - t", "x + t^2*y + t^3*z", "y + t*x + t^2*z")
        basis = ensure_initially_reduced(o, F, 2)
        assert set(basis.elements) == set(polys(
            XYZ, "x - t^3*x + t^3*z - t^4*z", "y - t^3*y + t^2*z - t^4*z", "2 - t"))
        assert is_initially_reduced(o, basis.elements)

    def test_flip_example_driver(self):
        o = weighted_ordering((-1, 1, 1), 2)
        F = polys(XY, "2 - t", "x*y^2 - t^2*y^3", "x^2 - t^3*y^2")
        basis = ensure_initially_reduced(o, F, 2)
        assert set(basis.elements) == set(polys(
            XY, "2 - t", "x*y^2 - t^2*y^3", "x^2 - t^3*y^2", "t^3*y^4"))

    @pytest.mark.parametrize("gens, prime", [
        (("x",), 3),
        # (2 - t)(1 + t) generates the same ideal of Z[[t]][x] as 2 - t
        (("2 + t - t^2", "x*y^2 - t^2*y^3", "x^2 - t^3*y^2"), 2),
    ], ids=["missing", "multiple-of-p-minus-t"])
    def test_prime_needs_p_minus_t_generator(self, gens, prime):
        o = weighted_ordering((-1, 1, 1), 2)
        with pytest.raises(InvalidInput,
                           match="declared prime p requires p - t among the generators"):
            ensure_initially_reduced(o, polys(XY, *gens), prime)

    def test_leading_ideal_matches_unreduced_basis(self):
        o = weighted_ordering((-1, 1, 1), 2)
        F = polys(XY, "2 - t", "x*y^2 - t^2*y^3", "x^2 - t^3*y^2")
        basis = ensure_initially_reduced(o, F, 2)
        raw = minimize(standard_basis(o, F))
        assert {leading_term(o, g) for g in basis.elements} == \
               {leading_term(o, g) for g in raw.elements}


@pytest.mark.parametrize("gens, prime", [
    (("2 - t", "x^2 + t*x*y - 3*t^2*y^2", "x*y - t*y^2 + 2*y^2"), 2),
    (("3 - t", "2*x + t*y", "x*y + t^2*y^2"), 3),
    (("x^2 + t*x*y - 3*t^2*y^2", "x*y - t*y^2 + 2*t*y^2"), None),
    (("x + t*y", "y^2 + t*x*y"), None),
], ids=["prime2", "prime3", "generic-quadrics", "generic-mixed"])
def test_initially_reduce_normalises_its_input(gens, prime):
    """A standard basis with its even-numbered elements negated and, where
    the strip recovers them, odd-numbered ones times the unit 1 + t reduces
    to what the basis itself reduces to, in both regimes."""
    o = weighted_ordering((-1, 2, 1), 2)
    sb = standard_basis(o, polys(XY, *gens))
    unit = P("1 + t", XY)
    doctored = []
    for i, g in enumerate(sb.elements):
        h = Polynomial(g.terms)
        if i % 2 == 0:
            h = -h
        elif normalize_element(o, h * unit) == g:
            h = h * unit
        doctored.append(h)
    assert sum(h == -g for h, g in zip(doctored, sb.elements)) >= 1
    assert sum(h == g * unit for h, g in zip(doctored, sb.elements)) >= 1
    assert initially_reduce(StandardBasis(tuple(doctored), o), prime).elements == \
        initially_reduce(sb, prime).elements


class TestGenericReduce:
    def test_lift_then_reduce_example(self):
        # adjacent ordering of the 3-cone linear fan
        o = weighted_ordering((-1, 0, 1, 0), 3).with_weights((-1, 0, 1, 0), (0, -1, 0, 1))
        sb = StandardBasis(polys(XYZ, "x + z", "y + z"), o)
        red = initially_reduce(sb)
        assert set(red.elements) == set(polys(XYZ, "x + z", "y - x"))

    def test_untouched_when_already_reduced(self):
        """An initially reduced basis comes back normalised: both elements
        lose their unit content 1 - t, and nothing else changes."""
        o = weighted_ordering((-1, 3, 3, 3), 3)
        sb = StandardBasis(
            polys(XYZ, "x - t^3*x + t^3*z - t^4*z", "y - t^3*y + t^2*z - t^4*z"), o)
        assert set(initially_reduce(sb).elements) == set(polys(
            XYZ, "x + t*x + t^2*x + t^3*z", "y + t*y + t^2*y + t^2*z + t^3*z"))

    def test_second_linear_step(self):
        o = weighted_ordering((-1, -1, -1, 0), 3).with_weights((-1, -1, -1, 0), (0, 1, -1, 0))
        sb = StandardBasis(polys(XYZ, "x + z", "y - x"), o)
        red = initially_reduce(sb)
        # y - x leads with -x here, so it comes back signed as x - y
        assert set(red.elements) == set(polys(XYZ, "y + z", "x - y"))

    def test_unit_content_breaks_mutual_cycle(self):
        o = weighted_ordering((-1, 1, 1), 2)
        sb = standard_basis(o, polys(XY, "x + t*y", "y + t*x"))
        red = initially_reduce(minimize(sb))
        assert set(red.elements) == set(polys(XY, "x", "y"))

    def test_lowered_cap_names_the_step_count(self, monkeypatch):
        import tfan.division
        from tfan import InredDiverged
        o = weighted_ordering((-1, 1, 1), 2)
        sb = minimize(standard_basis(o, polys(XY, "x + t*y", "y + t*x")))
        monkeypatch.setattr(tfan.division, "STEP_CAP", 1)
        with pytest.raises(InredDiverged, match="passed 1 elimination steps") as exc:
            initially_reduce(sb)
        assert "t-degree limit" not in str(exc.value)

    def test_whole_coefficient_elimination_finds_unit_combination(self):
        # past the facet, lt of the y-element flips to t^2*z; clearing the
        # z-block of the x-element then needs (1+t)*g - t*h, which plain
        # term-by-term subtraction can never reach (it climbs in t forever)
        o = weighted_ordering((-1, -2, -2, 0), 3).with_weights(
            (-1, -2, -2, 0), (2, 0, -1, 1))
        sb = StandardBasis(polys(XYZ,
                                 "y + t*y + t^2*y + t^2*z + t^3*z",
                                 "x + t*x + t^2*x + t^3*z"), o)
        assert leading_term(o, sb.elements[0]) == (1, (2, 0, 0, 1))
        red = initially_reduce(sb)
        assert P("x + t*x - t*y", XYZ) in red.elements
        assert is_initially_reduced(o, red.elements)

    def test_moved_leading_term_trips_the_check(self, monkeypatch):
        """An elimination that changed the carried leading term, here by
        doubling the whole view, is caught on the view."""
        original = tfan.inred._eliminate_tail

        def doubling(*args):
            return {a: [(b, 2 * c) for b, c in tp] for a, tp in original(*args).items()}

        monkeypatch.setattr(tfan.inred, "_eliminate_tail", doubling)
        o = weighted_ordering((-1, 0, 1, 0), 3).with_weights((-1, 0, 1, 0), (0, -1, 0, 1))
        with pytest.raises(AssertionError, match="must preserve leading terms"):
            initially_reduce(StandardBasis(polys(XYZ, "x + z", "y + z"), o))

    def test_true_divergence_fails_fast_with_guidance(self):
        from fractions import Fraction

        from tfan import InredDiverged
        from tfan.poly import MonomialOrdering
        o = MonomialOrdering(((-1, 1 + Fraction(1, 97), 1 + Fraction(2, 97)),), (0, 1))
        gens = polys(XY, "2*t*y^2",
                     "-3*t*x^2 - 3*t*x*y + 2*t^2*x*y - 3*t^3*y^2",
                     "-2*t + 3*t^2 + 2*t^3")
        sb = minimize(standard_basis(o, gens))
        with pytest.raises(InredDiverged, match="declare a prime"):
            initially_reduce(sb)

    def test_divergence_names_element_term_and_weight(self):
        from tfan import InredDiverged, groebner_cone_at
        from tfan.poly import MonomialOrdering
        o = MonomialOrdering(((-1, 1, 1, 1),), (0, 1, 2))
        gens = polys(XYZ, "-2*z + 2*t*z", "t^2*y + 2*t*z")
        with pytest.raises(InredDiverged) as exc:
            groebner_cone_at(o, gens)
        message = str(exc.value)
        assert "at weight (-1, 1, 1, 1)" in message
        assert "from the element with leading term 1*t^2*x^(0, 1, 0)" in message
        assert "eliminating skeleton term 2*t^48*x^(0, 0, 1)" in message
        assert "t-degree limit 48" in message
        assert "declare a prime" in message
        assert "step cap" not in message


class TestIsInitiallyReduced:
    def test_one_minus_t(self):
        assert is_initially_reduced(lex_ordering(1), polys(["x"], "1 - t"))

    def test_meddling_terms_detected(self):
        o = weighted_ordering((-1, 1, 1, 1), 3)
        G = polys(XYZ, "2 - t", "x + t^2*y + t^3*z", "y + t*x + t^2*z")
        assert not is_initially_reduced(o, G)

    def test_monomials(self):
        assert is_initially_reduced(lex_ordering(2), polys(XY, "x", "y"))
