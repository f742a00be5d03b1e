import os
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from tfan import (
    InvalidInput,
    MonomialOrdering,
    Polynomial,
    facets,
    groebner_fan,
    hddwr,
    initial_form,
    is_x_homogeneous,
    leading_term,
    lex_ordering,
    max_weight_part,
    minimize,
    relative_interior_point,
    standard_basis,
    t_skeleton,
    tail,
    weighted_ordering,
    witness,
    x_degree,
)
import tfan.poly
from tfan.cli import parse_problem
from tfan.poly import (
    strip_unit_t_content,
    strip_unit_t_content_view,
    t_coefficients,
    tpoly_divexact,
    tpoly_gcd,
)

from helpers import (
    P,
    XY,
    XYZ,
    mul_tpoly,
    old_strip_unit_t_content_view,
    polys,
    t_coefficient,
)

DEMO_IDEALS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "demos", "ideals")


def exp(beta, *alpha):
    return (beta,) + alpha


class TestCompare:
    def test_weighted_x_beats_t3z(self):
        # forced by lt(x - t^3 x + t^3 z - t^4 z) = x at weight (-1,3,3,3)
        o = weighted_ordering((-1, 3, 3, 3), 3)
        assert o.compare(exp(0, 1, 0, 0), exp(3, 0, 0, 1)) == 1

    def test_t_local_one_beats_t(self):
        o = lex_ordering(2)
        assert o.compare(exp(0, 0, 0), exp(1, 0, 0)) == 1

    def test_weighted_xy_beats_tx2(self):
        o = weighted_ordering((-1, 1, 1), 2)
        assert o.compare(exp(0, 1, 1), exp(1, 2, 0)) == 1

    def test_total_and_multiplicative(self):
        o = weighted_ordering((-1, 2, 1), 2)
        rng = random.Random(11)
        exps = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(40)]
        for e1 in exps:
            for e2 in exps:
                c = o.compare(e1, e2)
                assert c == -o.compare(e2, e1)
                if e1 != e2:
                    assert c != 0
                shift = (1, 2, 0)
                shifted = o.compare(tuple(a + s for a, s in zip(e1, shift)),
                                    tuple(a + s for a, s in zip(e2, shift)))
                assert c == shifted

    def test_not_t_local_rejected(self):
        with pytest.raises(InvalidInput):
            MonomialOrdering(((1, 1, 1),), (0, 1))

    def test_float_weight_rejected(self):
        with pytest.raises(InvalidInput, match=r"weight entry 0 .* -1\.5"):
            MonomialOrdering(((-1.5, 1, 1),), (0, 1))
        with pytest.raises(InvalidInput, match=r"weight entry 2 .* 0\.5"):
            weighted_ordering((-1, 1, 0.5), 2)
        with pytest.raises(InvalidInput, match=r"weight entry 1"):
            MonomialOrdering(((-1, 1, 1), (0, 2.0, 1)), (0, 1))


def key_oracle(o, e):
    """``MonomialOrdering.key`` as first written, with the weights as given:
    the tuple of w-degrees, alpha along the tiebreak, then -beta."""
    if len(e) != 1 + o.nvars:
        raise InvalidInput("exponent vector has wrong length")
    wpart = tuple(sum(c * x for c, x in zip(w, e)) for w in o.weights)
    return (wpart, tuple(e[1 + i] for i in o.tiebreak), -e[0])


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)
negative_fractions = st.fractions(min_value=-5, max_value=Fraction(-1, 7), max_denominator=7)


@st.composite
def orderings_and_exponents(draw):
    """A random t-local ordering with 0-3 rational weights, n = 1..4 and a
    random tiebreak, plus a set of exponents for it."""
    n = draw(st.integers(1, 4))
    tiebreak = tuple(draw(st.permutations(range(n))))
    weights = [tuple(draw(st.lists(small_fractions, min_size=1 + n, max_size=1 + n)))
               for _ in range(draw(st.integers(0, 3)))]
    # t-local: the first nonzero t-entry is made negative
    for i, w in enumerate(weights):
        if w[0] != 0:
            if w[0] > 0:
                weights[i] = (-w[0],) + w[1:]
            break
    exps = draw(st.lists(st.tuples(*[st.integers(0, 4)] * (1 + n)),
                         min_size=1, max_size=12, unique=True))
    return MonomialOrdering(tuple(weights), tiebreak), exps


@seed(16)
@settings(max_examples=150, deadline=None)
@given(case=orderings_and_exponents())
@example(case=(lex_ordering(1), [(0, 0), (1, 0), (0, 2), (3, 1)]))
@example(case=(lex_ordering(3, priority=(2, 0, 1)), [(0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0)]))
@example(case=(weighted_ordering((Fraction(-1, 2), 1), 1), [(0, 0), (2, 1), (0, 1)]))
def test_key_matches_oracle(case):
    o, exps = case
    assert sorted(exps, key=o.key) == sorted(exps, key=lambda e: key_oracle(o, e))
    for a in exps:
        for b in exps:
            ka, kb = key_oracle(o, a), key_oracle(o, b)
            assert o.compare(a, b) == (ka > kb) - (ka < kb)
        for bad in (a + (0,), a[:-1]):
            with pytest.raises(InvalidInput):
                o.key(bad)


@seed(30)
@settings(max_examples=100, deadline=None)
@given(case=orderings_and_exponents())
def test_key_memo(case):
    """An ordering keys each exponent once: the kept keys are the formula's
    on the weights scaled to integers, a second call returns the kept key
    itself, an ordering derived by ``with_weights`` starts empty, and the
    memo changes no comparison, hash or repr of the ordering.  A
    wrong-length exponent is rejected on every call and never kept."""
    o, exps = case
    fresh = MonomialOrdering(o.weights, o.tiebreak)
    scaled = [[int(x * lcm(*(Fraction(y).denominator for y in w))) for x in w]
              for w in o.weights]
    first = [o.key(e) for e in exps]
    assert first == [(tuple(sum(c * x for c, x in zip(w, e)) for w in scaled),
                      tuple(e[1 + i] for i in o.tiebreak), -e[0]) for e in exps]
    assert len(o._keys) == len(exps)
    assert all(o.key(e) is k for e, k in zip(exps, first))
    assert len(o._keys) == len(exps)
    assert o.with_weights(*o.weights)._keys == {}
    assert o == fresh and hash(o) == hash(fresh) and repr(o) == repr(fresh)
    assert fresh._keys == {}
    bad = exps[0] + (0,)
    for _ in range(2):
        with pytest.raises(InvalidInput):
            o.key(bad)
    assert bad not in o._keys and len(o._keys) == len(exps)


class TestLeadingData:
    def test_paper_style_leading_terms(self):
        o = weighted_ordering((-1, 3, 3, 3), 3)
        g1 = P("x - t^3*x + t^3*z - t^4*z", XYZ)
        assert leading_term(o, g1) == (1, exp(0, 1, 0, 0))

    def test_single_term(self):
        o = lex_ordering(2)
        f = P("-5*t^2*x*y", XY)
        assert leading_term(o, f) == (-5, exp(2, 1, 1))

    def test_fig1_leading_term(self):
        o = weighted_ordering((-1, 1, 1), 2)
        g = P("t*x^2 + x*y + t*y^2", XY)
        assert leading_term(o, g) == (1, exp(0, 1, 1))

    def test_tail_and_zero(self):
        o = lex_ordering(1)
        f = P("x - t*x", ["x"])
        assert tail(o, f) == P("-t*x", ["x"])
        assert tail(o, Polynomial.zero()).is_zero
        with pytest.raises(InvalidInput):
            leading_term(o, Polynomial.zero())

    def test_leading_term_kept_per_ordering(self):
        f = P("x + t*y", XY)
        by_x, by_y = lex_ordering(2), lex_ordering(2, priority=(1, 0))
        for _ in range(3):
            assert leading_term(by_x, f) == (1, exp(0, 1, 0))
            assert leading_term(by_y, f) == (1, exp(1, 0, 1))
        # equal but distinct orderings give the same term
        a, b = weighted_ordering((-1, 1, 3), 2), weighted_ordering((-1, 1, 3), 2)
        assert a == b and a is not b
        assert leading_term(a, f) == leading_term(b, f) == (1, exp(1, 0, 1))
        assert leading_term(by_x, f) == (1, exp(0, 1, 0))
        assert leading_term(b, f) == (1, exp(1, 0, 1))

    def test_kept_leading_term_is_invisible(self):
        f = P("x + t*y", XY)
        leading_term(lex_ordering(2), f)
        fresh = Polynomial(f.terms)
        assert f._lt is not None and fresh._lt is None
        assert f == fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)
        assert len({f, fresh}) == 1


class TestInitialForm:
    def test_section3_pair(self):
        g2 = P("y - t^3*y + t^2*z - t^4*z", XYZ)
        assert initial_form((-1, 2, -1, 1), g2) == P("y + t^2*z", XYZ)

    def test_single_term_fixed(self):
        f = P("3*t^2*x", XY)
        assert initial_form((-1, 1, 5), f) == f

    def test_fig1_edge(self):
        g = P("t*x^2 + x*y + t*y^2", XY)
        assert initial_form((-1, 1, 0), g) == P("t*x^2 + x*y", XY)

    def test_rejects_nonnegative_t_weight(self):
        with pytest.raises(InvalidInput):
            initial_form((0, 1, 1), P("x + y", XY))

    def test_rejects_float_weight(self):
        with pytest.raises(InvalidInput, match=r"weight entry 1 .* 0\.5"):
            initial_form((-1, 0.5, 1), P("x + y", XY))
        with pytest.raises(InvalidInput, match=r"weight entry 0"):
            max_weight_part((-1.0, 1, 1), Polynomial.zero())

    def test_multiplicative(self):
        rng = random.Random(2)
        names = XY
        for _ in range(30):
            f = _random_poly(rng, 2)
            g = _random_poly(rng, 2)
            if f.is_zero or g.is_zero:
                continue
            w = (-rng.randint(1, 4), rng.randint(-3, 3), rng.randint(-3, 3))
            assert initial_form(w, f * g) == initial_form(w, f) * initial_form(w, g)

    def test_homogeneous_shift_invariance(self):
        g = P("t*x^2 + x*y + t*y^2", XY)
        for c in (-2, 1, 3):
            w = (-1, 1, 0)
            shifted = (w[0], w[1] + c, w[2] + c)
            assert initial_form(w, g) == initial_form(shifted, g)

    def test_leading_term_inside_initial_form(self):
        w = (-1, 3, 3, 3)
        o = weighted_ordering(w, 3)
        for g in polys(XYZ, "x - t^3*x + t^3*z - t^4*z", "y - t^3*y + t^2*z - t^4*z"):
            lt = leading_term(o, g)
            assert Polynomial.term(*lt).terms[0] in initial_form(w, g).terms


class TestSkeleton:
    def test_section3_skeleton(self):
        g1 = P("x - t^3*x + t^3*z - t^4*z", XYZ)
        assert t_skeleton(g1) == P("x + t^3*z", XYZ)

    def test_single_coefficient_block(self):
        g = P("t^3*x3^2 - 2*t^5*x3^2 - t^7*x3^2 - t^8*x3^2", ["x1", "x2", "x3"])
        assert t_skeleton(g) == P("t^3*x3^2", ["x1", "x2", "x3"])

    def test_single_term(self):
        f = P("4*t^2*x", XY)
        assert t_skeleton(f) == f

    def test_idempotent_and_ordering_free(self):
        rng = random.Random(9)
        for _ in range(40):
            f = _random_poly(rng, 2)
            if f.is_zero:
                continue
            sk = t_skeleton(f)
            assert t_skeleton(sk) == sk


class TestArithmetic:
    def test_homogeneity(self):
        assert is_x_homogeneous(P("t*x^2 + x*y + t*y^2", XY))
        assert x_degree(P("t*x^2 + x*y + t*y^2", XY)) == 2
        assert not is_x_homogeneous(P("x + t", XY))

    def test_add_cancel(self):
        assert P("x + z", XYZ) + P("-x", XYZ) == P("z", XYZ)

    def test_mul_int(self):
        assert P("x + y", XY) * 2 == P("2*x + 2*y", XY)

    def test_canonical_order(self):
        f = P("t^2*y + x - t*x + y", XY)
        degs = [sum(e[1:]) for _, e in f.terms]
        assert degs == sorted(degs, reverse=True)


def test_strip_unit_t_content():
    f = P("t^3*y^4 - t^4*y^4", XY)  # content t^3 * (1 - t); (1 - t) is a unit
    assert strip_unit_t_content(f) == P("t^3*y^4", XY)
    g = P("2 - t", XY)  # constant part 2: no unit factor
    assert strip_unit_t_content(g) == g


def content_view(content, cofactors):
    """The view {alpha_i: content * cofactors[i]} over the x-monomials
    x^i, with every Z[t] polynomial given as a dense list."""
    return {(i,): tp(dense_mul(content, c)) for i, c in enumerate(cofactors)}


@pytest.mark.parametrize("content, cofactors, stripped", [
    # a single-term coefficient after multi-term ones: nothing to strip
    ([1], [[1, 1], [2, 0, 1], [0, 0, 3]], False),
    # a shared unit content 1 + t
    ([1, 1], [[1], [2, 1], [0, -3, 1]], True),
    # content t^2 * (1 + t): the unit part goes, the power of t stays
    ([0, 0, 1, 1], [[1, 2], [3], [1, 0, -1]], True),
    # content 2 + t is not a unit of Z[[t]] and stays
    ([2, 1], [[1], [1, 1], [-1, 0, 2]], False),
])
def test_strip_unit_t_content_view_cases(content, cofactors, stripped):
    view = content_view(content, cofactors)
    out = strip_unit_t_content_view(view)
    assert out == old_strip_unit_t_content_view(view)
    assert (out is not view) == stripped
    if stripped:
        k = next(i for i, c in enumerate(content) if c)
        assert out == {a: tp([0] * k + c) for a, c in zip(view, cofactors)}


@seed(20)
@settings(max_examples=200, deadline=None)
@given(content=st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any),
       cofactors=st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any),
                          min_size=1, max_size=4),
       shift=st.integers(0, 2))
def test_strip_unit_t_content_view_matches_gcd_loop(content, cofactors, shift):
    view = content_view([0] * shift + content, cofactors)
    out = strip_unit_t_content_view(view)
    old = old_strip_unit_t_content_view(view)
    assert out == old
    assert (out is view) == (old is view)


def tp(dense):
    """The Z[t] coefficient with dense coefficient list ``dense``, lowest
    t-power first."""
    return tuple((b, c) for b, c in enumerate(dense) if c)


def dense(p):
    out = [0] * (p[-1][0] + 1)
    for b, c in p:
        out[b] = c
    return out


def dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def rational_gcd_degree(a, b):
    """t-degree of gcd(a, b) over Q: Euclid on ``Fraction`` coefficients."""
    def trimmed(p):
        p = [Fraction(c) for c in p]
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = trimmed(a), trimmed(b)
    while b:
        while len(a) >= len(b):
            q, s = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[s + i] -= q * c
            a = trimmed(a)
        a, b = b, a
    return len(a) - 1


nonzero_tpolys = st.lists(st.integers(-9, 9), min_size=1, max_size=7).filter(any)


@seed(14)
@settings(max_examples=150, deadline=None)
@given(a=nonzero_tpolys, b=nonzero_tpolys, c=nonzero_tpolys)
def test_tpoly_gcd_of_common_multiples(a, b, c):
    # strip_unit_t_content relies on the positive lowest coefficient
    ac, bc = tp(dense_mul(a, c)), tp(dense_mul(b, c))
    g = tpoly_gcd(ac, bc)
    for f in (ac, bc):
        assert tp(dense_mul(dense(tpoly_divexact(f, g)), dense(g))) == f
    assert tp(dense_mul(dense(tpoly_divexact(g, tp(c))), c)) == g
    assert g[0][1] > 0
    assert g[-1][0] == rational_gcd_degree(dense_mul(a, c), dense_mul(b, c))


def test_tpoly_gcd_and_divexact_edge_cases():
    assert tpoly_gcd((), ()) == ()
    with pytest.raises(InvalidInput, match="division by zero"):
        tpoly_divexact(tp([1, 1]), ())
    with pytest.raises(InvalidInput, match="inexact"):
        tpoly_divexact(tp([1, 1]), tp([2]))


def euclid_tpoly_gcd(p, q):
    """``tpoly_gcd`` by Euclid alone: the primitive remainder sequence of
    the primitive parts, times the gcd of the contents, with the lowest
    nonzero coefficient made positive.  The oracle of the heuristic gcd."""
    def trimmed(a):
        while a and a[-1] == 0:
            a.pop()
        return a

    def content(a):
        g = 0
        for c in a:
            g = gcd(g, c)
        return g

    def primitive(a):
        g = content(a)
        return [c // g for c in a] if g > 1 else list(a)

    def pseudo_rem(a, b):
        a = list(a)
        db, lb = len(b) - 1, b[-1]
        while len(a) - 1 >= db and trimmed(a):
            da, la = len(a) - 1, a[-1]
            a = [c * lb for c in a]
            for i, bc in enumerate(b):
                a[da - db + i] -= la * bc
            trimmed(a)
        return a

    a, b = trimmed(dense(p)) if p else [], trimmed(dense(q)) if q else []
    if not a and not b:
        return ()
    if not a or not b:
        res = a or b
    else:
        ca, cb = content(a), content(b)
        a, b = primitive(a), primitive(b)
        while b:
            a, b = b, primitive(trimmed(pseudo_rem(a, b)))
        res = [c * gcd(ca, cb) for c in primitive(a)]
    if next(c for c in res if c) < 0:
        res = [-c for c in res]
    return tp(res)


tpolys = st.lists(st.integers(-40, 40), max_size=8).map(tp)


@st.composite
def gcd_inputs(draw):
    """Pairs of Z[t] coefficients, zero included: free ones, or multiples
    of a common factor, each with a content and a t-power of its own."""
    a, b = draw(tpolys), draw(tpolys)
    if draw(st.booleans()):
        c = dense(draw(tpolys.filter(bool)))

        def multiple(x):
            shift, k = [0] * draw(st.integers(0, 2)), draw(st.integers(-6, 6))
            return tp(shift + [k * v for v in dense_mul(dense(x or tp([1])), c)])

        a, b = multiple(a), multiple(b)
    return a, b


@seed(27)
@settings(max_examples=400, deadline=None)
@given(pair=gcd_inputs())
@example(pair=((), tp([0, -4, 6])))
def test_tpoly_gcd_matches_euclid(pair):
    """The heuristic gcd gives Euclid's result, and so does its fallback
    when every heuristic try fails."""
    a, b = pair
    expected = euclid_tpoly_gcd(a, b)
    assert tpoly_gcd(a, b) == expected
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tfan.poly, "_heu_gcd", lambda a, b: None)
        assert tpoly_gcd(a, b) == expected


def test_t_coefficient_view():
    f = P("x - t^3*x + t^3*z - t^4*z", XYZ)
    assert t_coefficient(f, (1, 0, 0)) == ((0, 1), (3, -1))
    assert t_coefficient(f, (0, 0, 1)) == ((3, 1), (4, -1))
    assert t_coefficient(f, (0, 1, 0)) == ()


def test_t_coefficients_one_pass():
    # mixed x-degrees and interleaved input: each alpha's terms are grouped
    # with beta ascending, alphas come in canonical order (x-degree, then lex)
    f = P("t^2*y + 3 - t*x^2 + 2*t*y + x^2 - 5*t^4 + t^3*x^2", XY)
    coeffs = t_coefficients(f)
    assert coeffs == {
        (2, 0): ((0, 1), (1, -1), (3, 1)),
        (0, 1): ((1, 2), (2, 1)),
        (0, 0): ((0, 3), (4, -5)),
    }
    assert list(coeffs) == [(2, 0), (0, 1), (0, 0)]
    for alpha, tp in coeffs.items():
        assert t_coefficient(f, alpha) == tp
    assert t_coefficient(f, (1, 0)) == ()
    assert t_coefficient(f, (1, 1)) == ()
    assert t_coefficients(Polynomial.zero()) == {}


def _random_poly(rng, n):
    terms = []
    for _ in range(rng.randint(0, 5)):
        e = tuple(rng.randint(0, 3) for _ in range(1 + n))
        terms.append((rng.randint(-4, 4), e))
    return Polynomial.from_terms(terms)


# ---------------------------------------------------------------------------
# Arithmetic against a dict-accumulate oracle
# ---------------------------------------------------------------------------


def dict_oracle(pairs):
    """{exp: coeff} of the sum of (coeff, exp) pairs, zero sums dropped."""
    acc = {}
    for c, e in pairs:
        acc[e] = acc.get(e, 0) + c
    return {e: c for e, c in acc.items() if c}


def ascending_canon_key(e):
    """The canonical term order as an ascending key, written apart from
    ``from_terms``: x-degree descending, alpha lex descending, beta
    ascending."""
    return (-sum(e[1:]), tuple(-a for a in e[1:]), e[0])


def assert_canonical(f):
    keys = [ascending_canon_key(e) for _, e in f.terms]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(c != 0 for c, _ in f.terms)


def max_weight_part_oracle(w, f):
    """The terms of f of maximal w-degree, by ``Fraction`` dot products."""
    degs = [sum(Fraction(c) * x for c, x in zip(w, e)) for _, e in f.terms]
    top = max(degs, default=None)
    return Polynomial(tuple(t for t, d in zip(f.terms, degs) if d == top))


@st.composite
def weights_and_polys(draw):
    n = draw(st.integers(1, 4))
    w = (draw(negative_fractions),) + tuple(draw(st.lists(small_fractions, min_size=n,
                                                         max_size=n)))
    # exponents from a small pool, so that they repeat and sums cancel
    pool = draw(st.lists(st.tuples(*[st.integers(0, 3)] * (1 + n)), min_size=1, max_size=6))
    pairs = draw(st.lists(st.tuples(st.integers(-3, 3), st.sampled_from(pool)), max_size=12))
    return w, Polynomial.from_terms(pairs)


@seed(17)
@settings(max_examples=150, deadline=None)
@given(case=weights_and_polys())
def test_max_weight_part_matches_fraction_oracle(case):
    w, f = case
    expected = max_weight_part_oracle(w, f)
    assert max_weight_part(w, f) == expected
    if not f.is_zero:
        assert initial_form(w, f) == expected


def _random_pairs(rng, n):
    # exponents in a small box, so sums and products repeat exponents
    return [(rng.randint(-3, 3), tuple(rng.randint(0, 2) for _ in range(1 + n)))
            for _ in range(rng.randint(0, 6))]


def test_arithmetic_matches_dict_oracle():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 4)
        fp, gp = _random_pairs(rng, n), _random_pairs(rng, n)
        f, g = Polynomial.from_terms(fp), Polynomial.from_terms(gp)
        tp = tuple((b, c) for b in range(3) if (c := rng.randint(-2, 2)))
        products = [(c1 * c2, tuple(a + b for a, b in zip(e1, e2)))
                    for c1, e1 in fp for c2, e2 in gp]
        shifted = [(c1 * c, (e1[0] + b,) + e1[1:]) for b, c in tp for c1, e1 in fp]
        for result, pairs in [
            (f, fp),
            (f + g, fp + gp),
            (f - g, fp + [(-c, e) for c, e in gp]),
            (f - f, []),
            (f * g, products),
            (mul_tpoly(f, tp), shifted),
        ]:
            assert_canonical(result)
            assert {e: c for c, e in result.terms} == dict_oracle(pairs)


def test_witness_matches_oracle_sum_on_flip_example():
    # every lift the flip.ideal fan makes: the witness of each new initial
    # form h is the sum of hddwr's quotients of h times the basis
    with open(os.path.join(DEMO_IDEALS, "flip.ideal"), encoding="utf-8") as fh:
        problem = parse_problem(fh.read())
    fan = groebner_fan(problem.ideal(), tiebreak=problem.tiebreak)
    lifts = 0
    for cone in fan.maximal_cones:
        G, ord_ = cone.basis.elements, cone.basis.ordering
        for facet in facets(cone.hcone):
            if facet.in_boundary:
                continue
            w = relative_interior_point(facet.cone)
            H = tuple(initial_form(w, g) for g in G)
            ord_new = MonomialOrdering((tuple(w), facet.outer_normal), ord_.tiebreak)
            for h in minimize(standard_basis(ord_new, H)).elements:
                q, r = hddwr(ord_, h, H)
                assert r.is_zero
                pairs = [(c1 * c2, tuple(a + b for a, b in zip(e1, e2)))
                         for qi, gi in zip(q, G)
                         for c1, e1 in qi.terms for c2, e2 in gi.terms]
                f = witness(h, H, cone.basis)
                assert_canonical(f)
                assert {e: c for c, e in f.terms} == dict_oracle(pairs)
                lifts += 1
    assert lifts > 0
