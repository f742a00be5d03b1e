import json
import os
import random
import re
from collections import Counter
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd
from operator import mul

import pytest
from hypothesis import example, given, seed, settings, strategies as st

import tfan.division
from tfan.division import _Packing, _PastLimit, sorted_basis
from tfan.poly import exp_div, exp_divides
from tfan import (
    DivisionDiverged,
    MonomialOrdering,
    groebner_fan,
    Polynomial,
    StandardBasis,
    hddwr,
    leading_term,
    lex_ordering,
    minimize,
    mora_weak_nf,
    standard_basis,
    weighted_ordering,
)

from tfan.cli import format_poly, parse_problem

from helpers import (
    P,
    XY,
    XYZ,
    assert_pairs_reduce_to_zero,
    bench_modules,
    exp_lcm,
    normalize_element,
    old_minimize,
    old_gcd_poly,
    old_hddwr,
    old_s_poly,
    polys,
    prime_benchmark_cones,
    prime_stream_member,
)


def check_division_identity(ord_, f, G, res):
    total = Polynomial.zero()
    for q, g in zip(res.quotients, G):
        total = total + q * g
    assert total + res.remainder == f


class TestHddwr:
    def test_listed_leading_term(self):
        o = weighted_ordering((-1, 2, -1, 1), 3)
        G = polys(XYZ, "x", "y + t^2*z")
        res = hddwr(o, P("x", XYZ), G)
        assert res.remainder.is_zero
        assert res.quotients[0] == P("1", XYZ)
        assert res.quotients[1].is_zero

    def test_constant_divisor(self):
        o = lex_ordering(2)
        res = hddwr(o, P("2*x + 2*y", XY), polys(XY, "2"))
        assert res.remainder.is_zero
        assert res.quotients[0] == P("x + y", XY)

    def test_partial_reduction_frozen(self):
        # one reduction step by t*x^2 + x*y + t*y^2 leaves -t*x^2
        o = weighted_ordering((-1, 1, 1), 2)
        G = polys(XY, "t*x^2 + x*y + t*y^2")
        res = hddwr(o, P("x*y + t*y^2", XY), G)
        assert res.quotients[0] == P("1", XY)
        assert res.remainder == P("-t*x^2", XY)
        check_division_identity(o, P("x*y + t*y^2", XY), G, res)

    def test_identity_randomised(self):
        rng = random.Random(21)
        o = weighted_ordering((-1, 1, 1), 2)
        G = polys(XY, "x*y + t*y^2", "2*y^2")
        from tfan.poly import Term, term_divides
        for _ in range(25):
            f = Polynomial.from_terms(
                [(rng.randint(-3, 3), (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)))
                 for _ in range(4)]
            )
            if f.is_zero:
                continue
            res = hddwr(o, f, G)
            check_division_identity(o, f, G, res)
            for c, e in res.remainder.terms:
                for g in G:
                    assert not term_divides(leading_term(o, g), Term(c, e))

    def test_remainder_irreducible(self):
        o = weighted_ordering((-1, 1, 1), 2)
        G = polys(XY, "x*y + t*y^2", "2*y^2")
        res = hddwr(o, P("x^2*y + 3*y^2 + t^2*x", XY), G)
        from tfan.poly import Term, term_divides
        for c, e in res.remainder.terms:
            for g in G:
                assert not term_divides(leading_term(o, g), Term(c, e))


class TestMora:
    def test_member_reduces_to_zero(self):
        o = weighted_ordering((-1, 1, 1), 2)
        G = polys(XY, "x + t*y", "y")
        res = mora_weak_nf(o, G[0], G)
        assert res.remainder.is_zero

    def test_two_minus_t_and_x(self):
        o = weighted_ordering((-1, 1, 1), 2)
        G = polys(XY, "2 - t", "x")
        res = mora_weak_nf(o, P("2*x", XY), G)
        assert res.remainder.is_zero

    def test_unit_multiplier_for_local_division(self):
        # dividing 1 by 1 - t requires the Mora multiplier (1-t) * 1 = 1 * (1-t)
        o = lex_ordering(2)
        G = polys(XY, "1 - t")
        res = mora_weak_nf(o, P("1", XY), G)
        assert res.remainder.is_zero
        assert leading_term(o, res.unit) == (1, (0, 0, 0))
        total = Polynomial.zero()
        for q, g in zip(res.quotients, G):
            total = total + q * g
        assert res.unit * P("1", XY) == total + res.remainder

    def test_unit_identity_randomised(self):
        rng = random.Random(5)
        o = weighted_ordering((-1, 1, 1), 2)
        sb = standard_basis(o, polys(XY, "2 - t", "x*y^2 - t^2*y^3", "x^2 - t^3*y^2"))
        G = sb.elements
        for _ in range(10):
            f = Polynomial.zero()
            for g in G:
                c = rng.randint(-2, 2)
                e = (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
                f = f + g.term_mul(c, e)
            if f.is_zero:
                continue
            res = mora_weak_nf(o, f, G)
            assert res.remainder.is_zero
            total = Polynomial.zero()
            for q, g in zip(res.quotients, G):
                total = total + q * g
            assert res.unit * f == total
            assert leading_term(o, res.unit).coeff == 1
            assert leading_term(o, res.unit).exp == (0, 0, 0)


class TestPairs:
    """The pair builders of ``helpers``, which the oracle and the pair
    certificate use."""

    def test_gpair_bezout(self):
        o = lex_ordering(2)
        f, g = P("2*x", XY), P("3*x", XY)
        h = old_gcd_poly(f, leading_term(o, f), g, leading_term(o, g))
        assert leading_term(o, h) == (1, (0, 1, 0))

    def test_spair_self_cancels(self):
        o = lex_ordering(2)
        f = P("x*y + t*y^2", XY)
        lf = leading_term(o, f)
        assert old_s_poly(f, lf, f, lf).is_zero

    def test_spair_frozen_value_and_membership(self):
        o = weighted_ordering((-1, 1, 1), 2)
        f, g = polys(XY, "2 - t", "x + t^2*y")
        s = old_s_poly(f, leading_term(o, f), g, leading_term(o, g))
        assert s == P("-t*x - 2*t^2*y", XY)
        sb = standard_basis(o, [f, g])
        assert mora_weak_nf(o, s, sb.elements).remainder.is_zero


class TestStandardBasis:
    def test_linear_pair_already_basis(self):
        o = weighted_ordering((-1, 0, 0, 0), 3)
        sb = standard_basis(o, polys(XYZ, "x + z", "y + z"))
        assert set(sb.elements) == set(polys(XYZ, "x + z", "y + z"))

    def test_principal(self):
        o = weighted_ordering((-1, 1, 1), 2)
        f = P("t*x^2 + x*y + t*y^2", XY)
        sb = standard_basis(o, [f])
        assert sb.elements == (f,)

    def test_flip_ideal_gains_t3y4(self):
        o = weighted_ordering((-1, 1, 1), 2)
        sb = standard_basis(o, polys(XY, "2 - t", "x*y^2 - t^2*y^3", "x^2 - t^3*y^2"))
        assert P("t^3*y^4", XY) in sb.elements

    def test_fixpoint_leading_ideal(self):
        o = weighted_ordering((-1, 1, 1), 2)
        sb = standard_basis(o, polys(XY, "2 - t", "x*y^2 - t^2*y^3", "x^2 - t^3*y^2"))
        again = standard_basis(o, sb.elements)
        lts = {leading_term(o, g) for g in sb.elements}
        lts2 = {leading_term(o, g) for g in again.elements}
        # same leading-term ideal: every new leading term is divisible by an old one
        from tfan.poly import term_divides
        for lt in lts2:
            assert any(term_divides(old, lt) for old in lts)
        for lt in lts:
            assert any(term_divides(new, lt) for new in lts2)

    def test_pairs_reduce_to_zero(self):
        o = weighted_ordering((-1, 1, 1), 2)
        sb = standard_basis(o, polys(XY, "2 - t", "x*y^2 - t^2*y^3", "x^2 - t^3*y^2"))
        assert_pairs_reduce_to_zero(o, sb.elements)


class TestMinimize:
    def test_drops_term_multiples(self):
        o = lex_ordering(2)
        sb = StandardBasis(polys(XY, "x", "2*x", "y"), o)
        assert set(minimize(sb).elements) == set(polys(XY, "x", "y"))

    def test_drops_coefficient_multiples(self):
        o = lex_ordering(2)
        sb = StandardBasis(polys(XY, "2 - t", "4 - 2*t", "x"), o)
        assert set(minimize(sb).elements) == set(polys(XY, "2 - t", "x"))

    def test_already_minimal(self):
        o = lex_ordering(2)
        sb = StandardBasis(polys(XY, "x", "y"), o)
        assert set(minimize(sb).elements) == set(sb.elements)

    def test_matches_the_sorted_scan(self):
        """The minimality rule keeps what the sorted scan keeps, in the same
        order, on 10,000 seeded random bases of two x-variables under 40
        random orderings.  Bases mix
        negative leading coefficients, +- pairs of one element, duplicates
        and elements sharing a leading term with different tails; without
        comparing coefficients by absolute value, the rule keeps both of
        2x and -2x."""
        rng = random.Random(26)
        coeffs = (-3, -2, -1, 1, 2, 3)
        monomials = {1: [(1, 0), (0, 1)], 2: [(2, 0), (1, 1), (0, 2)]}
        kinds = dict.fromkeys(("negative", "pm", "duplicate", "tails", "dropped"), 0)

        def element(d, o, below=None):
            terms = [(rng.choice(coeffs), (rng.randint(0, 2),) + rng.choice(monomials[d]))
                     for _ in range(rng.randint(1, 3))]
            if below is not None:
                terms = [below] + [t for t in terms if o.key(t[1]) < o.key(below[1])]
            return Polynomial.from_terms(terms)

        orderings = [weighted_ordering((-rng.randint(1, 3), rng.randint(-2, 2),
                                        rng.randint(-2, 2)), 2, rng.choice([(0, 1), (1, 0)]))
                     for _ in range(40)]
        for _ in range(10000):
            o = rng.choice(orderings)
            elems = [g for g in (element(rng.randint(1, 2), o) for _ in range(rng.randint(1, 5)))
                     if g]
            if not elems:
                continue
            for g in list(elems):
                r = rng.random()
                if r < 0.15:
                    elems.append(-g)
                    kinds["pm"] += 1
                elif r < 0.3:
                    elems.append(Polynomial(g.terms))
                    kinds["duplicate"] += 1
                elif r < 0.45:
                    elems.append(element(sum(g.terms[0].exp[1:]), o, leading_term(o, g)))
                    kinds["tails"] += 1
            rng.shuffle(elems)
            kinds["negative"] += any(leading_term(o, g).coeff < 0 for g in elems)
            new = minimize(StandardBasis(tuple(Polynomial(g.terms) for g in elems), o))
            old = old_minimize(StandardBasis(tuple(Polynomial(g.terms) for g in elems), o))
            assert new.elements == old.elements, (o, elems)
            kinds["dropped"] += len(new.elements) < len(elems)
        assert min(kinds.values()) > 1000, kinds


class TestStepCap:
    """Every capped loop reads the one module attribute division.STEP_CAP
    when it runs, so lowering it there reaches them all."""

    def test_standard_basis_diverges_past_the_cap(self, monkeypatch):
        o = weighted_ordering((-1, 1, 1), 2)
        F = polys(XY, "2 - t", "x*y^2 - t^2*y^3", "x^2 - t^3*y^2")
        standard_basis(o, F)
        monkeypatch.setattr(tfan.division, "STEP_CAP", 2)
        with pytest.raises(DivisionDiverged, match=r"exceeded 2 (steps|pairs)"):
            standard_basis(o, F)

    @pytest.mark.parametrize("divide, loop", [
        (hddwr, "determinate division"),
        (mora_weak_nf, "weak normal form"),
    ], ids=["hddwr", "mora_weak_nf"])
    def test_division_diverges_past_the_cap(self, monkeypatch, divide, loop):
        o = lex_ordering(2)
        f, G = P("x^2 + x*y + y^2", XY), polys(XY, "x", "y")
        assert divide(o, f, G).remainder.is_zero
        monkeypatch.setattr(tfan.division, "STEP_CAP", 2)
        with pytest.raises(DivisionDiverged, match=f"{loop} exceeded 2 steps"):
            divide(o, f, G)


# Printed standard bases of rand1 and rand2 (members 1 and 2 of the stream)
# at the default start weight and at a flip's perturbed weight w + v/7, for
# the flip with facet point w and normal v.  The elements and their order
# depend on which pairs are processed in which order and on which reducer
# each head-reduction step picks.
FLIP_WEIGHTS = {
    "rand1": tuple(a + Fraction(b, 7) for a, b in zip((-4, -1, 0, 0), (0, 0, 1, -1))),
    "rand2": tuple(a + Fraction(b, 7) for a, b in zip((-3, -2, -1, 0), (0, 1, -2, 1))),
}
GOLDEN_BASES = {
    ("rand1", "start"): (
        't^3*x^3*y*z + t^3*y^5 + 5*t^3*y^3*z^2',
        '2*t*x^3 - t*y^3 - 2*t*y*z^2 - t^2*y*z^2',
        't*x^3 - t^2*x^3 + t*y^3 + 2*t*y*z^2 + t^2*y*z^2',
        '2*t^2*x^3 - t^2*y^3 - 5*t^2*y*z^2',
        '3 - t',
        '2*t^3*y^2 + t^3*y*z',
        't^3*y^2 - t^4*y^2 - t^3*y*z',
    ),
    ("rand1", "flip"): (
        '3 - t',
        '-2*t*x^3 + t*y^3 + 2*t*y*z^2 + t^2*y*z^2',
        '-2*t^2*x^3 + t^2*y^3 + 5*t^2*y*z^2',
        '2*t^3*y^2 + t^3*y*z',
        't^3*y^2 - t^4*y^2 - t^3*y*z',
        '4*t^3*x^3 + t^3*y^2*z - 10*t^3*y*z^2',
        '-8*t^3*x^3 + 21*t^3*y*z^2',
        '16*t^3*x^3*y + 8*t^3*x^3*z',
        '8*t^3*x^3*y + 4*t^3*x^3*z',
        '4*t^3*x^3*y + 2*t^3*x^3*z',
        '8*t^3*x^3 - 7*t^4*y*z^2',
        't^3*x^3 - 3*t^4*x^3 + 7*t^4*y*z^2',
        '24*t^3*x^6 + t^3*x^3*y*z^2 + 32*t^3*x^3*z^3',
        '128*t^3*x^6 + 168*t^3*x^3*z^3',
        '64*t^3*x^6 + 84*t^3*x^3*z^3',
        '32*t^3*x^6 + 42*t^3*x^3*z^3',
    ),
    ("rand2", "start"): (
        'x^2*y - x^2*z - 2*x*y^2 + 3*x*z^2',
        't^2*x^3*z - t^3*x^2*y*z + t*x^2*z^2 - t^2*x^2*z^2 - 4*t*x*y^2*z + 6*t*x*z^3',
        '-t^2*x^3*z + t^3*x^2*y*z + 2*t*x^2*z^2 + 4*t*x*y^2*z - 6*t*x*z^3',
        '-t^3*x^3*z + 3*t^3*x^2*y*z + 2*t^2*x^2*z^2 + 4*t^2*x*y^2*z - 6*t^2*x*z^3',
        '-2*t^3*x^3*z + 6*t^3*x^2*y*z + t^2*x^2*z^2 + t^3*x^2*z^2 + 8*t^2*x*y^2*z - 12*t^2*x*z^3',
        '5*t^3*x*y^2*z - 11*t^3*x*y*z^2 + 9*t^3*x*z^3',
        't^3*x*y^2*z + 11*t^3*x*y*z^2 - 9*t^3*x*z^3 - 22*t^3*y^3*z',
        '55*t^3*y^3*z - 121*t^3*y^2*z^2 + 99*t^3*y*z^3',
        't^2*x*z + t*y*z - t^2*y*z - t^3*y*z',
        '-t^2*x*z + 2*t*y*z + t^3*y*z',
        '-t^3*x*z + 2*t^2*y*z + 3*t^3*y*z',
        '-2*t^3*x*z + t^2*y*z + 7*t^3*y*z',
        '3 - t',
        '3*t^3*x*z - 11*t^3*y*z',
    ),
    ("rand2", "flip"): (
        '3 - t',
        'x^2*y - x^2*z - 2*x*y^2 + 3*x*z^2',
        '-x^2*y + x^2*z + 2*x*y^2 - t*x*z^2',
        't^2*x*z + t*y*z - t^2*y*z - t^3*y*z',
        '-t^2*x*z + 2*t*y*z + t^3*y*z',
        '-3*t^2*x*z + 2*t^2*y*z + 3*t^3*y*z',
        '-6*t^2*x*z + t^2*y*z + 7*t^3*y*z',
        't^2*x^3*z - 2*t*x^2*y^2 - t^3*x^2*y*z + 4*t*x*y^3 - 2*t^2*x*y*z^2',
        't^2*x^3*z - 2*t*x^2*y^2 - t^3*x^2*y*z + t*x*y^3 + t^2*x*y^3 - 2*t^2*x*y*z^2',
        '-3*t^3*x*z + 11*t^3*y*z',
        't^3*x^3*z - 2*t^2*x^2*y^2 - 3*t^3*x^2*y*z + 4*t^2*x*y^3 - 2*t^3*x*y*z^2',
        't^3*x^3*z - 2*t^2*x^2*y^2 - 3*t^3*x^2*y*z + t^2*x*y^3 + t^3*x*y^3 - 2*t^3*x*y*z^2',
        '4*t^3*x^2*y^2 - 4*t^3*x^2*y*z + 3*t^3*x^2*z^2 - 8*t^3*x*y^3 + t^3*x*y*z^2',
        '3*t^3*x^3*y - 17*t^3*x^2*y^2 + 22*t^3*x*y^3',
    ),
}


@pytest.mark.parametrize("name,weight", sorted(GOLDEN_BASES))
def test_standard_basis_golden(name, weight):
    ideal = prime_stream_member(int(name[-1]))
    w = (-1, 1, 1, 1) if weight == "start" else FLIP_WEIGHTS[name]
    sb = standard_basis(MonomialOrdering((w,), (0, 1, 2)), ideal.gens)
    assert tuple(format_poly(g, "xyz") for g in sb.elements) == GOLDEN_BASES[name, weight]


# --- integer ordering keys ---------------------------------------------------

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)
negative_fractions = st.fractions(min_value=-5, max_value=Fraction(-1, 7), max_denominator=7)
scales = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)


def rational_key(w, tiebreak, e):
    """The ordering's definition with the weight as given: w-degree, then
    alpha along the tiebreak, then the smaller t-power."""
    return (sum(c * x for c, x in zip(w, e)), tuple(e[1 + i] for i in tiebreak), -e[0])


@settings(max_examples=25, deadline=None)
@given(member=st.integers(0, 4), t_entry=negative_fractions,
       rest=st.lists(small_fractions, min_size=3, max_size=3), k=scales)
def test_scaled_weight_orders_and_completes_alike(member, t_entry, rest, k):
    ideal = prime_stream_member(member)
    tb = tuple(range(ideal.nvars))
    w = (t_entry,) + tuple(rest[:ideal.nvars])
    kw = tuple(k * c for c in w)
    sb = standard_basis(MonomialOrdering((w,), tb), ideal.gens)
    sb_k = standard_basis(MonomialOrdering((kw,), tb), ideal.gens)
    assert sb_k.elements == sb.elements
    exps = sorted({e for g in ideal.gens + sb.elements for _, e in g.terms})
    ranked = sorted(exps, key=lambda e: rational_key(w, tb, e))
    assert sorted(exps, key=MonomialOrdering((kw,), tb).key) == ranked


def test_ordering_equality_ignores_integer_weights():
    a = MonomialOrdering(((Fraction(-1, 2), Fraction(1, 3), 1),), (0, 1))
    b = MonomialOrdering(((Fraction(-1, 2), Fraction(1, 3), 1),), (0, 1))
    a.key((0, 1, 1))  # fills a's integer weights, not b's
    assert "_int_weights" in vars(a) and "_int_weights" not in vars(b)
    assert a == b and hash(a) == hash(b)
    assert a != MonomialOrdering(((-3, 2, 6),), (0, 1))


# --- completion against the loop it replaced ----------------------------------


def _hom_key(ord_):
    """The graded key (sum(e),) + ord_.key(e[1:]), memoised for one
    completion."""
    memo = {}

    def key(e):
        k = memo.get(e)
        if k is None:
            k = memo[e] = (sum(e),) + ord_.key(e[1:])
        return k

    return key


def _head_reduce_oracle(key, h, basis):
    """Weak head reduction of the Polynomial h on an ``exp -> coeff`` dict,
    against (leading term, element) pairs scanned in order."""
    acc = {e: c for c, e in h.terms}
    while acc:
        e = max(acc, key=key)
        c = acc[e]
        for lt, g in basis:
            if c % lt.coeff == 0 and exp_divides(lt.exp, e):
                break
        else:
            return Polynomial.from_terms((c, e) for e, c in acc.items())
        q = c // lt.coeff
        m = exp_div(e, lt.exp)
        for gc, ge in g.terms:
            ge = tuple(a + b for a, b in zip(ge, m))
            v = acc.get(ge, 0) - q * gc
            if v:
                acc[ge] = v
            else:
                del acc[ge]
    return Polynomial.zero()


def homogenize(f):
    """f with each term t^beta x^alpha as s^(top - beta) t^beta x^alpha,
    top the largest t-power of f; the exponent gains s in front."""
    top = max(e[0] for _, e in f.terms)
    return Polynomial.from_terms([(c, (top - e[0],) + e) for c, e in f.terms])


def dehomogenize(h):
    """h at s = 1."""
    return Polynomial.from_terms([(c, e[1:]) for c, e in h.terms])


def standard_basis_oracle(ord_, gens):
    """The completion loop with a key closure, candidates built as
    Polynomials by ``old_s_poly``/``old_gcd_poly`` and the reducer
    list rebuilt for every candidate: the oracle for ``standard_basis``,
    which must give the same elements in the same order.  It shares only
    the normalisation and the final order of the elements with the code it
    checks."""
    first = [normalize_element(ord_, f) for f in gens if not f.is_zero]
    key = _hom_key(ord_)
    G, lts, pending = [], [], []

    def add(h):
        G.append(h)
        lts.append(max(h.terms, key=lambda u: key(u.exp)))
        j = len(G) - 1
        for i in range(j):
            heappush(pending, (key(exp_lcm(lts[i].exp, lts[j].exp)), i, j))

    for f in first:
        h = homogenize(f)
        if h not in G:
            add(h)
    while pending:
        _, i, j = heappop(pending)
        a, b = lts[i].coeff, lts[j].coeff
        candidates = [old_s_poly(G[i], lts[i], G[j], lts[j])]
        if a % b != 0 and b % a != 0:
            candidates.append(old_gcd_poly(G[i], lts[i], G[j], lts[j]))
        for h in candidates:
            if h.is_zero:
                continue
            r = _head_reduce_oracle(key, h, list(zip(lts, G)))
            if not r.is_zero:
                add(r)
    out = []
    for h in G:
        f = normalize_element(ord_, dehomogenize(h))
        if f not in out:
            out.append(f)
    return sorted_basis(ord_, out)


@seed(9)
@settings(max_examples=30, deadline=None)
@given(member=st.integers(0, 4), t_entry=negative_fractions,
       rest=st.lists(small_fractions, min_size=3, max_size=3),
       tiebreak=st.permutations(range(3)),
       second=st.none() | st.lists(small_fractions, min_size=3, max_size=3))
# A pair whose GCD-candidate reduces by the S-remainder added just before it;
# about one random draw in fifty has one.
@example(member=1, t_entry=Fraction(-9, 7),
         rest=[Fraction(-6, 7), Fraction(14, 3), Fraction(-19, 6)], tiebreak=[2, 0, 1],
         second=None)
def test_standard_basis_matches_oracle(member, t_entry, rest, tiebreak, second):
    """One weight, or two as ``fan.flip`` orders: a facet point w, then a
    normal v with zero t-entry."""
    ideal = prime_stream_member(member)
    n = ideal.nvars
    o = MonomialOrdering(((t_entry,) + tuple(rest[:n]),),
                         tuple(i for i in tiebreak if i < n))
    if second is not None:
        o = o.with_weights(o.weights[0], (0,) + tuple(second[:n]))
    sb = standard_basis(o, ideal.gens)
    assert sb.elements == standard_basis_oracle(o, ideal.gens).elements


def test_generators_equal_once_normalised_enter_once(monkeypatch):
    """f, -f and (1 + t)*f normalise to f (the unit 1 + t is stripped, the
    sign fixed) and 0 is dropped, so the completion gets two inputs, the
    packed homogenisations of f and g, and gives the basis of <f, g>."""
    o = weighted_ordering((-1, 1, 1), 2)
    f, g = polys(XY, "x*y^2 - t^2*y^3", "x^2 - t^3*y^2")
    F = [f, -f, P("1 + t", XY) * f, Polynomial.zero(), g]
    packed = []
    complete = tfan.division._complete

    def recorded(pk, inputs):
        packed.append((pk, list(inputs)))
        return complete(pk, inputs)

    def homogenised(pk, h):
        top = max(e[0] for _, e in h.terms)
        return {pk.pack((top - e[0],) + e): c for c, e in h.terms}

    monkeypatch.setattr(tfan.division, "_complete", recorded)
    sb = standard_basis(o, F)
    [(pk, inputs)] = packed
    assert inputs == [homogenised(pk, f), homogenised(pk, g)]
    assert sb == standard_basis(o, [f, g])
    assert sb == standard_basis_oracle(o, F)


# --- packed exponents ------------------------------------------------------------

wide_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=10**9)


@st.composite
def orderings(draw):
    """Orderings in 1..4 variables with a random tiebreak and one weight, or
    two as ``fan.flip`` builds them, the second with zero t-entry, or none.
    Weight entries may have large denominators."""
    n = draw(st.integers(1, 4))
    entries = st.lists(small_fractions | wide_fractions, min_size=n, max_size=n)
    weights = [(draw(negative_fractions),) + tuple(draw(entries))]
    weights.append((0,) + tuple(draw(entries)))
    weights = weights[:draw(st.sampled_from([1, 2, 0]))]
    return MonomialOrdering(tuple(weights), tuple(draw(st.permutations(range(n)))))


def corners(width, total):
    """Exponents of the given total degree with all of it on one entry, or
    all but one on one entry and one on another: the extremes of every key
    field, where too small a radix would misorder."""
    out = []
    for i in range(width):
        for j in range(width):
            e = [0] * width
            e[i] += total - (i != j)
            e[j] += i != j
            out.append(tuple(e))
    return out


def packed_divides(pk, d, e):
    """The completion's divisibility test on packed exponents."""
    low = pk.pack(e) & pk.mask
    return (low + pk.guard - (pk.pack(d) & pk.mask)) & pk.guard == pk.guard


@seed(16)
@settings(max_examples=80, deadline=None)
@given(o=orderings(), degree=st.sampled_from([0, 2**40]), data=st.data())
def test_packing_matches_its_definition(o, degree, data):
    pk = _Packing(o, degree)
    width = o.nvars + 2
    assert pk.limit >= degree
    # small entries meet in ties of every key field; large ones and the
    # corners reach the limit
    entry = st.integers(0, 3) | st.integers(0, pk.limit // (2 * width))
    exps = st.lists(entry, min_size=width, max_size=width).map(tuple)
    es = data.draw(st.lists(exps, min_size=2, max_size=8)) + corners(width, pk.limit)
    graded = sorted(es, key=lambda e: (sum(e),) + o.key(e[1:]))
    assert sorted(es, key=pk.pack) == graded
    for d in es:
        for e in es:
            assert packed_divides(pk, d, e) == exp_divides(d, e)
    for e, m in zip(es, es[1:]):
        em = tuple(a + b for a, b in zip(e, m))
        if sum(em) <= pk.limit:
            assert pk.unpack(pk.pack(e) + pk.pack(m)) == em
            assert packed_divides(pk, e, em) and packed_divides(pk, m, em)
    past = es[-1][:-1] + (es[-1][-1] + 1,)
    with pytest.raises(DivisionDiverged, match=re.escape(str(past))):
        pk.pack(past)


def record_packings(monkeypatch):
    """The arguments of every ``_Packing`` made from here on."""
    made = []
    packing = tfan.division._Packing

    def recorded(*args):
        made.append(args)
        return packing(*args)

    monkeypatch.setattr(tfan.division, "_Packing", recorded)
    return made


def test_narrow_slots_widen_to_the_same_basis(monkeypatch):
    """A completion that meets an exponent past its packing's limit starts
    over with wider slots.  With slots of 3 bits (total degree at most 3)
    every completion here does, and each gives the basis it gives with the
    usual slots."""
    cases = []
    for k in range(4):
        ideal = prime_stream_member(k)
        for w in ((-1, 1, 1, 1), (-3, 1, 2, Fraction(1, 5))):
            o = MonomialOrdering((w[:1 + ideal.nvars],), tuple(range(ideal.nvars)))
            cases.append((o, ideal.gens, standard_basis(o, ideal.gens)))
    monkeypatch.setattr(tfan.division, "_SLOT_BITS", 3)
    made = record_packings(monkeypatch)
    for o, gens, sb in cases:
        assert standard_basis(o, gens) == sb
    assert len(made) >= 2 * len(cases)


def test_lcm_past_the_limit_widens(monkeypatch):
    """The inputs fit the usual slots, but the lcm x^N y^N of their leading
    terms does not: the completion starts over once, wider, and gives the
    basis that tuple exponents give."""
    made = record_packings(monkeypatch)
    N = 2**30
    o = weighted_ordering((-1, 1, 1), 2)
    F = polys(XY, "2 - t", f"x^{N} - t*y^{N}", f"y^{N} - t^2*x^{N}")
    assert standard_basis(o, F) == standard_basis_oracle(o, F)
    assert [args[1:] for args in made] == [(), (2 * (2 * N + 2),)]


def test_pair_loop_computes_no_ordering_keys(monkeypatch):
    """Keys of the ordering are computed only to sort the output, one per
    element: none in the pair loop, none to find the output's leading terms
    and none to normalise the inputs, whose signs are read off their packed
    terms.  With the key table the packed loop replaced, this completion
    computed 185 keys, 98 of them in the pair loop; the packed loop computes
    none there.  Searching the output for its leading terms took 87 keys in
    all; carrying them took 23, 9 of them for the inputs; packing the
    inputs first takes 14."""
    calls = {"all": 0, "loop": 0}
    inside = []
    key = MonomialOrdering.key
    complete = tfan.division._complete

    def counted_key(self, e):
        calls["all"] += 1
        calls["loop"] += bool(inside)
        return key(self, e)

    def counted_complete(*args):
        inside.append(True)
        try:
            return complete(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(MonomialOrdering, "key", counted_key)
    monkeypatch.setattr(tfan.division, "_complete", counted_complete)
    ideal = prime_stream_member(2)
    sb = standard_basis(MonomialOrdering(((-1, 1, 1, 1),), (0, 1, 2)), ideal.gens)
    assert len(sb.elements) == 14
    assert calls["loop"] == 0
    assert calls["all"] <= 14


# --- pair criteria over Z ------------------------------------------------------

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_coprime_leading_monomials_do_not_skip_the_s_pair():
    # 2x and 2y have coprime leading monomials but not coprime coefficients;
    # their S-remainder t*x^2 belongs to the basis, so a field-style product
    # criterion would lose it.
    o = MonomialOrdering(((-1, 1, 1),), (0, 1))
    F = polys(XY, "2*x", "2*y + t*x")
    sb = standard_basis(o, F)
    assert [format_poly(g, "xy") for g in sb.elements] == ["t*x^2", "2*x", "t*x + 2*y"]
    assert sb.elements == standard_basis_oracle(o, F).elements


def test_gcd_pair_criterion_skips_a_pair(monkeypatch):
    # 4xy and 6xz need a GCD-pair with leading term 2xyz, which 2x divides;
    # the pairs of 2x with both are treated first (smaller lcm), so the
    # GCD-candidate is never built.  The completion takes the Bezout
    # cofactors of a GCD-candidate from ``extended_gcd`` once per candidate
    # it builds, so counting those calls counts the candidates.
    built = []
    bezout = tfan.division.extended_gcd

    def counted(a, b):
        built.append((a, b))
        return bezout(a, b)

    monkeypatch.setattr(tfan.division, "extended_gcd", counted)
    o = weighted_ordering((-1, 1, 1, 1), 3)
    F = polys(XYZ, "2*x", "4*x*y + t*y^2", "6*x*z + t*z^2")
    sb = standard_basis(o, F)
    assert built == []
    assert sb.elements == standard_basis_oracle(o, F).elements
    # without 2x no third element covers the pair, and its candidate is built
    standard_basis(o, F[1:])
    assert built[0] == (4, 6)


def _corpus_ideals(corpus, group):
    """(nvars, generators) of the oracle comparison groups of the corpus."""
    if group == "generic":
        stream = corpus.generic_ideals(0)
        ideals = [next(stream) for _ in range(65)]
    elif group == "scale3":
        ideals = [corpus.scaling_ideal(3, s) for s in range(6)]
    else:
        ideals = [corpus.scaling_ideal(4, s) for s in (1, 4)]
    return [(n, [Polynomial.from_terms(g) for g in gens]) for n, _, gens in ideals]


@pytest.mark.parametrize("group", ["generic", "scale3", "scale4"])
def test_standard_basis_matches_oracle_on_corpus(group, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import corpus

    for n, gens in _corpus_ideals(corpus, group):
        o = MonomialOrdering(((-1,) + (1,) * n,), tuple(range(n)))
        assert standard_basis(o, gens).elements == \
            standard_basis_oracle(o, gens).elements


@pytest.mark.parametrize("name", ["flip", "rand1", "scale3-4", "scale3-5"])
def test_pair_certificate_on_benchmark_cones(name, monkeypatch):
    """At one interior weight of each maximal cone of the benchmark fan, every
    S-pair and every needed GCD-pair of the basis, built by polynomial
    arithmetic, has weak normal form zero."""
    monkeypatch.syspath_prepend(BENCH)
    import checks
    import corpus

    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    params = ref["params"]
    cases = corpus.prime_cases(params["prime_corpus_seed"], params["scaling_seeds"],
                               ref["prime_keep"])
    text = dict(cases)[name]
    problem = parse_problem(text)
    rng = random.Random(13)
    for rays, lin in ref["fans"][name]["cones"]:
        w = checks.interior_weight(rays, lin, rng)
        o = MonomialOrdering((w,), problem.tiebreak)
        assert_pairs_reduce_to_zero(o, standard_basis(o, problem.gens).elements)


def test_pair_criteria_halve_head_reductions(monkeypatch):
    calls = []
    head_reduce = tfan.division._head_reduce

    def counted(*args):
        calls.append(args)
        return head_reduce(*args)

    monkeypatch.setattr(tfan.division, "_head_reduce", counted)
    ideal = prime_stream_member(2)
    sb = standard_basis(MonomialOrdering(((-1, 1, 1, 1),), (0, 1, 2)), ideal.gens)
    assert len(sb.elements) == 14
    assert len(calls) <= 55  # 110 without the criteria


# --- the completion kernel against the loop it replaced -----------------------


def old_complete(pk, inputs):
    """The completion loop ``_complete`` replaced: treated pairs as byte
    flags that the chain test reads for every element, pair keys packed
    from the lcm tuple, and both criteria of a pair decided before either
    of its candidates is reduced.  It calls ``_pair_candidate``,
    ``_head_reduce`` and ``extended_gcd`` through the module, so counters
    patched in there see both loops."""
    D = tfan.division
    mask, guard = pk.mask, pk.guard
    reducers, lt_exps, pending, treated = [], [], [], []

    def add(lead, terms):
        e = pk.unpack(lead)
        j = len(reducers)
        for i, lt in enumerate(lt_exps):
            heappush(pending, (pk.pack(exp_lcm(lt, e)), i, j))
        reducers.append((terms[lead], guard - (lead & mask), lead, tuple(terms.items())))
        lt_exps.append(e)
        treated.append(bytearray(j))

    def chained(i, j, c, low):
        for k, (lc, gap, _, _) in enumerate(reducers):
            if c % lc == 0 and (low + gap) & guard == guard and k != i and k != j \
                    and (treated[k][i] if i < k else treated[i][k]) \
                    and (treated[k][j] if j < k else treated[j][k]):
                return True
        return False

    for terms in inputs:
        add(max(terms), terms)
    while pending:
        pm, i, j = heappop(pending)
        treated[j][i] = 1
        f, g = reducers[i], reducers[j]
        a, b = abs(f[0]), abs(g[0])
        d = gcd(a, b)
        low = pm & mask
        cofactors = []
        if d != 1 or any(map(min, lt_exps[i], lt_exps[j])):
            c = a // d * b
            if not chained(i, j, c, low):
                cofactors.append((c // f[0], -(c // g[0])))
        if d != a and d != b and not chained(i, j, d, low):
            cofactors.append(D.extended_gcd(f[0], g[0])[1:])
        for u, v in cofactors:
            acc = D._pair_candidate(u, f, v, g, pm)
            if acc:
                r = D._head_reduce(pk, acc, reducers)
                if not r.is_zero:
                    add(r.lead, r.terms)
    return reducers


KERNEL_CALLS = ("_pair_candidate", "_head_reduce", "extended_gcd")


def recorded_completions(monkeypatch, runs):
    """(packing, inputs) of every completion that the calls ``runs`` start,
    those that stop at an lcm past the limit included."""
    seen = []
    complete = tfan.division._complete

    def recorded(pk, inputs):
        seen.append((pk, inputs))
        return complete(pk, inputs)

    monkeypatch.setattr(tfan.division, "_complete", recorded)
    for run in runs:
        run()
    monkeypatch.setattr(tfan.division, "_complete", complete)
    return seen


def counting(counts, name, fn):
    def counted(*args):
        counts[name] += 1
        return fn(*args)
    return counted


def kernel_runs(group, monkeypatch):
    """Calls that start the completions over Z of one group: the
    generators' standard bases at one seeded interior weight of each of the
    42 prime benchmark cones (the inputs that the groebner_cone_at queries
    there complete up to units), the fans of the 5 prime benchmark cases
    and of the first 10 generic ones, or the fans of scaling_ideal(3, s)
    for s = 0..5."""
    if group == "prime-cones":
        return [lambda p=problem, w=w: standard_basis(MonomialOrdering((w,), p.tiebreak), p.gens)
                for _, problem, w in prime_benchmark_cones(monkeypatch, random.Random(27))]
    corpus, _ = bench_modules(monkeypatch)
    if group == "fans":
        with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
            ref = json.load(fh)
        params = ref["params"]
        texts = [text for _, text in corpus.prime_cases(
            params["prime_corpus_seed"], params["scaling_seeds"], ref["prime_keep"])]
        generic = corpus.generic_cases(params["generic_corpus_seed"],
                                       {int(k) for k in ref["generic_excluded"]})
        texts += [text for _, text in generic[:10]]
    else:
        texts = [corpus.problem_text(*corpus.scaling_ideal(3, s)) for s in range(6)]
    problems = [parse_problem(text) for text in texts]
    return [lambda p=p: groebner_fan(p.ideal(), tiebreak=p.tiebreak) for p in problems]


@pytest.mark.parametrize("bits", [32, 3])
@pytest.mark.parametrize("group", ["prime-cones", "fans", "scale3"])
def test_kernel_decides_as_the_loop_it_replaced(group, bits, monkeypatch):
    """Every completion of the group, with the usual slots or with 3-bit
    ones (where about one completion in five stops at an lcm past the
    limit and starts over): ``_complete`` gives the old loop's packed elements in the
    same order, or stops at an lcm of the same degree, and builds, reduces
    and takes Bezout cofactors for as many candidates.  The one exception:
    a stopped completion may take one set of cofactors fewer."""
    monkeypatch.setattr(tfan.division, "_SLOT_BITS", bits)
    completions = recorded_completions(monkeypatch, kernel_runs(group, monkeypatch))
    counts = Counter()
    for name in KERNEL_CALLS:
        monkeypatch.setattr(tfan.division, name,
                            counting(counts, name, getattr(tfan.division, name)))
    seen = Counter()
    for pk, inputs in completions:
        runs = []
        for complete in (tfan.division._complete, old_complete):
            counts.clear()
            try:
                out = complete(pk, inputs)
            except _PastLimit as exc:
                out = ("past the limit", exc.degree)
            runs.append((out, counts.copy()))
        (new, new_calls), (old, old_calls) = runs
        assert new == old
        if new[0] == "past the limit":
            # the old loop took the Bezout cofactors of a pair's
            # GCD-candidate before its S-remainder joined and met the lcm
            # past the limit, and never built that candidate
            seen["past the limit"] += 1
            assert old_calls["extended_gcd"] - new_calls["extended_gcd"] in (0, 1)
            old_calls["extended_gcd"] = new_calls["extended_gcd"]
        assert +new_calls == +old_calls
        seen.update(new_calls)
    assert all(seen[name] for name in KERNEL_CALLS)
    assert bool(seen["past the limit"]) == (bits == 3)


def test_lcm_degree_boundary_restarts_once(monkeypatch):
    """With 3-bit slots the limit of total degree is 3.  The homogenised
    leading exponents of the inputs are y^2 (degree 2), s*y^2 (3) and x (1),
    in that order.  y^2 and s*y^2 sum past the limit, but their lcm s*y^2
    has degree 3, on it; x and y^2 sum to 3, the limit; x and s*y^2 sum to
    4, one past it, and their lcm s*x*y^2 has degree 4.  Only that lcm is
    past the limit, so the completion starts over exactly once, sized for
    twice its degree, and gives the oracle's basis."""
    o = weighted_ordering((-1, 1, 1), 2)
    F = polys(XY, "y^2", "2*y^2 - t*y^2", "x")
    expected = standard_basis_oracle(o, F)
    monkeypatch.setattr(tfan.division, "_SLOT_BITS", 3)
    made = record_packings(monkeypatch)
    assert standard_basis(o, F) == expected
    assert [args[1:] for args in made] == [(), (8,)]


@st.composite
def division_problems(draw):
    """(ordering, dividend, divisors) on which determinate division ends,
    in two or three variables.  Every divisor is x-homogeneous and weighted
    homogeneous for one weight w = (-1, a) (the initial forms the lift
    divides by are, for a facet point), so a step keeps the x-degree and
    w-degree of the term it reduces, and only finitely many terms share
    them; a dividend is a sum of terms, each its own such class.  The
    ordering is any t-local one.  The dividend mixes free terms, which may
    stay in the remainder, with term multiples of the divisors;
    coefficients take both signs."""
    n = draw(st.integers(2, 3))
    coeff = st.integers(-4, 4).filter(bool)
    a = draw(st.tuples(*[st.integers(0, 3)] * n))
    o = MonomialOrdering(((draw(st.integers(-3, -1)),)
                          + draw(st.tuples(*[st.integers(-3, 3)] * n)),),
                         tuple(draw(st.permutations(range(n)))))
    divisors = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(1, 2))
        alphas = draw(st.lists(st.tuples(*[st.integers(0, d)] * n).filter(
            lambda al: sum(al) == d), min_size=1, max_size=3, unique=True))
        degs = [sum(map(mul, a, al)) for al in alphas]
        low = min(degs) - draw(st.integers(0, 2))
        divisors.append(Polynomial.from_terms((draw(coeff), (deg - low,) + al)
                                              for al, deg in zip(alphas, degs)))
    exps = st.tuples(*[st.integers(0, 3)] * (1 + n))
    f = Polynomial.from_terms((c, e) for e, c in draw(
        st.dictionaries(exps, coeff, max_size=5)).items())
    for _ in range(draw(st.integers(0, 3))):
        g = draw(st.sampled_from(divisors))
        f = f + g.term_mul(draw(coeff), draw(st.tuples(*[st.integers(0, 2)] * (1 + n))))
    return o, f, tuple(divisors)


@seed(21)
@settings(max_examples=300, deadline=None)
@given(problem=division_problems())
@example(problem=(lex_ordering(2), P("3*x^2*y + 2*x*y - t*y^2 + 5", XY),
                  polys(XY, "2*x + y", "-3*y", "x")))
def test_hddwr_matches_polynomial_division(problem):
    """The dict kernel of ``hddwr`` takes the oracle's steps: the same
    quotients and the same remainder."""
    o, f, G = problem
    res = hddwr(o, f, G)
    assert res == old_hddwr(o, f, G)
    check_division_identity(o, f, G, res)
