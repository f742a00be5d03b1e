import itertools
import random
import re
from fractions import Fraction

import pytest

import tfan.cone
import tfan.fan
import tfan.inred
from tfan import (
    Ideal,
    InvalidInput,
    MonomialOrdering,
    NonGenericWeight,
    Polynomial,
    StandardBasis,
    WitnessFailed,
    boundary_fan,
    contains,
    dd_rays,
    equal,
    flip,
    groebner_cone_at,
    groebner_fan,
    initial_form,
    intersect,
    is_face,
    leading_term,
    lift,
    make_cone,
    relative_interior_point,
    weighted_ordering,
    witness,
)
from tfan.cli import parse_problem
from tfan.fan import (
    bad_meets,
    lineality_misses,
    sampled_weights,
    uncovered_weights,
    unpaired_facets,
)

from helpers import (
    DOCTORED_FLAGS,
    P,
    XY,
    XYZ,
    bench_modules,
    demo_problem,
    doctored_fig1_fans,
    old_cone_from_basis,
    old_facets,
    old_hddwr,
    polys,
    prime_benchmark_cones,
    random_prime_ideal,
    time_limit,
)


def section3_data():
    o = weighted_ordering((-1, 3, 3, 3), 3)
    G = StandardBasis(polys(XYZ, "x - t^3*x + t^3*z - t^4*z", "y - t^3*y + t^2*z - t^4*z"), o)
    w = (-1, 2, -1, 1)
    H = tuple(initial_form(w, g) for g in G.elements)
    return o, G, w, H


class TestWitness:
    def test_initial_form_lifts_to_generator(self):
        o, G, w, H = section3_data()
        f = witness(P("x", XYZ), H, G)
        assert f == G.elements[0]

    def test_listed_initial_form(self):
        o, G, w, H = section3_data()
        assert witness(H[0], H, G) == G.elements[0]

    def test_term_multiple(self):
        o, G, w, H = section3_data()
        h = H[0].term_mul(1, (2, 0, 0, 0))  # t^2 * x
        f = witness(h, H, G)
        assert initial_form(w, f) == h

    def test_witness_failed_outside_initial_ideal(self):
        o, G, w, H = section3_data()
        with pytest.raises(WitnessFailed):
            witness(P("z", XYZ), H, G)


class TestLift:
    def test_identity_lift(self):
        o, G, w, H = section3_data()
        lifted = lift(StandardBasis(H, o), H, G)
        assert set(lifted.elements) == set(G.elements)

    def test_flip_example_lift(self):
        o = weighted_ordering((-1, 1, 1), 2)
        G = StandardBasis(polys(XY, "2 - t", "x*y^2 - t^2*y^3", "x^2 - t^3*y^2", "t^3*y^4"), o)
        w = (-4, 1, 7)
        H = tuple(initial_form(w, g) for g in G.elements)
        ord2 = o.with_weights(w, (3, 5, 1))
        H_new = polys(XY, "2", "x*y^2", "t^3*y^2 - x^2", "x^3")
        lifted = lift(StandardBasis(H_new, ord2), H, G)
        assert set(lifted.elements) == set(polys(
            XY, "2 - t", "x*y^2 - t^2*y^3", "-x^2 + t^3*y^2", "x^3 - t^5*y^3"))

    def test_3cone_lift_returns_same_polynomials(self):
        o = weighted_ordering((-1, 1, 1, 1), 3)
        G = StandardBasis(polys(XYZ, "x + z", "y + z"), o)
        w = (-1, 0, 1, 0)
        H = tuple(initial_form(w, g) for g in G.elements)
        assert H == polys(XYZ, "x + z", "y")
        ord2 = o.with_weights(w, (0, -1, 0, 1))
        lifted = lift(StandardBasis(H, ord2), H, G)
        assert set(lifted.elements) == set(G.elements)


class TestFlip:
    def test_golden_flip(self):
        o = weighted_ordering((-1, 1, 1), 2)
        G = StandardBasis(polys(XY, "2 - t", "x*y^2 - t^2*y^3", "x^2 - t^3*y^2", "t^3*y^4"), o)
        w = (-4, 1, 7)
        H = [initial_form(w, g) for g in G.elements]
        assert H == list(polys(XY, "2", "x*y^2", "x^2 - t^3*y^2", "t^3*y^4"))
        G2 = flip(G, (3, 5, 1), w)
        ord2 = G2.ordering
        got = {g if leading_term(ord2, g).coeff > 0 else -g for g in G2.elements}
        assert got == set(polys(XY, "2 - t", "x*y^2 - t^2*y^3", "t^3*y^2 - x^2",
                                "x^3 - t^5*y^3"))
        old = {leading_term(o, g) for g in G.elements}
        new = {leading_term(ord2, g) for g in G2.elements}
        assert old != new

    def test_flip_rejects_a_point_outside_the_closed_cone(self):
        # at (-1, 1, 7) the initial form of x*y^2 - t^2*y^3 is -t^2*y^3, so
        # the point is not in the cone of G, whose leading term is x*y^2
        o = weighted_ordering((-1, 1, 1), 2)
        G = StandardBasis(polys(XY, "2 - t", "x*y^2 - t^2*y^3", "x^2 - t^3*y^2"), o)
        with pytest.raises(InvalidInput, match=re.escape(
                "facet point (-1, 1, 7) is not in the closed cone of the basis: the initial "
                "form of element 1 misses its leading term 1*t^0*x^(1, 2)")):
            flip(G, (3, 5, 1), (-1, 1, 7))

    def test_double_flip_round_trip(self):
        # crossing the same facet twice lands on a cone equal to the original
        ideal = Ideal(polys(XY, "t*x^2 + x*y + t*y^2"), 2)
        fanres = groebner_fan(ideal)
        mid = next(c for c in fanres.maximal_cones
                   if c.initial_forms[0] == P("x*y", XY))
        from tfan.cone import facets, relative_interior_point
        facet = next(f for f in facets(mid.hcone) if not f.in_boundary)
        w = relative_interior_point(facet.cone)
        from tfan.fan import _cone_from_adjacent
        other = _cone_from_adjacent(flip(mid.basis, facet.outer_normal, w), None)
        back_normal = tuple(-x for x in facet.outer_normal)
        back = _cone_from_adjacent(flip(other.basis, back_normal, w), None)
        assert equal(back.hcone, mid.hcone)

    def test_3cone_first_flip_leading_ideal(self):
        o = weighted_ordering((-1, 1, 1, 1), 3)
        G = StandardBasis(polys(XYZ, "x + z", "y + z"), o)
        w = (-1, 0, 1, 0)
        from tfan.fan import _cone_from_adjacent
        cone = _cone_from_adjacent(flip(G, (0, -1, 0, 1), w), None)
        lead = {leading_term(cone.basis.ordering, g) for g in cone.basis.elements}
        assert {(c, e[1:]) for c, e in lead} == {(1, (0, 0, 1)), (1, (0, 1, 0))}


class TestGroebnerConeAt:
    def test_section3_cone(self):
        o = weighted_ordering((-1, 3, 3, 3), 3)
        gc = groebner_cone_at(o, polys(XYZ, "x - t^3*x + t^3*z - t^4*z",
                                       "y - t^3*y + t^2*z - t^4*z"))
        assert gc.hcone.ineqs == ((-3, 1, 0, -1), (-2, 0, 1, -1))
        assert gc.interior_weight == (-1, 3, 3, 3)

    def test_fig1_middle(self):
        o = weighted_ordering((-1, 1, 1), 2)
        gc = groebner_cone_at(o, polys(XY, "t*x^2 + x*y + t*y^2"))
        assert gc.initial_forms == (P("x*y", XY),)
        assert set(gc.hcone.ineqs) == {(-1, -1, 1), (-1, 1, -1)}

    def test_single_term_halfspace(self):
        o = weighted_ordering((-1, 1, 1), 2)
        gc = groebner_cone_at(o, polys(XY, "3*t^2*x*y"))
        assert gc.hcone.ineqs == () and gc.data.dim == 3

    def test_nongeneric_weight_gives_lower_dimensional_cone(self):
        o = weighted_ordering((-1, 2, -1, 1), 3)  # lies on a facet
        gc = groebner_cone_at(o, polys(XYZ, "x - t^3*x + t^3*z - t^4*z",
                                       "y - t^3*y + t^2*z - t^4*z"))
        assert gc.hcone.eqs == ((-2, 0, 1, -1),) and gc.data.dim == 3
        assert max(len(h.terms) for h in gc.initial_forms) == 2


class TestFan:
    def test_principal_ideal_three_cones(self):
        result = groebner_fan(Ideal(polys(XY, "t*x^2 + x*y + t*y^2"), 2))
        assert len(result.maximal_cones) == 3
        leads = {c.initial_forms[0] for c in result.maximal_cones}
        assert leads == set(polys(XY, "t*x^2", "x*y", "t*y^2"))
        for c in result.maximal_cones:
            assert (0, 1, 1) in c.data.lineality
        outer = [c for c in result.maximal_cones
                 if c.initial_forms[0] != P("x*y", XY)]
        meet = intersect(outer[0].hcone, outer[1].hcone)
        for g in list(dd_rays(meet).rays) + list(dd_rays(meet).lineality):
            assert g[0] == 0

    def test_linear_ideal_three_cones_not_four(self):
        result = groebner_fan(Ideal(polys(XYZ, "x + z", "y + z"), 3))
        assert len(result.maximal_cones) == 3
        leads = {frozenset((c, e[1:]) for c, e in
                           (leading_term(gc.basis.ordering, g) for g in gc.basis.elements))
                 for gc in result.maximal_cones}
        assert leads == {
            frozenset({(1, (1, 0, 0)), (1, (0, 1, 0))}),  # <x, y>
            frozenset({(1, (0, 0, 1)), (1, (0, 1, 0))}),  # <z, y>
            frozenset({(1, (0, 0, 1)), (1, (1, 0, 0))}),  # <z, x>
        }

    def test_constant_ideal_single_halfspace(self):
        result = groebner_fan(Ideal(polys(XY, "5"), 2))
        assert len(result.maximal_cones) == 1
        assert result.maximal_cones[0].data.dim == 3

    def test_order_independence(self):
        ideal = Ideal(polys(XYZ, "x + z", "y + z"), 3)
        a = groebner_fan(ideal)
        b = groebner_fan(ideal, start_weight=(-2, 3, -1, 1))
        keys_a = [c.canonical_key() for c in a.maximal_cones]
        keys_b = [c.canonical_key() for c in b.maximal_cones]
        assert keys_a == keys_b

    def test_adjacent_cones_share_facet(self):
        result = groebner_fan(Ideal(polys(XYZ, "x + z", "y + z"), 3))
        cones = result.maximal_cones
        for i, j, facet in result.adjacency:
            meet = intersect(cones[i].hcone, cones[j].hcone)
            assert equal(meet, facet)
            assert is_face(facet, cones[i].hcone)
            assert is_face(facet, cones[j].hcone)

    def test_coverage_sampled(self):
        result = groebner_fan(Ideal(polys(XY, "t*x^2 + x*y + t*y^2"), 2))
        rng = random.Random(1)
        weights = [(-Fraction(rng.randint(1, 20), rng.randint(1, 4)),
                    Fraction(rng.randint(-20, 20), rng.randint(1, 4)),
                    Fraction(rng.randint(-20, 20), rng.randint(1, 4))) for _ in range(300)]
        assert uncovered_weights([c.hcone for c in result.maximal_cones], weights) == []

    def test_random_prime_ideal_fan(self):
        rng = random.Random(2)
        ideal = random_prime_ideal(rng)
        result = groebner_fan(ideal)
        assert len(result.maximal_cones) >= 1

    def test_worked_ideal_six_cones(self):
        # richer fan: where t-terms lead, lifted bases gain elements whose
        # reduced forms need unit multipliers (e.g. x + t*x - t*y)
        gens = polys(XYZ, "x - t^3*x + t^3*z - t^4*z", "y - t^3*y + t^2*z - t^4*z")
        result = groebner_fan(Ideal(gens, 3))
        assert len(result.maximal_cones) == 6
        bases = [set(c.basis.elements) for c in result.maximal_cones]
        assert {P("y + t*y + t^2*y + t^2*z + t^3*z", XYZ),
                P("x + t*x - t*y", XYZ)} in bases
        # order independence from a second generic start
        again = groebner_fan(Ideal(gens, 3), start_weight=(-2, -5, 1, 3))
        assert [c.canonical_key() for c in again.maximal_cones] == \
               [c.canonical_key() for c in result.maximal_cones]
        # sampled coverage as the independent cross-check of completeness
        rng = random.Random(9)
        weights = [(-Fraction(rng.randint(1, 30), rng.randint(1, 3)),
                    *[Fraction(rng.randint(-30, 30), rng.randint(1, 3)) for _ in range(3)])
                   for _ in range(400)]
        assert uncovered_weights([c.hcone for c in result.maximal_cones], weights) == []

    def test_leading_ideal_stable_on_cone_interior(self):
        # two interior weights of one cone give the same leading-term ideal
        from tfan import standard_basis, minimize
        gens = polys(XYZ, "x - t^3*x + t^3*z - t^4*z", "y - t^3*y + t^2*z - t^4*z")
        o1 = weighted_ordering((-1, 3, 3, 3), 3)
        gc = groebner_cone_at(o1, gens)
        w2 = relative_interior_point(gc.hcone)
        assert contains(gc.hcone, w2)
        o2 = weighted_ordering(w2, 3)
        lts1 = {leading_term(o1, g) for g in minimize(standard_basis(o1, gens)).elements}
        lts2 = {leading_term(o2, g) for g in minimize(standard_basis(o2, gens)).elements}
        assert lts1 == lts2

    def test_boundary_weight_keeps_leading_term_inside_initial_form(self):
        # for w in the cone (even on its boundary) the leading term of every
        # basis element survives as the leading term of its initial form
        o = weighted_ordering((-1, 3, 3, 3), 3)
        gens = polys(XYZ, "x - t^3*x + t^3*z - t^4*z", "y - t^3*y + t^2*z - t^4*z")
        gc = groebner_cone_at(o, gens)
        for w in ((-1, 3, 3, 3), (-1, 2, -1, 1)):
            assert contains(gc.hcone, w)
            for g in gc.basis.elements:
                assert leading_term(o, initial_form(w, g)) == leading_term(o, g)


class TestBoundaryFan:
    def test_fig1_boundary(self):
        result = groebner_fan(Ideal(polys(XY, "t*x^2 + x*y + t*y^2"), 2))
        bcones = boundary_fan(result)
        for bc in bcones:
            data = dd_rays(bc)
            for g in list(data.rays) + list(data.lineality):
                assert g[0] == 0
        # the middle cone meets the boundary in the lineality line R*(0,1,1)
        dims = sorted(dd_rays(bc).dim for bc in bcones)
        assert dims == [1, 2, 2]

    def test_halfspace_boundary(self):
        result = groebner_fan(Ideal(polys(XY, "5"), 2))
        bcones = boundary_fan(result)
        assert len(bcones) == 1
        assert dd_rays(bcones[0]).dim == 2  # all of {0} x R^2

    def test_boundary_cones_form_a_fan_and_cover(self):
        for gens, n in ((polys(XY, "t*x^2 + x*y + t*y^2"), 2),
                        (polys(XYZ, "x + z", "y + z"), 3)):
            bcones = boundary_fan(groebner_fan(Ideal(gens, n)))
            assert bad_meets(bcones) == []
            rng = random.Random(4)
            weights = [(0, *[Fraction(rng.randint(-20, 20), rng.randint(1, 4))
                             for _ in range(n)]) for _ in range(200)]
            assert uncovered_weights(bcones, weights) == []


def _hcones(fan_res):
    return [c.hcone for c in fan_res.maximal_cones]


INVARIANTS = {
    "coverage": lambda f: uncovered_weights(
        _hcones(f), sampled_weights(random.Random(0), 2, 200)),
    "face-to-face": lambda f: bad_meets(_hcones(f)),
    "lineality-ones": lambda f: lineality_misses(_hcones(f)),
    "facet-pairs": unpaired_facets,
}


class TestInvariantsFlagDoctoredFans:
    @pytest.fixture(scope="class")
    def doctored(self):
        return doctored_fig1_fans()

    @pytest.mark.parametrize("broken", list(INVARIANTS))
    def test_only_the_broken_invariant_flags(self, doctored, broken):
        for name, check in INVARIANTS.items():
            assert bool(check(doctored[broken])) == (name in DOCTORED_FLAGS[broken]), name

    def test_offending_items(self, doctored):
        dropped = doctored["face-to-face"].maximal_cones[0].hcone
        missed = uncovered_weights(_hcones(doctored["coverage"]),
                                   sampled_weights(random.Random(0), 2, 200))
        assert missed and all(contains(dropped, w) for w in missed)
        assert bad_meets(_hcones(doctored["face-to-face"])) == [(0, 1)]
        assert lineality_misses(_hcones(doctored["lineality-ones"])) == [0, 1]
        real = _hcones(doctored["coverage"])
        assert lineality_misses([make_cone(3, ineqs=[(0, 1, 0)])] + real) == [0]
        # fig1's first ADJ pair (0, 1) is dropped: both cones flag their shared facet
        flagged = unpaired_facets(doctored["facet-pairs"])
        assert [c for c, _ in flagged] == [0, 1]
        assert flagged[0][1] == tuple(-x for x in flagged[1][1])


def test_carried_leading_terms_match_recomputed(monkeypatch):
    """The leading terms that ``standard_basis``, ``lift`` and initial
    reduction keep on the elements they build, without searching for them,
    are the terms a search over each element finds: at one query per
    benchmark cone, and along the whole benchmark fans, the fans of seeded
    random prime ideals and the generic demo fans.  Initial reduction is
    checked on what ``ensure_initially_reduced`` and ``initially_reduce``
    return, ``standard_basis`` on what the flip completes."""
    checked = {"standard_basis": 0, "lift": 0, "inred": 0}

    def assert_carried(stage, basis):
        ord_ = basis.ordering
        for f in basis.elements:
            assert f._lt is not None and f._lt[0] is ord_, (stage, f)
            assert f._lt[1] == max(f.terms, key=lambda t: ord_.key(t.exp)), (stage, f)
            checked[stage] += 1

    def checking(stage, fn):
        def wrapper(*args):
            out = fn(*args)
            assert_carried(stage, out)
            return out
        return wrapper

    monkeypatch.setattr(tfan.fan, "standard_basis",
                        checking("standard_basis", tfan.fan.standard_basis))
    monkeypatch.setattr(tfan.fan, "lift", checking("lift", tfan.fan.lift))
    for name in ("ensure_initially_reduced", "initially_reduce"):
        monkeypatch.setattr(tfan.fan, name, checking("inred", getattr(tfan.fan, name)))
    cones = prime_benchmark_cones(monkeypatch, random.Random(20))
    ideals = {}
    for _, problem, w in cones:
        groebner_cone_at(MonomialOrdering((w,), problem.tiebreak), problem.gens, problem.prime)
        ideals[problem.ideal()] = problem.tiebreak
    rng = random.Random(20)
    for _ in range(8):
        ideals[random_prime_ideal(rng)] = None
    for name in ("fig1", "linear", "worked3"):
        problem = demo_problem(name)
        assert problem.prime is None
        ideals[problem.ideal()] = problem.tiebreak
    for ideal, tiebreak in ideals.items():
        groebner_fan(ideal, tiebreak=tiebreak)
    assert len(cones) == 42 and all(checked.values()), checked


# --- the flip path: pass-through lift, facet keys, errors -------------------


def flip_cases(monkeypatch):
    """(name, ideal, tiebreak) of the four demo fans, eight seeded random
    prime-regime ideals and the first twelve members of the generic stream
    ``corpus.generic_ideals(9)``."""
    out = []
    for name in ("fig1", "flip", "linear", "worked3"):
        problem = demo_problem(name)
        out.append((name, problem.ideal(), problem.tiebreak))
    rng = random.Random(20)
    out += [(f"prime20-{k}", random_prime_ideal(rng), None) for k in range(8)]
    corpus, _ = bench_modules(monkeypatch)
    for k, spec in enumerate(itertools.islice(corpus.generic_ideals(9), 12)):
        problem = parse_problem(corpus.problem_text(*spec))
        out.append((f"generic9-{k}", problem.ideal(), problem.tiebreak))
    return out


def division_only_lift(H_new, H, G):
    """Every element of ``H_new`` witnessed through G by the polynomial
    division oracle, with no element passed through."""
    out = []
    for h in H_new.elements:
        q, r = old_hddwr(G.ordering, h, H)
        assert r.is_zero
        out.append(sum((qi * gi for qi, gi in zip(q, G.elements)), Polynomial.zero()))
    return tuple(out)


def test_lift_equals_division_only_lift(monkeypatch):
    """Along every flip, each lifted element is the witness the division
    oracle gives, and ``witness`` runs once for each element of ``H_new``
    that is not among the initial forms H: every other one passes
    through."""
    original_lift, original_witness = tfan.fan.lift, tfan.fan.witness
    counts = {"witness": 0, "not in H": 0, "in H": 0, "lifts": 0}

    def counting_witness(*args):
        counts["witness"] += 1
        return original_witness(*args)

    def checking_lift(H_new, H, G):
        out = original_lift(H_new, H, G)
        assert out.ordering is H_new.ordering
        assert out.elements == division_only_lift(H_new, H, G)
        counts["not in H"] += sum(h not in H for h in H_new.elements)
        counts["in H"] += sum(h in H for h in H_new.elements)
        counts["lifts"] += 1
        return out

    monkeypatch.setattr(tfan.fan, "witness", counting_witness)
    monkeypatch.setattr(tfan.fan, "lift", checking_lift)
    for name, ideal, tiebreak in flip_cases(monkeypatch):
        before = dict(counts)
        fan = groebner_fan(ideal, tiebreak=tiebreak)
        assert counts["lifts"] - before["lifts"] == len(fan.maximal_cones) - 1, name
        witnessed = counts["witness"] - before["witness"]
        assert witnessed == counts["not in H"] - before["not in H"], name
    assert counts["witness"] and counts["in H"], counts


def test_lift_divides_a_kept_form_whose_leading_term_an_earlier_one_divides(monkeypatch):
    """x*y is an initial form, but the earlier form x has a leading term that
    term-divides its own, so division reduces it by x first and the
    witness is y*(x + t*y), not the basis element x*y it came from."""
    o = weighted_ordering((-1, 1, 1), 2)
    G = StandardBasis(polys(XY, "x + t*y", "x*y"), o)
    H = tuple(initial_form((-1, 1, 1), g) for g in G.elements)
    assert H == polys(XY, "x", "x*y")
    witnessed = []
    original = tfan.fan.witness

    def counting(*args):
        witnessed.append(args[0])
        return original(*args)

    monkeypatch.setattr(tfan.fan, "witness", counting)
    lifted = lift(StandardBasis(H[1:], o), H, G)
    assert lifted.elements == polys(XY, "x*y + t*y^2")
    assert witnessed == [H[1]]
    # with the forms the other way round, x*y passes through to its element
    witnessed.clear()
    G2 = StandardBasis(G.elements[::-1], o)
    assert lift(StandardBasis(H[1:], o), H[::-1], G2).elements == polys(XY, "x*y")
    assert witnessed == []


def test_facet_key_misses_fall_back_to_the_same_fan(monkeypatch):
    """With a key that never finds a neighbour, every facet takes the
    containment scan, and the traversal gives the same fan with no cone
    twice."""
    cases = flip_cases(monkeypatch)
    _, checks = bench_modules(monkeypatch)
    want = [checks.fingerprint(groebner_fan(ideal, tiebreak=tiebreak))
            for _, ideal, tiebreak in cases]
    # each facet object's key is its own, so only its own cone registers it
    monkeypatch.setattr(tfan.cone.Facet, "key", property(lambda facet: (id(facet),)))
    scans = []
    original = tfan.fan.contains

    def counting(*args):
        scans.append(args[1])
        return original(*args)

    monkeypatch.setattr(tfan.fan, "contains", counting)
    for (name, ideal, tiebreak), expected in zip(cases, want):
        with time_limit(30):  # a fallback that added cones twice would never end
            fan = groebner_fan(ideal, tiebreak=tiebreak)
        assert checks.fingerprint(fan) == expected, name
        keys = [c.canonical_key() for c in fan.maximal_cones]
        assert len(set(keys)) == len(keys), name
    assert scans


@pytest.mark.parametrize("name", ["fig1", "flip", "worked3"])
def test_facet_points_only_on_key_misses(monkeypatch, name):
    """A facet's relative interior point is computed once per flip, and the
    containment scan tests no other point: every facet met from its second
    side finds its neighbour by key."""
    flips, points, scanned = [], [], []
    original_flip = tfan.fan.flip
    original_point = tfan.fan.relative_interior_point
    original_contains = tfan.fan.contains

    def counting_flip(*args):
        flips.append(args)
        return original_flip(*args)

    def recording_point(cone):
        w = original_point(cone)
        if cone.eqs:  # a facet; the adjacent cone's own point has no equation rows
            points.append(w)
        return w

    def recording_contains(cone, w):
        scanned.append(w)
        return original_contains(cone, w)

    monkeypatch.setattr(tfan.fan, "flip", counting_flip)
    monkeypatch.setattr(tfan.fan, "relative_interior_point", recording_point)
    monkeypatch.setattr(tfan.fan, "contains", recording_contains)
    problem = demo_problem(name)
    fan = groebner_fan(problem.ideal(), tiebreak=problem.tiebreak)
    assert len(points) == len(flips) == len(fan.maximal_cones) - 1
    assert all(w in points for w in scanned)


def searched_leading_term(ord_, f):
    """f's leading term under ``ord_`` by a search over its terms."""
    return max(f.terms, key=lambda t: ord_.key(t.exp))


def assert_carries(ord_, f, what):
    """f keeps its searched leading term under ``ord_`` (the same object)."""
    kept = f._lt
    assert kept is not None and kept[0] is ord_, (what, f)
    assert kept[1] == searched_leading_term(ord_, f), (what, f)


def test_flip_carries_the_leading_terms_it_finds(monkeypatch):
    """Along every flip of the ``flip_cases`` fans: each element of a
    re-anchored cone basis keeps its leading term under the basis ordering;
    each initial form H_k that reaches ``lift`` keeps its own leading term
    under G's ordering (G_k's); and the elements of H_new and of the
    lifted basis keep theirs under H_new's ordering."""
    original_adjacent, original_lift = tfan.fan._cone_from_adjacent, tfan.fan.lift
    counts = {"re-anchored": 0, "H": 0, "H_new": 0, "lifted": 0}

    def checking_adjacent(G_new, prime):
        cone = original_adjacent(G_new, prime)
        for g in cone.basis.elements:
            assert_carries(cone.basis.ordering, g, "re-anchored")
            counts["re-anchored"] += 1
        return cone

    def checking_lift(H_new, H, G):
        for h in H:
            assert_carries(G.ordering, h, "H")
            counts["H"] += 1
        for h in H_new.elements:
            assert_carries(H_new.ordering, h, "H_new")
            counts["H_new"] += 1
        out = original_lift(H_new, H, G)
        for g in out.elements:
            assert_carries(out.ordering, g, "lifted")
            counts["lifted"] += 1
        return out

    monkeypatch.setattr(tfan.fan, "_cone_from_adjacent", checking_adjacent)
    monkeypatch.setattr(tfan.fan, "lift", checking_lift)
    for name, ideal, tiebreak in flip_cases(monkeypatch):
        groebner_fan(ideal, tiebreak=tiebreak)
    assert all(counts.values()), counts


def test_cone_layer_matches_the_oracles(monkeypatch):
    """``cone_from_basis``, reading skeleton rows off the canonical term
    order, gives the rows of the ``t_skeleton`` route, and ``facets``, with
    one deduplication of the inequalities, gives the facets of the
    thrice-deduplicating one (cone rows, outer normals, boundary flags and
    keys): on every cone of the ``flip_cases`` fans, and on the cones at
    one query weight of each of the 42 prime-regime benchmark cones."""
    original_from_basis, original_facets = tfan.fan.cone_from_basis, tfan.fan.facets
    counts = {"cone_from_basis": 0, "facets": 0}

    def summary(facet_list):
        return [(f.cone, f.outer_normal, f.in_boundary, f.key) for f in facet_list]

    def checking_from_basis(basis, forms):
        hc = original_from_basis(basis, forms)
        want = old_cone_from_basis(basis, forms)
        assert (hc.ineqs, hc.eqs) == (want.ineqs, want.eqs)
        counts["cone_from_basis"] += 1
        return hc

    def checking_facets(hc):
        out = original_facets(hc)
        assert summary(out) == summary(old_facets(hc))
        counts["facets"] += 1
        return out

    monkeypatch.setattr(tfan.fan, "cone_from_basis", checking_from_basis)
    monkeypatch.setattr(tfan.fan, "facets", checking_facets)
    cones = 0
    for name, ideal, tiebreak in flip_cases(monkeypatch):
        cones += len(groebner_fan(ideal, tiebreak=tiebreak).maximal_cones)
    queries = prime_benchmark_cones(monkeypatch, random.Random(22))
    for _, problem, w in queries:
        cone = groebner_cone_at(MonomialOrdering((w,), problem.tiebreak),
                                problem.gens, problem.prime)
        checking_facets(cone.hcone)
    assert len(queries) == 42
    assert counts["facets"] == cones + 42
    assert counts["cone_from_basis"] >= cones + 42


def key_cost(ord_, fs):
    """The ordering keys that reading the leading keys of fs under ``ord_``
    computes: the exponents not yet in its memo, among the kept leading
    term of each element that keeps one under ``ord_`` and every term of
    each element that keeps none."""
    exps = set()
    for f in fs:
        kept = f._lt
        if kept is not None and kept[0] is ord_:
            exps.add(kept[1].exp)
        else:
            exps.update(t.exp for t in f.terms)
    return len(exps - ord_._keys.keys())


@pytest.mark.parametrize("name, budget", [("fig1", 3), ("worked3", 38), ("flip", 36),
                                          ("gen022", 205)])
def test_key_budget_of_a_fan(monkeypatch, name, budget):
    """Ordering keys computed over a whole fan stay within the measured
    budget, a key counting when its exponent is not yet in the ordering's
    memo.  ``sorted_basis`` computes exactly what ``key_cost`` charges the
    elements it reads, so at most one key per element that keeps its
    leading term, ``minimize`` only the searches for leading terms that are
    not kept, and ``lift``, outside its divisions, none.  The fans
    are three demos and the generic benchmark fan gen022.  Before leading
    terms and keys were carried along the flip, fig1 and worked3 took 33
    and 224 keys; before the prime regime reduced the completion's views
    and skeleton scans keyed only reducible terms, the four took 9, 95, 103
    and 636; before both regimes ran on pairs carrying the keys of the
    lift, 3, 69, 50 and 330; before orderings kept their own keys, 3, 38,
    37 and 240."""
    stack = [{"keys": 0}]
    total = [0]
    key = MonomialOrdering.key

    def counted_key(self, e):
        if e not in self._keys:
            total[0] += 1
            stack[-1]["keys"] += 1
        return key(self, e)

    def staged(fn, expected):
        def wrapper(*args):
            frame = {"keys": 0}
            want = expected(*args)
            stack.append(frame)
            try:
                return fn(*args)
            finally:
                stack.pop()
                assert want is None or frame["keys"] == want, (fn.__name__, frame["keys"], want)
        return wrapper

    def sorted_basis_cost(ord_, elems):
        return key_cost(ord_, elems)

    def minimize_cost(basis):
        # minimize reads leading terms; its sorted_basis reads the keys
        ord_ = basis.ordering
        return key_cost(ord_, [g for g in basis.elements
                               if g._lt is None or g._lt[0] is not ord_])

    monkeypatch.setattr(MonomialOrdering, "key", counted_key)
    for module in (tfan.division, tfan.inred):
        monkeypatch.setattr(module, "sorted_basis",
                            staged(module.sorted_basis, sorted_basis_cost))
    for module in (tfan.division, tfan.fan):
        monkeypatch.setattr(module, "minimize", staged(module.minimize, minimize_cost))
    monkeypatch.setattr(tfan.fan, "lift", staged(tfan.fan.lift, lambda *args: 0))
    # a witness's division computes keys of remainder exponents, not of elements
    monkeypatch.setattr(tfan.fan, "witness", staged(tfan.fan.witness, lambda *args: None))
    if name.startswith("gen"):
        corpus, _ = bench_modules(monkeypatch)
        spec = next(itertools.islice(corpus.generic_ideals(0), int(name[3:]), None))
        problem = parse_problem(corpus.problem_text(*spec))
    else:
        problem = demo_problem(name)
    fan = groebner_fan(problem.ideal(), tiebreak=problem.tiebreak)
    assert len(fan.maximal_cones) > 1
    assert total[0] <= budget


def test_witness_failure_names_the_form_and_the_remainder_term():
    o, G, w, H = section3_data()
    with pytest.raises(WitnessFailed, match=re.escape(
            "lifting the form with leading term 1*t^0*x^(0, 0, 1) left the term "
            "1*t^0*x^(0, 0, 1) undivided")):
        witness(P("z", XYZ), H, G)
    with pytest.raises(WitnessFailed, match=re.escape(
            "lifting the form with leading term 1*t^0*x^(1, 0, 0) left the term "
            "-1*t^0*x^(0, 0, 1) undivided")):
        witness(P("x - z", XYZ), H, G)


@pytest.mark.parametrize("point, message", [
    ((0, 1, 1), "no interior weight below the boundary: the re-anchored weight "
                "(0, 1, 1) has t-entry >= 0"),
    ((-1, 1, 2), "re-anchored weight (-1, 1, 2) is not interior"),
], ids=["boundary", "not-interior"])
def test_adjacent_cone_errors_name_the_reanchored_weight(monkeypatch, point, message):
    """fig1's middle cone crossed to a side cone, re-anchored at a weight on
    the boundary hyperplane or at one on the facet just crossed."""
    from tfan.cone import facets
    from tfan.fan import _cone_from_adjacent
    fan = groebner_fan(Ideal(polys(XY, "t*x^2 + x*y + t*y^2"), 2))
    mid = next(c for c in fan.maximal_cones if c.initial_forms[0] == P("x*y", XY))
    facet = next(f for f in facets(mid.hcone) if not f.in_boundary)
    w = relative_interior_point(facet.cone)
    flipped = flip(mid.basis, facet.outer_normal, w)
    assert contains(facet.cone, point) or point[0] == 0
    monkeypatch.setattr(tfan.fan, "relative_interior_point", lambda cone: point)
    with pytest.raises(NonGenericWeight, match=re.escape(message)):
        _cone_from_adjacent(flipped, None)


def test_start_weight_error_names_the_base_weight_and_the_attempts(monkeypatch):
    """Every start attempt reads a cone with equation rows."""
    gens = polys(XYZ, "x - t^3*x + t^3*z - t^4*z", "y - t^3*y + t^2*z - t^4*z")
    lower = groebner_cone_at(weighted_ordering((-1, 2, -1, 1), 3), gens)
    assert lower.hcone.eqs
    attempts = []

    def lower_cone(ordering, *args):
        attempts.append(ordering.weights[0])
        return lower

    monkeypatch.setattr(tfan.fan, "groebner_cone_at", lower_cone)
    with pytest.raises(NonGenericWeight, match=re.escape(
            "the base weight (-2, 5, 1, 3) and its perturbations gave a cone with "
            "equations in all 200 attempts")):
        groebner_fan(Ideal(gens, 3), start_weight=(-2, 5, 1, 3))
    assert len(attempts) == len(set(attempts)) == 200
    assert attempts[0] == (-2, 5, 1, 3)
