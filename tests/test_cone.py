import hashlib
import os
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from tfan import (
    HCone,
    InvalidInput,
    StandardBasis,
    affine_slice,
    boundary_cone,
    cone_from_basis,
    contains,
    dd_rays,
    dim,
    equal,
    facets,
    groebner_fan,
    initial_form,
    intersect,
    is_face,
    make_cone,
    relative_interior_point,
    weighted_ordering,
)
import tfan.fan
from tfan import cone
from tfan.cli import parse_problem, render_cone
from tfan.exact import dot, primitive, vneg

from helpers import XY, XYZ, old_vscale as vscale, old_vsub as vsub, polys, prime_stream_member
from test_exact import kernel_oracle, rref_oracle

DEMO_IDEALS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "demos", "ideals")


def section3_cone():
    o = weighted_ordering((-1, 3, 3, 3), 3)
    G = polys(XYZ, "x - t^3*x + t^3*z - t^4*z", "y - t^3*y + t^2*z - t^4*z")
    H = tuple(initial_form((-1, 3, 3, 3), g) for g in G)
    return cone_from_basis(StandardBasis(G, o), H)


def flip_cone():
    o = weighted_ordering((-1, 1, 1), 2)
    G = polys(XY, "2 - t", "x*y^2 - t^2*y^3", "x^2 - t^3*y^2", "t^3*y^4")
    H = tuple(initial_form((-1, 1, 1), g) for g in G)
    return cone_from_basis(StandardBasis(G, o), H)


class TestConeFromBasis:
    def test_section3_rows(self):
        hc = section3_cone()
        assert hc.ineqs == ((-3, 1, 0, -1), (-2, 0, 1, -1))
        assert hc.eqs == ()

    def test_facet_weight_produces_equation(self):
        o = weighted_ordering((-1, 3, 3, 3), 3)
        G = polys(XYZ, "x - t^3*x + t^3*z - t^4*z", "y - t^3*y + t^2*z - t^4*z")
        H = tuple(initial_form((-1, 2, -1, 1), g) for g in G)
        hc = cone_from_basis(StandardBasis(G, o), H)
        assert hc.eqs == ((-2, 0, 1, -1),)

    def test_single_term_gives_halfspace(self):
        o = weighted_ordering((-1, 1, 1), 2)
        G = polys(XY, "3*t^2*x*y")
        hc = cone_from_basis(StandardBasis(G, o), G)
        assert hc.ineqs == () and hc.eqs == ()
        assert dim(hc) == 3


class TestDD:
    def test_halfspace(self):
        hc = make_cone(2)
        data = dd_rays(hc)
        assert data.rays == ((-1, 0),)
        assert data.lineality == ((0, 1),)
        assert data.dim == 2

    def test_positive_quadrant_rays(self):
        hc = make_cone(3, ineqs=[(0, 1, 0), (0, 0, 1)])
        data = dd_rays(hc)
        assert (0, 1, 0) in data.rays and (0, 0, 1) in data.rays
        assert (-1, 0, 0) in data.rays
        assert data.lineality == ()

    def test_section3_lineality_contains_ones(self):
        data = dd_rays(section3_cone())
        assert data.lineality == ((0, 1, 1, 1),)
        assert data.dim == 4

    def test_round_trip(self):
        hc = section3_cone()
        data = dd_rays(hc)
        rebuilt = make_cone(4, ineqs=hc.ineqs, eqs=hc.eqs)
        assert equal(hc, rebuilt)
        for r in data.rays:
            assert contains(hc, r)

    def test_v_to_h_round_trip(self):
        # rebuild an H-description from the facet normals plus the span's
        # orthogonal complement; it must cut out the same cone
        from tfan.exact import kernel_basis
        for hc in (section3_cone(), flip_cone(), make_cone(2)):
            data = dd_rays(hc)
            gens = list(data.rays) + list(data.lineality)
            rows = [tuple(-x for x in f.outer_normal) for f in facets(hc)]
            eqs = kernel_basis(gens, hc.dim_ambient)
            rebuilt = make_cone(hc.dim_ambient, rows, eqs)
            assert equal(rebuilt, hc)

    def test_randomised_round_trip_and_soundness(self):
        # fuzz the double description: every generator satisfies the rows,
        # random nonnegative combinations stay inside, and rebuilding the
        # H-description from facet normals reproduces the cone exactly
        import random

        from tfan.exact import dot, kernel_basis
        rng = random.Random(17)
        for _ in range(30):
            d = rng.randint(2, 4)
            rows = [tuple(rng.randint(-3, 3) for _ in range(d))
                    for _ in range(rng.randint(0, 4))]
            eqs = [tuple(rng.randint(-2, 2) for _ in range(d))
                   for _ in range(rng.randint(0, 1))]
            hc = make_cone(d, rows, eqs)
            data = dd_rays(hc)
            gens = list(data.rays) + list(data.lineality)
            for g in gens:
                assert contains(hc, g)
            for l in data.lineality:
                assert contains(hc, tuple(-x for x in l))
            for _ in range(10):
                pt = tuple(0 for _ in range(d))
                for r in data.rays:
                    lam = rng.randint(0, 3)
                    pt = tuple(p + lam * x for p, x in zip(pt, r))
                for l in data.lineality:
                    lam = rng.randint(-3, 3)
                    pt = tuple(p + lam * x for p, x in zip(pt, l))
                assert contains(hc, pt)
            if gens:
                rebuilt = make_cone(d, [tuple(-x for x in f.outer_normal)
                                        for f in facets(hc)],
                                    kernel_basis(gens, d))
                assert equal(rebuilt, hc)


class TestFacets:
    def test_flip_cone_facet_through_paper_point(self):
        hc = flip_cone()
        fs = [f for f in facets(hc) if not f.in_boundary]
        w = (-4, 1, 7)
        hits = [f for f in fs if contains(f.cone, w)]
        assert len(hits) == 1
        facet = hits[0]
        # the outer normal points the same way as the reference vector (3,5,1)
        row = tuple(-x for x in facet.outer_normal)
        assert sum(a * b for a, b in zip(row, (3, 5, 1))) < 0
        data = dd_rays(hc)
        for r in data.rays:
            assert sum(a * b for a, b in zip(facet.outer_normal, r)) <= 0

    def test_halfplane_single_boundary_facet(self):
        hc = make_cone(2)
        fs = facets(hc)
        assert len(fs) == 1
        assert fs[0].in_boundary

    def test_pointed_cone_two_facets(self):
        hc = make_cone(2, ineqs=[(-1, 0), (-1, 1)])  # between rays (-1,0),(-1,1)
        fs = facets(hc)
        assert len(fs) == 2

    def test_facet_normals_nonpositive_on_rays(self):
        hc = section3_cone()
        data = dd_rays(hc)
        for facet in facets(hc):
            tight = 0
            for r in data.rays:
                v = sum(a * b for a, b in zip(facet.outer_normal, r))
                assert v <= 0
                if v == 0:
                    tight += 1
            assert tight >= 1


class TestInteriorPoint:
    def test_section3_interior(self):
        hc = section3_cone()
        w = relative_interior_point(hc)
        assert w[0] < 0
        assert contains(hc, w)
        # strictly inside: every row not tight on the whole cone is > 0 at w
        data = dd_rays(hc)
        gens = data.rays + data.lineality
        for a in hc.all_ineq_rows():
            if any(dot(a, g) != 0 for g in gens):
                assert dot(a, w) > 0
        assert contains(hc, (-1, 3, 3, 3))

    def test_facet_point_satisfies_equation(self):
        hc = flip_cone()
        facet = next(f for f in facets(hc) if contains(f.cone, (-4, 1, 7)))
        w = relative_interior_point(facet.cone)
        assert w[0] < 0
        # on the facet hyperplane, strictly inside the other row
        row = tuple(-x for x in facet.outer_normal)
        assert sum(a * b for a, b in zip(row, w)) == 0
        assert contains(hc, w)
        # the hand-picked facet point passes the same membership checks
        assert contains(facet.cone, (-4, 1, 7))

    def test_lineality_only_cone(self):
        hc = make_cone(2, eqs=[(0, 1)])  # the line {v1 = 0}, v0 <= 0
        w = relative_interior_point(hc)
        assert w[0] < 0 and contains(hc, w)


class TestPredicates:
    def test_contains_on_facet(self):
        assert contains(section3_cone(), (-1, 2, -1, 1))

    def test_unreduced_cone_excludes_point_true_cone_contains(self):
        o = weighted_ordering((-1, 1, 1, 1), 3)
        raw = polys(XYZ, "2 - t", "x + t^2*y + t^3*z", "y + t*x + t^2*z")
        raw_H = tuple(initial_form((-1, 1, 1, 1), g) for g in raw)
        naive = cone_from_basis(StandardBasis(raw, o), raw_H)
        w = (-1, 2, 0, 1)
        assert not contains(naive, w)
        reduced = polys(XYZ, "2 - t", "x - t^3*x + t^3*z - t^4*z", "y - t^3*y + t^2*z - t^4*z")
        red_H = tuple(initial_form((-1, 1, 1, 1), g) for g in reduced)
        true_cone = cone_from_basis(StandardBasis(reduced, o), red_H)
        assert contains(true_cone, w)

    def test_equal_reflexive(self):
        hc = section3_cone()
        assert equal(hc, hc)

    def test_intersect_and_face(self):
        hc = section3_cone()
        facet = facets(hc)[0]
        meet = intersect(hc, facet.cone)
        assert equal(meet, facet.cone)
        assert is_face(facet.cone, hc)

    def test_boundary_cone_is_flat(self):
        bc = boundary_cone(section3_cone())
        data = dd_rays(bc)
        for g in list(data.rays) + list(data.lineality):
            assert g[0] == 0


class TestSlice:
    def test_halfspace_slice_is_whole_hyperplane(self):
        hc = make_cone(3)
        sl = affine_slice(hc, [(0, -1)])
        assert sl.vertices == ((-1, 0, 0),)
        assert sl.rays == ()
        assert set(sl.lines) == {(0, 1, 0), (0, 0, 1)}

    def test_fig1_middle_cone_slice(self):
        o = weighted_ordering((-1, 1, 1), 2)
        g = polys(XY, "t*x^2 + x*y + t*y^2")
        H = tuple(initial_form((-1, 1, 1), f) for f in g)
        hc = cone_from_basis(StandardBasis(g, o), H)
        sl = affine_slice(hc, [(0, -1)])
        assert set(sl.vertices) == {(-1, -1, 0), (-1, 1, 0)}
        assert sl.lines == ((0, 1, 1),)

    def test_recession_equals_boundary_cone(self):
        hc = section3_cone()
        sl = affine_slice(hc, [(0, -1)])
        bcone = boundary_cone(hc)
        # H-representation identity: same rows plus {v0 = 0}
        assert equal(bcone, make_cone(4, ineqs=hc.ineqs, eqs=hc.eqs + ((1, 0, 0, 0),)))
        # the slice's recession directions are exactly the boundary cone
        for r in sl.rays:
            assert contains(bcone, r)
        for l in sl.lines:
            assert contains(bcone, l)
            assert contains(bcone, tuple(-x for x in l))
        # and the generator sets agree exactly (same double description)
        bdata = dd_rays(bcone)
        assert set(bdata.rays) == set(sl.rays)
        assert set(bdata.lineality) == set(sl.lines)

    def test_shared_facet_geometry_between_neighbours(self):
        # middle and right cones of the principal-ideal fan share one facet
        g = polys(XY, "t*x^2 + x*y + t*y^2")
        mid = cone_from_basis(StandardBasis(g, weighted_ordering((-1, 1, 1), 2)),
                              (initial_form((-1, 1, 1), g[0]),))
        right = cone_from_basis(StandardBasis(g, weighted_ordering((-1, -3, 0), 2)),
                                (initial_form((-1, -3, 0), g[0]),))
        meet = intersect(mid, right)
        assert is_face(meet, mid) and is_face(meet, right)
        assert dim(meet) == dim(mid) - 1


def test_slice_empty_fix_out_of_range():
    with pytest.raises(InvalidInput):
        affine_slice(make_cone(2), [(5, 1)])


def test_infeasible_slice_is_empty_not_an_error():
    sl = affine_slice(make_cone(2), [(0, 1)])  # t = 1 against t <= 0
    assert sl == ((), (), ())


# ---------------------------------------------------------------------------
# The rational double description sweep, kept as the oracle for cone._dd
# ---------------------------------------------------------------------------


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def adjacent_oracle(r1, r2, rays, imposed):
    """Combinatorial adjacency: no third ray is tight on every constraint
    tight at both r1 and r2."""
    z = [a for a in imposed if dot(a, r1) == 0 and dot(a, r2) == 0]
    for r in rays:
        if r is r1 or r is r2:
            continue
        if all(dot(a, r) == 0 for a in z):
            return False
    return True


def dd_oracle(ineq_rows, eq_rows, dim):
    """Double description over Q with adjacency from dot products; returns
    (rays, lineality_basis).  Its elimination is the Fraction oracle of
    ``test_exact``, so it shares none with ``cone._dd``."""
    L = kernel_oracle(eq_rows, dim)
    R = []
    imposed = []
    for a in ineq_rows:
        vals_l = [dot(a, l) for l in L]
        if any(v != 0 for v in vals_l):
            i0 = next(i for i, v in enumerate(vals_l) if v != 0)
            l0 = L[i0] if vals_l[i0] > 0 else vneg(L[i0])
            v0 = abs(vals_l[i0])
            L = [vsub(l, vscale(Fraction(dot(a, l), 1) / v0, l0))
                 for i, l in enumerate(L) if i != i0]
            R = [vsub(r, vscale(Fraction(dot(a, r), 1) / v0, l0)) for r in R]
            R.append(l0)
        else:
            vals = [dot(a, r) for r in R]
            if any(v < 0 for v in vals):
                plus = [(r, v) for r, v in zip(R, vals) if v > 0]
                zero = [r for r, v in zip(R, vals) if v == 0]
                minus = [(r, v) for r, v in zip(R, vals) if v < 0]
                new = [r for r, _ in plus] + zero
                for rp, vp in plus:
                    for rm, vm in minus:
                        if adjacent_oracle(rp, rm, R, imposed):
                            new.append(vadd(vscale(vp, rm), vscale(-vm, rp)))
                R = []
                seen = set()
                for r in new:
                    if any(x != 0 for x in r):
                        p = primitive(r)
                        if p not in seen:
                            seen.add(p)
                            R.append(p)
        imposed.append(a)
    rays = sorted({primitive(r) for r in R if any(x != 0 for x in r)})
    lin_rows, _ = rref_oracle(L)
    lineality = tuple(primitive(row) for row in lin_rows)
    return tuple(rays), lineality


def demo_fan(name):
    with open(os.path.join(DEMO_IDEALS, name + ".ideal"), encoding="utf-8") as fh:
        problem = parse_problem(fh.read())
    return groebner_fan(problem.ideal(), tiebreak=problem.tiebreak)


def rand2_fan():
    ideal = prime_stream_member(2)
    return groebner_fan(ideal, tiebreak=tuple(range(ideal.nvars)))


def swept_rays(rows, eqs, d):
    """(rays, lineality) of one ``cone._dd`` sweep, the shape of ``dd_oracle``."""
    data = cone._dd(rows, eqs, d)
    return data.rays, data.lineality


entries = st.integers(-4, 4)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), d=st.integers(2, 5), scale=st.fractions(1, 5, max_denominator=4))
def test_dd_matches_rational_oracle(data, d, scale):
    rows = data.draw(st.lists(st.tuples(*[entries] * d), max_size=8))
    eqs = data.draw(st.lists(st.tuples(*[entries] * d), max_size=2))
    # equation rows may be rational, as affine_slice passes them
    eqs = [tuple(scale * x for x in e) for e in eqs]
    assert swept_rays(rows, eqs, d) == dd_oracle(rows, eqs, d)


@pytest.mark.parametrize("name", ["fig1", "flip", "linear", "worked3"])
def test_dd_matches_rational_oracle_on_demo_facets(name):
    for mc in demo_fan(name).maximal_cones:
        for hc in [mc.hcone] + [f.cone for f in facets(mc.hcone)]:
            rows = list(hc.all_ineq_rows())
            assert swept_rays(rows, list(hc.eqs), hc.dim_ambient) == \
                dd_oracle(rows, list(hc.eqs), hc.dim_ambient)


# sha256 of the render_cone texts of every maximal cone, joined by newlines,
# in fan order; recorded from the rational sweep.  Any change of ray
# scaling, sign or order shows here.
GOLDEN_CONES = {
    "fig1": (3, "c6d0e427ae29cfdb0502521d874c14b2166767ada239455e6da5f28360772525"),
    "flip": (3, "a5bd13d2921de9bee0048cb3c65268824a409dbcbb5e39f6b99660523aeb3ccc"),
    "linear": (3, "2e906f648acbf0b3a3451dbe2ea6df5983e547ee2c05ffcb6ac5b3bf9535b11b"),
    "worked3": (6, "9a972ba9fac1faee72663ea8f2da06128670e3e58bcfb7277ead31da0c0f381f"),
    "rand2": (20, "cc58a3fa44240e3de82bbd03d5ed399278256333962d74b2550a696b1c597e7c"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONES))
def test_golden_cone_blocks(name):
    fan = rand2_fan() if name == "rand2" else demo_fan(name)
    text = "\n".join(render_cone(c.hcone) for c in fan.maximal_cones)
    assert (len(fan.maximal_cones), hashlib.sha256(text.encode()).hexdigest()) == \
        GOLDEN_CONES[name]


# ---------------------------------------------------------------------------
# Facets: the rank-based rule kept as the oracle, and the V-description each
# facet carries from its parent
# ---------------------------------------------------------------------------


def facets_oracle(hc):
    """Facets by rank: a row defines one when its tight rays together with
    the lineality span one dimension less than the cone.  Rows tight on
    every ray are implied equations; the first row of each tight set is
    kept.  Its ranks come from ``test_exact``'s Fraction ``rref_oracle``."""
    data = dd_rays(hc)
    if data.dim < 1:
        return []
    out = []
    seen_tight = []
    for a in sorted({primitive(r) for r in hc.all_ineq_rows() if any(r)}):
        tight = [r for r in data.rays if dot(a, r) == 0]
        if len(tight) == len(data.rays):
            continue
        if len(rref_oracle(tight + list(data.lineality))[0]) != data.dim - 1:
            continue
        if set(tight) in seen_tight:
            continue
        seen_tight.append(set(tight))
        fc = make_cone(hc.dim_ambient, hc.ineqs, hc.eqs + (a,))
        out.append((vneg(a), all(r[0] == 0 for r in tight), fc.ineqs, fc.eqs))
    return sorted(out)


@st.composite
def random_cones(draw):
    """make_cone of dimension 2-5; the last `free` coordinates are zero in
    every row, so `free` > 0 forces lineality, and 0-2 equations."""
    d = draw(st.integers(2, 5))
    free = draw(st.integers(0, d - 1))
    row = st.tuples(*[entries] * (d - free), *[st.just(0)] * free)
    return make_cone(d, draw(st.lists(row, min_size=1, max_size=8)),
                     draw(st.lists(st.tuples(*[entries] * d), max_size=2)))


def assert_facet_data_is_fresh_sweep(hc):
    for f in facets(hc):
        fc = f.cone
        assert fc._data == dd_rays(make_cone(fc.dim_ambient, fc.ineqs, fc.eqs))
        tight_sum = tuple(sum(col) for col in zip(*fc._data.rays)) or \
            (0,) * fc.dim_ambient
        assert contains(fc, tight_sum)


def facet_summary(hc):
    return [(f.outer_normal, f.in_boundary, f.cone.ineqs, f.cone.eqs)
            for f in facets(hc)]


@seed(12)
@settings(max_examples=500, deadline=None)
@given(hc=random_cones())
def test_facet_data_equals_fresh_sweep(hc):
    assert_facet_data_is_fresh_sweep(hc)


@seed(13)
@settings(max_examples=500, deadline=None)
@given(hc=random_cones())
def test_facets_match_rank_oracle(hc):
    assert facet_summary(hc) == facets_oracle(hc)


@pytest.mark.parametrize("hc", [
    make_cone(3, eqs=[(1, 0, 0)]),                          # lineality only
    make_cone(3, eqs=[(0, 1, 0), (0, 0, 1)]),               # one ray
    make_cone(3, ineqs=[(0, 1, 0), (0, -1, 0), (0, 0, 1)]),  # implied v_1 = 0
    make_cone(3, eqs=[(1, 0, 0), (0, 1, 0), (0, 0, 1)]),    # the origin
    section3_cone(),
    flip_cone(),
], ids=["lineality-only", "single-ray", "implied-equation", "origin",
        "section3", "flip"])
def test_facets_special_cones(hc):
    assert facet_summary(hc) == facets_oracle(hc)
    assert_facet_data_is_fresh_sweep(hc)


def test_cone_built_directly_gets_canonical_facets():
    """A cone built without ``make_cone`` (rational, repeated and zero
    rows) is swept on integral rows, and its facets are those of its
    canonical form."""
    rows = ((0, 2, 0), (0, Fraction(1, 3), 0), (0, 0, 1), (0, 0, 0), (-1, 0, 0))
    direct, canonical = HCone(3, rows), make_cone(3, rows)
    assert not direct._canonical and canonical._canonical
    d1, d2 = dd_rays(direct), dd_rays(canonical)
    assert (d1.rays, d1.lineality, d1.dim) == (d2.rays, d2.lineality, d2.dim)
    assert facet_summary(direct) == facet_summary(canonical) == facets_oracle(canonical)


@pytest.mark.parametrize("name", ["fig1", "flip", "linear", "worked3"])
def test_demo_facets_carry_fresh_sweep_data(name):
    for mc in demo_fan(name).maximal_cones:
        assert facet_summary(mc.hcone) == facets_oracle(mc.hcone)
        assert_facet_data_is_fresh_sweep(mc.hcone)


@pytest.mark.parametrize("name", ["fig1", "flip", "worked3"])
def test_one_sweep_per_maximal_cone(name, monkeypatch):
    """One sweep per maximal cone, and nothing recomputed after it: a
    maximal cone is full-dimensional, so no sweep meets an implied equation
    and ``rank`` never runs, and ``facets`` reads the tight sets off the
    sweep with no dot product of its own."""
    calls, ranks, facet_dots = [], [], []
    sweep, real_rank, real_dot, real_facets = cone._dd, cone.rank, cone.dot, cone.facets
    inside_facets = []

    def counted(*args):
        calls.append(args)
        inside_facets.append(False)  # the sweep's own work is not facets'
        try:
            return sweep(*args)
        finally:
            inside_facets.pop()

    def counted_rank(rows):
        ranks.append(rows)
        return real_rank(rows)

    def counted_dot(u, v):
        if inside_facets and inside_facets[-1]:
            facet_dots.append((u, v))
        return real_dot(u, v)

    def counted_facets(hc):
        inside_facets.append(True)
        try:
            return real_facets(hc)
        finally:
            inside_facets.pop()

    monkeypatch.setattr(cone, "_dd", counted)
    monkeypatch.setattr(cone, "rank", counted_rank)
    monkeypatch.setattr(cone, "dot", counted_dot)
    monkeypatch.setattr(tfan.fan, "facets", counted_facets)
    fan = demo_fan(name)
    assert len(calls) == len(fan.maximal_cones)
    assert ranks == []
    assert facet_dots == []
    # the counters see what they count: a dot product the cone module takes
    # inside facets, and the sweep of a cone with an implied equation
    inside_facets.append(True)
    contains(make_cone(3, ineqs=[(0, 1, 0)]), (-1, 0, 0))
    inside_facets.pop()
    dd_rays(make_cone(3, ineqs=[(0, 1, 0), (0, -1, 0)]))
    assert len(facet_dots) == 1 and len(ranks) == 1


def rank_calls_of_sweep(hc):
    """``dd_rays(hc)`` and the number of ``rank`` calls its sweep made."""
    calls = []
    real_rank = cone.rank

    def counted(rows):
        calls.append(rows)
        return real_rank(rows)

    with mock.patch.object(cone, "rank", counted):
        data = dd_rays(hc)
    return data, len(calls)


def check_dim_against_oracle(hc):
    """The sweep's dimension is the Fraction rank of rays plus lineality,
    and ``rank`` ran exactly when the cone is smaller than its equations'
    solution space, that is when some inequality is an implied equation."""
    data, ranks = rank_calls_of_sweep(hc)
    assert data.dim == len(rref_oracle(list(data.rays) + list(data.lineality))[0])
    implied = data.dim < len(kernel_oracle(hc.eqs, hc.dim_ambient))
    assert ranks == implied
    return implied


@seed(14)
@settings(max_examples=500, deadline=None)
@given(hc=random_cones())
def test_dim_matches_rank_oracle(hc):
    check_dim_against_oracle(hc)


@pytest.mark.parametrize("hc", [
    make_cone(3, ineqs=[(0, 1, 0), (0, -1, 0)]),             # v_1 = 0
    make_cone(3, ineqs=[(0, 1, 0), (0, -1, 0), (0, 0, 1)]),  # then one more row
    make_cone(4, ineqs=[(0, 1, 0, 0), (0, 0, 1, 0), (0, -1, -1, 0)]),  # v_1 = v_2 = 0
    make_cone(3, ineqs=[(1, 0, 0)]),                         # v_0 = 0 by the halfspace
    make_cone(2, ineqs=[(1, 0), (0, 1), (0, -1)]),           # the origin
    make_cone(3, ineqs=[(0, 1, 0), (0, -1, 0)], eqs=[(0, 0, 1)]),
], ids=["implied", "implied-mid-sweep", "two-implied", "implied-halfspace",
        "implied-origin", "implied-with-equation"])
def test_dim_after_implied_equation(hc):
    assert check_dim_against_oracle(hc)
