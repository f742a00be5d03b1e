"""Acceptance suite: every criterion runs at its stated (exact) tolerance
and prints one pass/fail line.  All arithmetic is integer/rational, so every
comparison below is exact equality or exact sign checking."""

import os
import random
import subprocess
import sys

import pytest

from tfan import (
    Ideal,
    InredContext,
    StandardBasis,
    contains,
    dd_rays,
    equal,
    flip,
    groebner_fan,
    ensure_initially_reduced,
    initial_form,
    inred_same_degree,
    intersect,
    is_initially_reduced,
    leading_term,
    make_cone,
    p_reduce,
    standard_basis,
    weighted_ordering,
)
from tfan.fan import (
    bad_meets,
    lineality_misses,
    sampled_weights,
    uncovered_weights,
    unpaired_facets,
)

from helpers import (
    P,
    XY,
    XYZ,
    assert_pairs_reduce_to_zero,
    polys,
    random_prime_ideal,
    time_limit,
)

X123 = ["x1", "x2", "x3"]
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def report(k, name):
    print(f"criterion {k:2d} ({name}): PASS")


@pytest.fixture(scope="module")
def fig1_fan():
    return groebner_fan(Ideal(polys(XY, "t*x^2 + x*y + t*y^2"), 2))


@pytest.fixture(scope="module")
def linear_fan():
    return groebner_fan(Ideal(polys(XYZ, "x + z", "y + z"), 3))


@pytest.fixture(scope="module")
def flip_ideal_fan():
    return groebner_fan(
        Ideal(polys(XY, "2 - t", "x*y^2 - t^2*y^3", "x^2 - t^3*y^2"), 2, prime=2))


@pytest.fixture(scope="module")
def random_fans():
    rng = random.Random(2)
    fans = []
    for _ in range(5):
        ideal = random_prime_ideal(rng)
        fans.append(groebner_fan(ideal))
    return fans


@pytest.fixture(scope="module")
def generic_recompletion_fan():
    """A generic-regime fan whose lifted bases, once completed again after
    each flip, kept the pair loop busy for minutes."""
    ideal = Ideal(polys(XYZ, "2*t*y + 3*t*z + 3*t^2*z", "2*t*x^2 + 2*t*z^2"), 3)
    with time_limit(30):
        return groebner_fan(ideal)


def test_generic_fan_that_recompletion_could_not_finish(generic_recompletion_fan):
    assert len(generic_recompletion_fan.maximal_cones) == 6


def test_criterion_1_fig1_reproduction(fig1_fan):
    cones = fig1_fan.maximal_cones
    assert len(cones) == 3
    leads = {c.initial_forms[0] for c in cones}
    assert leads == set(polys(XY, "t*x^2", "x*y", "t*y^2"))
    for c in cones:
        assert (0, 1, 1) in c.data.lineality
    outer = [c for c in cones if c.initial_forms[0] != P("x*y", XY)]
    meet = intersect(outer[0].hcone, outer[1].hcone)
    data = dd_rays(meet)
    for g in list(data.rays) + list(data.lineality):
        assert g[0] == 0
    report(1, "principal-ideal fan")


def test_criterion_2_section3_cone():
    o = weighted_ordering((-1, 3, 3, 3), 3)
    G = polys(XYZ, "x - t^3*x + t^3*z - t^4*z", "y - t^3*y + t^2*z - t^4*z")
    from tfan import groebner_cone_at
    gc = groebner_cone_at(o, G)
    target = make_cone(4, ineqs=[(-3, 1, 0, -1), (-2, 0, 1, -1)])
    assert equal(gc.hcone, target)
    w = (-1, 2, -1, 1)
    assert contains(gc.hcone, w)
    facet_row = (-2, 0, 1, -1)  # w2 = 2*w0 + w3
    assert sum(a * b for a, b in zip(facet_row, w)) == 0
    from tfan import facets
    hit = [f for f in facets(gc.hcone)
           if f.outer_normal == tuple(-x for x in facet_row)]
    assert len(hit) == 1 and contains(hit[0].cone, w)
    report(2, "worked 3-variable cone")


def test_criterion_3_initial_ideal():
    o = weighted_ordering((-1, 3, 3, 3), 3)
    G = polys(XYZ, "x - t^3*x + t^3*z - t^4*z", "y - t^3*y + t^2*z - t^4*z")
    w = (-1, 2, -1, 1)
    H = tuple(initial_form(w, g) for g in G)
    assert set(H) == set(polys(XYZ, "x", "y + t^2*z"))
    ow = weighted_ordering(w, 3)
    sb = standard_basis(ow, H)
    assert set(sb.elements) == set(H)
    assert_pairs_reduce_to_zero(ow, sb.elements)
    report(3, "initial ideal basis")


def test_criterion_4_initial_reduction_necessity():
    o = weighted_ordering((-1, 1, 1, 1), 3)
    F = polys(XYZ, "2 - t", "x + t^2*y + t^3*z", "y + t*x + t^2*z")
    assert not is_initially_reduced(o, F)
    from tfan.cone import cone_from_basis
    naive = cone_from_basis(StandardBasis(F, o),
                            tuple(initial_form((-1, 1, 1, 1), g) for g in F))
    basis = ensure_initially_reduced(o, F, 2)
    reduced = cone_from_basis(basis,
                              tuple(initial_form((-1, 1, 1, 1), g) for g in basis.elements))
    w = (-1, 2, 0, 1)
    assert contains(reduced, w)
    assert not contains(naive, w)
    report(4, "initially-reduced necessity")


def test_criterion_5_p_reduce_golden():
    ctx = InredContext(2, weighted_ordering((-1, 1, 1, 1), 3))
    g = P("x1^2 - t^2*x1^2 - 2*t^2*x3^2 - t^3*x3^2", X123)
    assert p_reduce(ctx, g) == P("x1^2 - t^2*x1^2 - t^4*x3^2", X123)
    report(5, "(p-t)-reduce golden")


def test_criterion_6_same_degree_trace():
    # oracle: exact-arithmetic replay of the derivation's own row operations
    # (the derivation's closing summary is inconsistent and is not used)
    ctx = InredContext(2, weighted_ordering((-1, 1, 1, 1), 3))
    G = polys(X123,
              "x1^2 + t*x2^2 - t^2*x3^2",
              "x2^2 + t*x1^2 + t*x3^2 + t^2*x3^2",
              "t^3*x3^2 + t^4*x1^2 + t^4*x2^2 + t^5*x2^2")
    out = inred_same_degree(ctx, G)
    assert out == list(polys(
        X123,
        "x1^2 - 3*t^2*x1^2 + t^4*x1^2 - t^5*x1^2 + t^6*x1^2 + t^7*x1^2",
        "x2^2 - t^2*x2^2 + t*x3^2 + t^2*x3^2 + t^3*x3^2",
        "t^3*x3^2 - 2*t^5*x3^2 - t^7*x3^2 - t^8*x3^2"))
    report(6, "same-degree reduction trace")


def test_criterion_7_flip_golden():
    o = weighted_ordering((-1, 1, 1), 2)
    G = StandardBasis(polys(XY, "2 - t", "x*y^2 - t^2*y^3", "x^2 - t^3*y^2", "t^3*y^4"), o)
    w = (-4, 1, 7)
    G2 = flip(G, (3, 5, 1), w)
    ord2 = G2.ordering
    normalised = {g if leading_term(ord2, g).coeff > 0 else -g for g in G2.elements}
    assert normalised == set(polys(
        XY, "2 - t", "x*y^2 - t^2*y^3", "t^3*y^2 - x^2", "x^3 - t^5*y^3"))
    old = {leading_term(o, g) for g in G.elements}
    new = {leading_term(ord2, g) for g in G2.elements}
    assert old != new
    report(7, "flip golden")


def test_criterion_8_linear_fan_three_cones(linear_fan):
    cones = linear_fan.maximal_cones
    assert len(cones) == 3  # and not the 4-cone misconception
    leads = set()
    for gc in cones:
        lts = frozenset((abs(c), e[1:]) for c, e in
                        (leading_term(gc.basis.ordering, g) for g in gc.basis.elements))
        leads.add(lts)
    assert leads == {
        frozenset({(1, (1, 0, 0)), (1, (0, 1, 0))}),
        frozenset({(1, (0, 0, 1)), (1, (0, 1, 0))}),
        frozenset({(1, (0, 0, 1)), (1, (1, 0, 0))}),
    }
    report(8, "linear-ideal fan")


def test_criterion_9_coverage_and_faces(fig1_fan, linear_fan, flip_ideal_fan, random_fans,
                                        generic_recompletion_fan):
    fans = [fig1_fan, linear_fan, flip_ideal_fan, generic_recompletion_fan] + list(random_fans)
    rng = random.Random(0)
    for fan_res in fans:
        hcones = [c.hcone for c in fan_res.maximal_cones]
        n = hcones[0].dim_ambient - 1
        assert uncovered_weights(hcones, sampled_weights(rng, n, 1000)) == []
        assert bad_meets(hcones) == []
    report(9, "coverage and face-to-face")


def test_criterion_10_perturbation_and_lineality(fig1_fan, linear_fan, flip_ideal_fan,
                                                 random_fans):
    fans = [fig1_fan, linear_fan, flip_ideal_fan] + list(random_fans)
    for fan_res in fans:
        assert lineality_misses([c.hcone for c in fan_res.maximal_cones]) == []
        assert unpaired_facets(fan_res) == []
    report(10, "facet pairs and lineality")


FLIP_FILE = """\
ring t; x, y
prime 2
order weights (-1,1,1); tiebreak x > y
ideal
  2 - t
  x*y^2 - t^2*y^3
  x^2 - t^3*y^2
end
"""


def test_criterion_11_determinism(tmp_path):
    f = tmp_path / "flip.ideal"
    f.write_text(FLIP_FILE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")

    def run():
        return subprocess.run([sys.executable, "-m", "tfan.cli", "fan", str(f)],
                              capture_output=True, text=True, env=env)

    a, b = run(), run()
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.startswith("FAN ")
    report(11, "byte-identical fan output")
