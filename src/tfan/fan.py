"""Witness lifting, basis flips across facets, and the fan traversal.

The traversal starts from one maximal Groebner cone and walks facet by
facet.  A basis carries its ordering and a cone its basis, so a flip maps a
basis and a facet to the next basis (Fukuda, Jensen and Thomas, "Computing
Groebner fans", 2007): take initial forms of the basis at a relative
interior point w of the facet, compute a standard basis of the (much
simpler, weighted homogeneous) initial ideal under the weight-chain
ordering (w, outer normal), and pull each of its elements back to the full
ideal with a determinate division witness; an element that is one of the
initial forms, and that no earlier form's leading term divides, needs no
division (see ``lift``).  The next cone is read off the initially reduced
lifted basis.  As in that paper, cones are told apart by their facets, not
by containment: each facet is registered under its canonical key when its
cone is made, and a facet whose key another known cone has is recorded as
an adjacency and skipped.  Only a facet whose key no other cone has gets a
relative interior point and a containment scan, so no cone is added twice.
Facets inside the boundary hyperplane {0} x R^n are never crossed.

A flip computes each fact once and carries it from where it is found to
where it is used.  The adjacent cone's basis keeps each element's leading
term under the re-anchored ordering; the next flip keeps that term on the
element's initial form at the facet point, where it lies because the point
is in the closed cone; the completion of the initial forms signs its
inputs with no leading-term search, so it leaves those terms in place for
``lift`` and its division; and each lifted element keeps the leading term
and key of the form it lifts.  ``flip``, ``lift`` and ``_cone_from_adjacent``
give the argument for each.

The lift already is a standard basis of the full ideal for the new
ordering, so the adjacent cone's constructor only initially reduces it
(``inred.initially_reduce``); nothing is completed again after a flip.  The
printed basis of a flipped-to cone is therefore the one this path produces,
which is deterministic for a given start weight and tiebreak.

The start cone comes from ``groebner_cone_at``, the one cone reader, which
the ``initial``, ``cone`` and ``slice`` commands use too.  At a non-generic
start weight it returns a cone with equation rows, and the traversal
perturbs the weight and reads again.

The fan invariants are checked here too, once each, for ``tfan check`` and
the tests alike: sampled coverage, face-to-face meets, the lineality
(0, 1, ..., 1), and facet pairs (each interior facet shared with exactly one
recorded neighbour).  Each check returns the offending items, so an empty
result means it passed.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cone import (
    Facet,
    GroebnerCone,
    HCone,
    boundary_cone,
    cone_from_basis,
    contains,
    dd_rays,
    facets,
    intersect,
    is_face,
    relative_interior_point,
)
from .division import StandardBasis, hddwr, minimize, standard_basis
from .errors import InvalidInput, NonGenericWeight, WitnessFailed
from .exact import dot, rank
from .inred import _fmt_term, _fmt_vector, ensure_initially_reduced, initially_reduce
from .poly import (
    Ideal,
    MonomialOrdering,
    Polynomial,
    exp_mul,
    initial_forms_at,
    leading_term,
    record_leading_term,
    term_divides,
)


@dataclass(frozen=True)
class Fan:
    """Maximal Groebner cones plus the facet-adjacency graph."""

    maximal_cones: tuple[GroebnerCone, ...]
    adjacency: tuple[tuple[int, int, HCone], ...]


def witness(h: Polynomial, H: Sequence[Polynomial], G: StandardBasis) -> Polynomial:
    """Element of the ideal whose initial form at the shared weight is h.

    H holds the initial forms of G's elements at that weight.  h is divided
    determinately by H under G's ordering; replaying the quotients against
    G's elements produces the witness.  A nonzero remainder means h does
    not belong to the initial ideal (or the inputs are inconsistent).
    """
    if len(H) != len(G.elements):
        raise InvalidInput("initial forms and basis differ in length")
    q, r = hddwr(G.ordering, h, H)
    if not r.is_zero:
        raise WitnessFailed(
            "division by the initial forms left a remainder: lifting the form with "
            f"leading term {_fmt_term(leading_term(G.ordering, h))} left the term "
            f"{_fmt_term(leading_term(G.ordering, r))} undivided")
    return Polynomial.from_terms((c1 * c2, exp_mul(e1, e2))
                                 for qi, gi in zip(q, G.elements)
                                 for c1, e1 in qi.terms for c2, e2 in gi.terms)


def lift(H_new: StandardBasis, H: Sequence[Polynomial], G: StandardBasis) -> StandardBasis:
    """Lift a standard basis of the initial ideal to one of the full ideal.

    Every element of ``H_new``, a standard basis of the ideal of ``G``'s
    initial forms ``H``, is witnessed through ``G``; the witnesses form a
    standard basis w.r.t. ``H_new``'s ordering with the same leading terms
    as ``H_new``.  It is initially reduced, without a new completion, by the
    cone constructor.

    An element h that is an initial form H_k, where no earlier H_i has a
    leading term (under G's ordering) that term-divides H_k's, passes
    through: it lifts to a copy of G_k with no division.  That is what the
    division gives.  Its first step reduces h's leading term, H_k's, by the
    first initial form whose leading term term-divides it, which is H_k,
    and leaves zero; so the only quotient is 1, at k, and the witness is
    G_k.  Every other element is witnessed by ``witness``.

    Each lifted element keeps the leading term of its h, which is not
    searched for again: its initial form at the shared weight w is h, and
    ``H_new``'s ordering refines w, so its leading term lies among the
    terms of h and is h's.  The leading terms of the forms H under G's
    ordering are the ones ``flip`` keeps on them.
    """
    if len(H) != len(G.elements):
        raise InvalidInput("initial forms and basis differ in length")
    ord_, lts = H_new.ordering, [leading_term(G.ordering, f) for f in H]
    through = {f: k for k, f in enumerate(H)
               if not any(term_divides(lt, lts[k]) for lt in lts[:k])}
    out = []
    for h in H_new.elements:
        k = through.get(h)
        g = witness(h, H, G) if k is None else Polynomial(G.elements[k].terms)
        out.append(record_leading_term(ord_, g, leading_term(ord_, h)))
    return StandardBasis(tuple(out), ord_)


def flip(G: StandardBasis, v, w) -> StandardBasis:
    """Cross the facet with relative interior point w and outer normal v.

    The weight-chain ordering (w, v) with G's tiebreak stands in for the
    perturbed weight w + eps*v; under it a minimal standard basis of the
    weighted homogeneous initial ideal in_w(G) is computed and lifted.

    Each initial form H_k keeps G_k's leading term under G's ordering, for
    ``lift`` and its division to read.  That is H_k's leading term: w lies
    in the closed cone of G, so no skeleton term of G_k has a larger
    w-degree than lt(G_k), and a term of higher t-power has a smaller one
    (w_0 < 0); hence lt(G_k) lies in in_w(G_k), a subset of G_k's terms of
    which it is the greatest.  The completion leaves it there: it
    normalises its inputs with no leading-term search.  A w outside the
    closed cone is rejected, found by an initial form that misses its
    element's leading term.
    """
    if w[0] >= 0:
        raise InvalidInput("facet interior point must have negative t-entry")
    ord_ = G.ordering
    H = initial_forms_at(w, G.elements)
    for k, (g, h) in enumerate(zip(G.elements, H)):
        lt = leading_term(ord_, g)
        if lt not in h.terms:
            raise InvalidInput(
                f"facet point {_fmt_vector(w)} is not in the closed cone of the basis: the "
                f"initial form of element {k} misses its leading term {_fmt_term(lt)}")
        record_leading_term(ord_, h, lt)
    ord_new = ord_.with_weights(w, v)
    return lift(minimize(standard_basis(ord_new, H)), H, G)


def groebner_cone_at(ordering: MonomialOrdering, gens: Sequence[Polynomial],
                     prime: int | None = None) -> GroebnerCone:
    """Groebner cone of the ordering's first weight w.

    The cone is read off the initially reduced basis and its initial forms
    at w.  At a generic w it is the maximal cone with w in its interior; at
    a w on a lower-dimensional equivalence class it is that class's closure,
    with ``EQ`` rows and initial forms of several terms.
    """
    if not ordering.weights or ordering.weights[0][0] >= 0:
        raise InvalidInput("need a weighted ordering with negative t-entry")
    basis = ensure_initially_reduced(ordering, gens, prime)
    H = initial_forms_at(ordering.weights[0], basis.elements)
    return GroebnerCone(cone_from_basis(basis, H), basis)


def _cone_from_adjacent(G_new: StandardBasis, prime: int | None) -> GroebnerCone:
    """Build the maximal cone on the far side of a flip.

    The lifted basis is already a standard basis under its ordering, so it
    is only initially reduced, not completed again (the ideal, and with it
    p - t, is unchanged by the flip), and ``initially_reduce`` normalises
    its elements and carries their leading terms.  The cone is read off
    with the leading terms as initial forms, and the basis is re-anchored
    to one interior weight u, whose initial forms must be those leading
    terms: the cone reads its weight and initial forms off u.

    Once that is confirmed, each element keeps its leading term under the
    re-anchored ordering, so the next flip searches for none: its initial
    form at u is that single term, which therefore has the greatest
    u-degree of all its terms, and u is the re-anchored ordering's first
    weight.
    """
    ord_new = G_new.ordering
    basis = initially_reduce(G_new, prime)
    terms = [leading_term(ord_new, g) for g in basis.elements]
    lts = tuple(Polynomial((lt,)) for lt in terms)
    hc = cone_from_basis(basis, lts)
    assert not hc.eqs, "leading terms cannot produce equations"
    u = relative_interior_point(hc)
    if u[0] >= 0:
        raise NonGenericWeight("adjacent cone has no interior weight below the boundary: "
                               f"the re-anchored weight {_fmt_vector(u)} has t-entry >= 0")
    ord_u = ord_new.with_weights(u)
    cone = GroebnerCone(hc, StandardBasis(basis.elements, ord_u))
    if cone.initial_forms != lts:
        raise NonGenericWeight(f"re-anchored weight {_fmt_vector(u)} is not interior: "
                               "its initial forms are not the leading terms")
    for g, lt in zip(basis.elements, terms):
        record_leading_term(ord_u, g, lt)
    return cone


def default_weight(n: int) -> tuple:
    """The weight (-1, 1, ..., 1) used when no weight or ordering is given."""
    return (-1,) + (1,) * n


def _perturbed(base, k):
    """Deterministic genericity nudge, attempt k.

    A fixed direction like (0, 1, 2, ..., n) can lie inside a tie hyperplane
    (rows such as w1 - 2*w2 + w3 annihilate every arithmetic progression),
    so each attempt draws a fresh pseudo-random rational direction from a
    seeded generator; the sequence is reproducible across runs.
    """
    rng = random.Random(0xC0FFEE + k)
    return tuple(
        b + (Fraction(rng.randint(1, 97 * 97), 97 ** 3) if i > 0 else 0)
        for i, b in enumerate(base)
    )


# Start weights tried by ``groebner_fan``: the base weight, then perturbations.
_START_ATTEMPTS = 200


def groebner_fan(ideal: Ideal, tiebreak=None, start_weight=None) -> Fan:
    """All maximal Groebner cones of an x-homogeneous ideal, with adjacency.

    Breadth-first facet traversal that tells cones apart by their facets.
    Each cone's facets are computed once, when the cone is created, and
    every facet off the boundary is registered under its canonical key
    (rays, lineality), which it carries from its cone's sweep.  In a
    face-to-face fan the cone across a facet has that same facet, so a facet
    met again from its other side finds its neighbour by a dict lookup.
    Only a key miss computes the facet's relative interior point and scans
    the known cones for it; the facet is crossed when no cone contains the
    point, and otherwise the containing cone is its neighbour.  So no cone is
    added twice even where cones meet in a face that is not a facet of both.
    """
    n = ideal.nvars
    perm = tuple(tiebreak) if tiebreak is not None else tuple(range(n))
    base_w = tuple(start_weight) if start_weight is not None else default_weight(n)
    for k in range(_START_ATTEMPTS):
        w = base_w if k == 0 else _perturbed(base_w, k)
        start = groebner_cone_at(MonomialOrdering((w,), perm), ideal.gens, ideal.prime)
        if not start.hcone.eqs:
            break
    else:
        raise NonGenericWeight(
            f"could not find a generic starting weight: the base weight {_fmt_vector(base_w)} "
            f"and its perturbations gave a cone with equations in all {_START_ATTEMPTS} attempts")

    cones: list[GroebnerCone] = []
    interior_facets: list[list[Facet]] = []  # per cone, the facets off the boundary
    owners: dict[tuple, list[int]] = {}  # facet key -> the cones having that facet
    queue: deque[int] = deque()

    def add(cone: GroebnerCone) -> int:
        j = len(cones)
        cones.append(cone)
        interior_facets.append([f for f in facets(cone.hcone) if not f.in_boundary])
        for facet in interior_facets[j]:
            owners.setdefault(facet.key, []).append(j)
        queue.append(j)
        return j

    add(start)
    adjacency: dict[frozenset, HCone] = {}
    while queue:
        idx = queue.popleft()
        for facet in interior_facets[idx]:
            j = next((k for k in owners[facet.key] if k != idx), None)
            if j is None:
                wpt = relative_interior_point(facet.cone)
                j = next((k for k, c in enumerate(cones)
                          if k != idx and contains(c.hcone, wpt)), None)
                if j is None:
                    flipped = flip(cones[idx].basis, facet.outer_normal, wpt)
                    j = add(_cone_from_adjacent(flipped, ideal.prime))
            adjacency.setdefault(frozenset((idx, j)), facet.cone)

    order = sorted(range(len(cones)), key=lambda i: cones[i].canonical_key())
    rename = {old: new for new, old in enumerate(order)}
    sorted_cones = tuple(cones[i] for i in order)
    adj = []
    for pair, fc in adjacency.items():
        i, j = sorted(rename[x] for x in pair)
        adj.append((i, j, fc))
    adj.sort(key=lambda t: (t[0], t[1]))
    return Fan(sorted_cones, tuple(adj))


def boundary_fan(fan: Fan) -> tuple[HCone, ...]:
    """Deduplicated boundary cones (v_0 = 0 slices) of the maximal cones."""
    out: list[tuple] = []
    seen = set()
    for cone in fan.maximal_cones:
        bc = boundary_cone(cone.hcone)
        data = dd_rays(bc)
        key = (data.rays, data.lineality)
        if key not in seen:
            seen.add(key)
            out.append((key, bc))
    out.sort(key=lambda kv: kv[0])
    return tuple(bc for _, bc in out)


# ---------------------------------------------------------------------------
# Fan invariants
# ---------------------------------------------------------------------------


def sampled_weights(rng: random.Random, n: int, count: int):
    """``count`` random rational weights in R_{<0} x R^n, drawn from ``rng``."""
    for _ in range(count):
        w0 = -Fraction(rng.randint(1, 24), rng.randint(1, 4))
        rest = [Fraction(rng.randint(-24, 24), rng.randint(1, 4)) for _ in range(n)]
        yield (w0, *rest)


def uncovered_weights(cones: Sequence[HCone], weights) -> list:
    """The weights that lie in none of the cones."""
    return [w for w in weights if not any(contains(c, w) for c in cones)]


def bad_meets(cones: Sequence[HCone]) -> list[tuple[int, int]]:
    """Index pairs i < j whose intersection is not a face of both cones."""
    out = []
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            meet = intersect(cones[i], cones[j])
            if not (is_face(meet, cones[i]) and is_face(meet, cones[j])):
                out.append((i, j))
    return out


def lineality_misses(cones: Sequence[HCone]) -> list[int]:
    """Indices of cones whose lineality does not contain (0, 1, ..., 1).

    Both readings are checked: every H-row vanishes on the vector, and the
    vector lies in the span of the V-side lineality basis.
    """
    out = []
    for k, c in enumerate(cones):
        ones = (0,) + (1,) * (c.dim_ambient - 1)
        lin = list(dd_rays(c).lineality)
        if (any(dot(row, ones) != 0 for row in c.all_ineq_rows() + c.eqs)
                or rank(lin) != rank(lin + [ones])):
            out.append(k)
    return out


def unpaired_facets(fan: Fan) -> list[tuple[int, tuple]]:
    """(cone, outer normal) of each interior facet without exactly one partner.

    A facet off the boundary hyperplane must have its relative interior
    point in exactly one other maximal cone, and that pair of cones must be
    recorded in ``fan.adjacency``.  The partners are found by containment,
    not by the facet keys ``groebner_fan`` pairs facets with, so this check
    shares no code with the traversal it checks.
    """
    hcones = [c.hcone for c in fan.maximal_cones]
    pairs = {frozenset((i, j)) for i, j, _ in fan.adjacency}
    out = []
    for i, hc in enumerate(hcones):
        for facet in facets(hc):
            if facet.in_boundary:
                continue
            wpt = relative_interior_point(facet.cone)
            others = [j for j, c in enumerate(hcones) if j != i and contains(c, wpt)]
            if len(others) != 1 or frozenset((i, others[0])) not in pairs:
                out.append((i, facet.outer_normal))
    return out
