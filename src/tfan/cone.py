"""Exact rational polyhedral cones and Groebner-cone extraction.

An ``HCone`` stores inequality rows A (a . v >= 0) and equation rows B
(b . v = 0) over Q^{1+n}; the halfspace v_0 <= 0 is implicit in every cone
and never stored, so the A/B matrices read off a basis stay pure.  Rows are
made canonical (primitive int tuples, deduplicated, sorted) once: cones from
``make_cone``, ``cone_from_basis`` and ``facets`` are marked so.  The V-side
(``ConeData``) is produced by an exact, integer-only double description
sweep: primitive rays and an echelon lineality basis, both sorted, so
``ConeData`` is a canonical form suitable for cone equality.  Adjacency is
tested on zero-set bitmasks, one per ray (Fukuda and Prodon, "Double
description method revisited", 1996); the sweep returns them as the rays'
tight rows, with the dimension, so ``facets`` computes no dot product and
each facet carries its V-description from the parent: fan traversal sweeps
each maximal cone once (as in Fukuda, Jensen and Thomas, "Computing Groebner
fans", 2007).

``cone_from_basis`` realises the inequality/equation extraction from an
initially reduced standard basis: for each element the exponent vectors of
minimal t-power per x-monomial are collected; differences from the leading
exponent give inequality rows, differences within each initial form's
support give equation rows.  Those exponents are read straight off the
canonical term order, which keeps each x-monomial's terms together with the
lowest t-power first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import NamedTuple, Sequence

from .division import StandardBasis
from .errors import InvalidInput
from .exact import dot, integral, kernel_basis, primitive, rank, rref, vneg
from .poly import Polynomial, initial_forms_at, leading_term

Vec = tuple


def _halfspace_row(dim: int) -> Vec:
    return (-1,) + (0,) * (dim - 1)


@dataclass(frozen=True)
class HCone:
    """{v : A.v >= 0, B.v = 0, v_0 <= 0} in Q^{1+n}."""

    dim_ambient: int
    ineqs: tuple[Vec, ...] = ()
    eqs: tuple[Vec, ...] = ()
    # V-description, filled in by the first dd_rays call on this instance.
    _data: ConeData | None = field(default=None, init=False, repr=False,
                                   compare=False)
    # Rows already canonical (primitive int tuples, deduplicated, sorted).
    _canonical: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        for row in self.ineqs + self.eqs:
            if len(row) != self.dim_ambient:
                raise InvalidInput("row has wrong length")

    def all_ineq_rows(self) -> tuple[Vec, ...]:
        return (_halfspace_row(self.dim_ambient),) + self.ineqs


@dataclass(frozen=True)
class ConeData:
    """Canonical V-description: sorted primitive rays, echelon lineality;
    bit k of ``tight[i]`` is set iff swept row k (the halfspace row, then
    the inequalities) is tight on ``rays[i]``."""

    rays: tuple[Vec, ...]
    lineality: tuple[Vec, ...]
    dim: int
    tight: tuple[int, ...]


class Facet(NamedTuple):
    cone: HCone
    outer_normal: Vec
    in_boundary: bool  # facet contained in {0} x R^n

    @property
    def key(self) -> tuple:
        """The facet cone's canonical key (rays, lineality), read off the
        V-description that ``facets`` sets on it, so it costs no sweep."""
        data = self.cone._data
        return (data.rays, data.lineality)


def _dedupe_rows(rows):
    seen = set()
    for r in rows:
        if any(x != 0 for x in r):
            seen.add(primitive(r))
    return tuple(sorted(seen))


def _canonical_cone(dim_ambient, ineqs, eqs, data=None) -> HCone:
    """An HCone on rows that are already canonical, marked so."""
    hc = HCone(dim_ambient, ineqs, eqs)
    object.__setattr__(hc, "_canonical", True)
    if data is not None:
        object.__setattr__(hc, "_data", data)
    return hc


def make_cone(dim_ambient: int, ineqs=(), eqs=()) -> HCone:
    """Canonical HCone: rows primitive, deduplicated and sorted."""
    return _canonical_cone(dim_ambient, _dedupe_rows(ineqs), _dedupe_rows(eqs))


# ---------------------------------------------------------------------------
# Double description
# ---------------------------------------------------------------------------


def _dd(ineq_rows, eq_rows, dim) -> ConeData:
    """Core double description sweep; returns the whole ``ConeData``.

    Starts from the solution space of the equations (all lineality) and
    imposes inequalities, int tuples, one at a time.  While the current cone
    still has lineality meeting a new halfspace, one lineality generator is
    traded for a ray; afterwards the classical plus/zero/minus split with
    adjacent-pair combination applies.

    The sweep is integer-only (Fukuda and Prodon, "Double description method
    revisited", 1996): kernel vectors and the lineality's echelon rows come
    primitive from ``exact``, and the trade replaces each vector the new row
    does not vanish on by ``v0*l - (a.l)*l0``, made primitive.  Each ray
    carries its zero set, a bitmask of the imposed rows tight on it, and two
    rays are adjacent iff no third ray's zero set contains the meet of
    theirs.  The masks stay exact (a trade adds a vector tight on every
    earlier row), so they are the tight sets.  The dimension is that of the
    equations' solution space, unless a row finds rays on its minus side and
    none on its plus side: an implied equation, after which it is a rank.
    """
    L = kernel_basis(eq_rows, dim)
    d = len(L)
    implied = False
    R: list[Vec] = []
    Z: list[int] = []  # Z[i]: bit k set iff the k-th imposed row is tight on R[i]
    for k, a in enumerate(ineq_rows):
        bit = 1 << k
        vals_l = [sum(map(mul, a, l)) for l in L]
        i0 = next((i for i, v in enumerate(vals_l) if v), None)
        if i0 is not None:
            l0 = L[i0] if vals_l[i0] > 0 else vneg(L[i0])
            v0 = abs(vals_l[i0])
            L = [_combine(v0, l, v, l0) if v else l
                 for i, (l, v) in enumerate(zip(L, vals_l)) if i != i0]
            vals = [sum(map(mul, a, r)) for r in R]
            R = [_combine(v0, r, v, l0) if v else r for r, v in zip(R, vals)]
            R.append(l0)
            Z = [z | bit for z in Z]
            Z.append(bit - 1)
        else:
            vals = [sum(map(mul, a, r)) for r in R]
            if any(v < 0 for v in vals):
                plus = [i for i, v in enumerate(vals) if v > 0]
                minus = [i for i, v in enumerate(vals) if v < 0]
                implied = implied or not plus
                keep = [i for i, v in enumerate(vals) if v >= 0]
                new_R = [R[i] for i in keep]
                new_Z = [Z[i] | bit if vals[i] == 0 else Z[i] for i in keep]
                seen = set(new_R)
                for p in plus:
                    for m in minus:
                        common = Z[p] & Z[m]
                        # p and m contain the meet; adjacent iff no other ray does
                        if [z & common for z in Z].count(common) == 2:
                            r = _combine(vals[p], R[m], vals[m], R[p])
                            if any(r) and r not in seen:
                                seen.add(r)
                                new_R.append(r)
                                new_Z.append(common | bit)
                R, Z = new_R, new_Z
            else:
                Z = [z | bit if v == 0 else z for z, v in zip(Z, vals)]
    pairs = sorted(dict(zip(R, Z)).items())
    rays = tuple(r for r, _ in pairs)
    lineality = rref(L)[0]
    if implied:
        d = rank(rays + lineality)
    return ConeData(rays, lineality, d, tuple(z for _, z in pairs))


def _combine(c, u, e, w) -> Vec:
    """c*u - e*w for int vectors, divided by the gcd of its entries."""
    v = tuple([c * x - e * y for x, y in zip(u, w)])
    g = gcd(*v)
    return v if g <= 1 else tuple([x // g for x in v])


def dd_rays(cone: HCone) -> ConeData:
    """Exact V-description of an HCone (implicit halfspace included).

    Computed once per instance and kept on it: an HCone is immutable, so
    its V-description never goes stale, and it lives only as long as the
    HCone does.  One sweep gives the rays, lineality, tight rows and
    dimension (``rank`` runs only after an implied equation).  A facet cone
    from ``facets`` comes with all of it set, so only maximal cones (and
    cones built directly, whose rows are made integral first) are swept.
    """
    if cone._data is None:
        rows = cone.all_ineq_rows()
        if not cone._canonical:
            rows = [integral(a) for a in rows]
        object.__setattr__(cone, "_data", _dd(rows, cone.eqs, cone.dim_ambient))
    return cone._data


def dim(cone: HCone) -> int:
    return dd_rays(cone).dim


def contains(cone: HCone, w) -> bool:
    """Closure membership: all inequalities >= 0, equations = 0, w_0 <= 0."""
    if len(w) != cone.dim_ambient:
        raise InvalidInput("point has wrong dimension")
    if w[0] > 0:
        return False
    return all(dot(a, w) >= 0 for a in cone.ineqs) and all(dot(b, w) == 0 for b in cone.eqs)


def equal(c1: HCone, c2: HCone) -> bool:
    if c1.dim_ambient != c2.dim_ambient:
        return False
    d1, d2 = dd_rays(c1), dd_rays(c2)
    return d1.rays == d2.rays and d1.lineality == d2.lineality


def intersect(c1: HCone, c2: HCone) -> HCone:
    if c1.dim_ambient != c2.dim_ambient:
        raise InvalidInput("ambient dimensions differ")
    return make_cone(c1.dim_ambient, c1.ineqs + c2.ineqs, c1.eqs + c2.eqs)


def boundary_cone(cone: HCone) -> HCone:
    """The cone intersected with the boundary hyperplane {v_0 = 0}."""
    e0 = (1,) + (0,) * (cone.dim_ambient - 1)
    return make_cone(cone.dim_ambient, cone.ineqs, cone.eqs + (e0,))


def facets(cone: HCone) -> list[Facet]:
    """Codimension-1 faces with primitive outer normals.

    The faces of a cone are ``cone(T) + lineality`` for the sets T of rays
    tight on some valid row, and distinct faces have distinct T.  So a row
    defines a facet exactly when its tight set is proper (rows tight on every
    ray are implied equations) and no other row's proper tight set strictly
    contains it; rows sharing a tight set duplicate the facet, and the first
    one is kept.  The tight sets come from the sweep (``ConeData.tight``).
    Each facet cone carries its V-description, read off the parent: the
    tight rays (still sorted) with their tight rows, the parent's lineality
    and one dimension less, so it is never swept.  Facets inside {0} x R^n
    are flagged so fan traversal can skip them.  Only a cone not marked
    canonical is rebuilt by ``make_cone``; a facet cone (row a added to the
    equations) is canonical and has its parent's swept rows.
    """
    if not cone._canonical:
        cone = make_cone(cone.dim_ambient, cone.ineqs, cone.eqs)
    data = dd_rays(cone)
    ineqs = cone.ineqs
    row_masks = [0] * (len(ineqs) + 1)  # per swept row, its tight rays as a bitmask
    for i, z in enumerate(data.tight):
        for k in range(z.bit_length()):
            if z >> k & 1:
                row_masks[k] |= 1 << i
    # in sorted order; the halfspace row once, should it be an inequality too
    rows = sorted(set(zip(cone.all_ineq_rows(), row_masks)))
    proper = set(row_masks) - {(1 << len(data.rays)) - 1}
    maximal = set()
    for m in proper:
        for o in proper:
            if o & m == m and o != m:
                break
        else:
            maximal.add(m)
    out: list[Facet] = []
    for a, m in rows:
        if m not in maximal:
            continue
        maximal.discard(m)  # later rows with this tight set repeat the facet
        tight = [i for i in range(len(data.rays)) if m >> i & 1]
        rays = tuple([data.rays[i] for i in tight])
        fc = _canonical_cone(cone.dim_ambient, ineqs, tuple(sorted(cone.eqs + (a,))),
                             ConeData(rays, data.lineality, data.dim - 1,
                                      tuple([data.tight[i] for i in tight])))
        out.append(Facet(fc, tuple([-x for x in a]), all(r[0] == 0 for r in rays)))
    out.sort(key=lambda f: f.outer_normal)
    return out


def relative_interior_point(cone: HCone):
    """Deterministic rational point in the relative interior.

    Sum of all extreme rays (which satisfies every non-implied inequality
    strictly); for a pure lineality space, the sum of its basis.  Lineality
    vectors always have first coordinate 0 (both orientations must satisfy
    v_0 <= 0), so whenever the cone is not contained in the boundary
    hyperplane some ray has negative first coordinate and the sum does too.
    A facet cone from ``facets`` already carries its V-description (the
    parent's tight rays and lineality), so its point costs no sweep.
    """
    data = dd_rays(cone)
    if not data.rays and not data.lineality:
        raise InvalidInput("cone is the origin; no useful interior point")
    if data.rays:
        return tuple(sum(col) for col in zip(*data.rays))
    return tuple(sum(col) for col in zip(*data.lineality))


def is_face(face: HCone, cone: HCone) -> bool:
    """Is `face` a face of `cone`?

    Rays of a face lie in the cone, its lineality inside the cone's
    lineality, and the cone's rows tight on the face must cut exactly the
    face back out.
    """
    fd = dd_rays(face)
    gens = list(fd.rays) + list(fd.lineality)
    if not gens:
        return True  # the origin is a face of every cone here
    if not all(contains(cone, r) for r in fd.rays):
        return False
    if not all(_in_lineality(cone, l) for l in fd.lineality):
        return False
    tight = [a for a in cone.all_ineq_rows() if all(dot(a, g) == 0 for g in gens)]
    candidate = make_cone(cone.dim_ambient, cone.ineqs, cone.eqs + tuple(tight))
    return equal(candidate, face)


def _in_lineality(cone: HCone, g) -> bool:
    return all(dot(a, g) == 0 for a in cone.all_ineq_rows()) and \
        all(dot(b, g) == 0 for b in cone.eqs)


# ---------------------------------------------------------------------------
# Groebner cones from bases
# ---------------------------------------------------------------------------


def cone_from_basis(basis: StandardBasis, initial_forms: Sequence[Polynomial]) -> HCone:
    """Inequalities and equations of the Groebner cone of an initially
    reduced standard basis, at the (undetermined) weight whose initial forms
    are given.

    For each basis element only the exponent vectors of minimal t-power per
    x-monomial matter (higher t-powers give redundant rows).  Leading
    exponent minus any other skeleton exponent is an inequality row; within
    each initial form, differences of its skeleton exponents are equation
    rows.  The skeleton exponents are read off the canonical term order
    (``_skeleton_exps``), and the leading term is the one the basis keeps.
    The rows are built primitive, so the cone is canonical as it stands.
    """
    if len(basis.elements) != len(initial_forms):
        raise InvalidInput("basis and initial forms differ in length")
    if not basis.elements:
        raise InvalidInput("empty basis")
    d = 1 + basis.elements[0].nvars
    ineqs: set[Vec] = set()
    eqs: set[Vec] = set()
    for g in basis.elements:
        lead = leading_term(basis.ordering, g).exp
        ineqs.update(_combine(1, lead, 1, e) for e in _skeleton_exps(g) if e != lead)
    for h in initial_forms:
        if h.is_zero:
            raise InvalidInput("zero initial form")
        base, *others = _skeleton_exps(h)
        eqs.update(_combine(1, base, 1, e) for e in others)
    return _canonical_cone(d, tuple(sorted(ineqs)), tuple(sorted(eqs)))


def _skeleton_exps(f: Polynomial) -> list:
    """The exponents of f's t-skeleton (``poly.t_skeleton``) in canonical
    order: the first term of each x-monomial's run of terms, which the
    canonical order keeps together, lowest t-power first."""
    out = []
    alpha = None
    for _, e in f.terms:
        if e[1:] != alpha:
            alpha = e[1:]
            out.append(e)
    return out


@dataclass(frozen=True)
class GroebnerCone:
    """A maximal (or lower) Groebner cone and the basis it was read off, at
    the first weight of the basis ordering."""

    hcone: HCone
    basis: StandardBasis

    @property
    def interior_weight(self) -> Vec:
        return self.basis.ordering.weights[0]

    @cached_property
    def initial_forms(self) -> tuple[Polynomial, ...]:
        return initial_forms_at(self.interior_weight, self.basis.elements)

    @property
    def data(self) -> ConeData:
        """The V-description, ``dd_rays`` of the HCone (kept on it)."""
        return dd_rays(self.hcone)

    def canonical_key(self):
        return (self.data.rays, self.data.lineality)


# ---------------------------------------------------------------------------
# Affine slices
# ---------------------------------------------------------------------------


class SlicePolyhedron(NamedTuple):
    vertices: tuple[Vec, ...]  # rational points
    rays: tuple[Vec, ...]      # primitive integer directions
    lines: tuple[Vec, ...]     # primitive integer two-sided directions


def affine_slice(cone: HCone, fixed: Sequence[tuple[int, object]]) -> SlicePolyhedron:
    """Intersect the cone with {v_i = c_i for (i, c_i) in fixed}.

    Returns an exact V-description of the resulting polyhedron via
    homogenisation: a fresh coordinate s >= 0 scales the affine part; rays of
    the lifted cone with s > 0 project to vertices, those with s = 0 to
    recession rays, lineality to lines.
    """
    d = cone.dim_ambient
    ineqs = [(0,) + integral(a) for a in cone.all_ineq_rows()]
    ineqs.append((1,) + (0,) * d)
    eqs = [(0,) + tuple(b) for b in cone.eqs]
    for coord, value in fixed:
        if not 0 <= coord < d:
            raise InvalidInput("fixed coordinate out of range")
        row = [Fraction(0)] * (1 + d)
        row[0] = -Fraction(value)
        row[1 + coord] = Fraction(1)
        eqs.append(tuple(row))
    data = _dd(ineqs, eqs, 1 + d)
    vertices = []
    recession = []
    for r in data.rays:
        if r[0] > 0:
            vertices.append(tuple(Fraction(x, r[0]) for x in r[1:]))
        else:
            recession.append(primitive(r[1:]))
    lines = []
    for l in data.lineality:
        assert l[0] == 0, "homogenisation coordinate cannot be two-sided"
        lines.append(primitive(l[1:]))
    if not vertices:
        # a nonempty polyhedron always yields a ray with positive
        # homogenisation coordinate, so this slice is empty
        return SlicePolyhedron((), (), ())
    return SlicePolyhedron(tuple(sorted(vertices)), tuple(sorted(recession)),
                           tuple(sorted(lines)))
