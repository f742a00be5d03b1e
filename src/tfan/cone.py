"""Exact rational polyhedral cones and Groebner-cone extraction.

An ``HCone`` stores inequality rows A (a . v >= 0) and equation rows B
(b . v = 0) over Q^{1+n}; the halfspace v_0 <= 0 is implicit in every cone
and never stored, so the A/B matrices read off a basis stay pure.  The
V-side (``ConeData``) is produced by an exact double description sweep:
rays are primitive integer vectors, the lineality basis is in reduced
echelon form, and both are sorted, which makes ``ConeData`` a canonical form
suitable for cone equality.  The sweep runs on integer vectors only, and it
tests adjacency on zero-set bitmasks, one per ray, instead of re-evaluating
dot products (Fukuda and Prodon, "Double description method revisited",
1996).  Facets are found from the same zero-set reasoning (tight-ray sets of
the rows) and carry their V-description from the parent, so fan traversal
sweeps each maximal cone once (as in Fukuda, Jensen and Thomas, "Computing
Groebner fans", 2007).

``cone_from_basis`` realises the inequality/equation extraction from an
initially reduced standard basis: for each element the exponent vectors of
minimal t-power per x-monomial are collected; differences from the leading
exponent give inequality rows, differences within each initial form's
support give equation rows.  Those exponents are read straight off the
canonical term order, which keeps each x-monomial's terms together with the
lowest t-power first.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .division import StandardBasis
from .errors import InvalidInput
from .exact import dot, integral, kernel_basis, primitive, rank, rref, vneg, vscale, vsub
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

    def __post_init__(self):
        for row in self.ineqs + self.eqs:
            if len(row) != self.dim_ambient:
                raise InvalidInput("row has wrong length")

    def all_ineq_rows(self) -> tuple[Vec, ...]:
        return (_halfspace_row(self.dim_ambient),) + self.ineqs


@dataclass(frozen=True)
class ConeData:
    """Canonical V-description: sorted primitive rays, echelon lineality."""

    rays: tuple[Vec, ...]
    lineality: tuple[Vec, ...]
    dim: int


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


def make_cone(dim_ambient: int, ineqs=(), eqs=()) -> HCone:
    """Canonical HCone: rows primitive, deduplicated and sorted."""
    return HCone(dim_ambient, _dedupe_rows(ineqs), _dedupe_rows(eqs))


# ---------------------------------------------------------------------------
# Double description
# ---------------------------------------------------------------------------


def _dd(ineq_rows, eq_rows, dim):
    """Core double description sweep; returns (rays, lineality_basis).

    Starts from the solution space of the equations (all lineality) and
    imposes inequalities one at a time.  While the current cone still has
    lineality meeting a new halfspace, one lineality generator is traded for
    a ray; afterwards the classical plus/zero/minus split with adjacent-pair
    combination applies.

    The sweep is integer-only (Fukuda and Prodon, "Double description method
    revisited", 1996): kernel vectors and the lineality's echelon rows come
    primitive from ``exact``, rational rows are scaled to integers once, and
    the trade replaces each vector by a positive multiple
    ``v0*l - (a.l)*l0`` of its rational projection, made primitive, so every
    ray is primitive throughout.  Each ray carries its zero set, a bitmask
    of the imposed rows it is tight on, so the adjacency test is the
    combinatorial one on masks: two rays are adjacent iff no third ray's
    zero set contains the meet of theirs.
    """
    L = kernel_basis(eq_rows, dim)
    R: list[Vec] = []
    Z: list[int] = []  # Z[i]: bit k set iff the k-th imposed row is tight on R[i]
    for k, a in enumerate(ineq_rows):
        a = integral(a)
        bit = 1 << k
        vals_l = [dot(a, l) for l in L]
        i0 = next((i for i, v in enumerate(vals_l) if v != 0), None)
        if i0 is not None:
            l0 = L[i0] if vals_l[i0] > 0 else vneg(L[i0])
            v0 = abs(vals_l[i0])
            L = [primitive(vsub(vscale(v0, l), vscale(v, l0)))
                 for i, (l, v) in enumerate(zip(L, vals_l)) if i != i0]
            R = [primitive(vsub(vscale(v0, r), vscale(dot(a, r), l0))) for r in R]
            R.append(l0)
            Z = [z | bit for z in Z]
            Z.append(bit - 1)
        else:
            vals = [dot(a, r) for r in R]
            if any(v < 0 for v in vals):
                plus = [i for i, v in enumerate(vals) if v > 0]
                minus = [i for i, v in enumerate(vals) if v < 0]
                new = [(R[i], Z[i]) for i in plus]
                new += [(r, z | bit) for r, z, v in zip(R, Z, vals) if v == 0]
                for p in plus:
                    for m in minus:
                        common = Z[p] & Z[m]
                        if all(z & common != common
                               for i, z in enumerate(Z) if i != p and i != m):
                            new.append((vsub(vscale(vals[p], R[m]),
                                             vscale(vals[m], R[p])), common | bit))
                R, Z = [], []
                seen = set()
                for r, z in new:
                    if any(r):
                        r = primitive(r)
                        if r not in seen:
                            seen.add(r)
                            R.append(r)
                            Z.append(z)
            else:
                Z = [z | bit if v == 0 else z for z, v in zip(Z, vals)]
    return tuple(sorted(set(R))), rref(L)[0]


def dd_rays(cone: HCone) -> ConeData:
    """Exact V-description of an HCone (implicit halfspace included).

    Computed once per instance and kept on it: an HCone is immutable, so
    its V-description never goes stale, and it lives only as long as the
    HCone does.  A facet cone from ``facets`` comes with it already set, so
    only maximal cones (and cones built directly) are swept.
    """
    if cone._data is None:
        rays, lineality = _dd(list(cone.all_ineq_rows()), list(cone.eqs),
                              cone.dim_ambient)
        d = rank(list(rays) + list(lineality)) if (rays or lineality) else 0
        object.__setattr__(cone, "_data", ConeData(rays, lineality, d))
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
    one is kept.  Each facet cone carries its V-description, read off the
    parent: the tight rays (still sorted), the parent's lineality and one
    dimension less, so it is never swept.  Facets inside {0} x R^n are
    flagged so fan traversal can skip them.

    The parent's rows are made canonical once: a facet cone is the parent's
    deduplicated inequalities with its row a added to the deduplicated
    equations, which is ``make_cone``'s cone for it since a is one of the
    deduplicated rows already.  The rows swept for facets are those same
    inequalities with the implicit halfspace row put in its sorted place,
    which is what deduplicating all of them gives: the halfspace row is
    primitive.
    """
    data = dd_rays(cone)
    ineqs, eqs = _dedupe_rows(cone.ineqs), set(_dedupe_rows(cone.eqs))
    rows = list(ineqs)
    halfspace = _halfspace_row(cone.dim_ambient)
    if halfspace not in rows:
        insort(rows, halfspace)
    masks = [sum(1 << i for i, r in enumerate(data.rays) if dot(a, r) == 0) for a in rows]
    proper = set(masks) - {(1 << len(data.rays)) - 1}
    maximal = {m for m in proper if not any(o != m and o & m == m for o in proper)}
    out: list[Facet] = []
    for a, m in zip(rows, masks):
        if m not in maximal:
            continue
        maximal.discard(m)  # later rows with this tight set repeat the facet
        tight = tuple(r for i, r in enumerate(data.rays) if m >> i & 1)
        fc = HCone(cone.dim_ambient, ineqs, tuple(sorted(eqs | {a})))
        object.__setattr__(fc, "_data", ConeData(tight, data.lineality, data.dim - 1))
        out.append(Facet(fc, primitive(vneg(a)), all(r[0] == 0 for r in tight)))
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
    """
    if len(basis.elements) != len(initial_forms):
        raise InvalidInput("basis and initial forms differ in length")
    if not basis.elements:
        raise InvalidInput("empty basis")
    d = 1 + basis.elements[0].nvars
    ineqs: list[Vec] = []
    eqs: list[Vec] = []
    for g in basis.elements:
        lead = leading_term(basis.ordering, g).exp
        ineqs += [vsub(lead, e) for e in _skeleton_exps(g) if e != lead]
    for h in initial_forms:
        if h.is_zero:
            raise InvalidInput("zero initial form")
        base, *others = _skeleton_exps(h)
        eqs += [vsub(base, e) for e in others]
    return make_cone(d, ineqs, eqs)


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
    ineqs = [(0,) + tuple(a) for a in cone.all_ineq_rows()]
    ineqs.append((1,) + (0,) * d)
    eqs = [(0,) + tuple(b) for b in cone.eqs]
    for coord, value in fixed:
        if not 0 <= coord < d:
            raise InvalidInput("fixed coordinate out of range")
        row = [Fraction(0)] * (1 + d)
        row[0] = -Fraction(value)
        row[1 + coord] = Fraction(1)
        eqs.append(tuple(row))
    rays, lineality = _dd(ineqs, eqs, 1 + d)
    vertices = []
    recession = []
    for r in rays:
        if r[0] > 0:
            vertices.append(tuple(Fraction(x, r[0]) for x in r[1:]))
        else:
            recession.append(primitive(r[1:]))
    lines = []
    for l in lineality:
        assert l[0] == 0, "homogenisation coordinate cannot be two-sided"
        lines.append(primitive(l[1:]))
    if not vertices:
        # a nonempty polyhedron always yields a ray with positive
        # homogenisation coordinate, so this slice is empty
        return SlicePolyhedron((), (), ())
    return SlicePolyhedron(tuple(sorted(vertices)), tuple(sorted(recession)),
                           tuple(sorted(lines)))
