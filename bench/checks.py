"""Output checks that share no code with the program's own verifier.

Cones are re-derived here from the inequality and equation rows tfan
prints: a brute-force exact vertex enumeration (every extreme ray of a cone
in Q^d is cut out by d - 1 independent tight rows) gives rays and
lineality, which must match tfan's V-description.  The fan properties are
then decided on these independent V-descriptions:

* sampled weights with w_t < 0 are all covered;
* maximal cones are full-dimensional and meet face to face;
* the lineality space contains (0, 1, ..., 1);
* every facet off {w_t = 0} lies in exactly two maximal cones, those facet
  neighbours are exactly the pairs tfan reports as adjacent, and that
  adjacency graph is connected.

Each function returns a list of failure messages (empty when all hold).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _echelon(rows):
    """Row echelon form over Q; returns (rows, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _rank(rows):
    return len(_echelon(rows)[0]) if rows else 0


def _null(rows, d):
    """Basis of {v : r . v = 0 for all rows}."""
    if not rows:
        return [tuple(int(i == j) for j in range(d)) for i in range(d)]
    red, pivots = _echelon(rows)
    out = []
    for free in (c for c in range(d) if c not in pivots):
        v = [Fraction(0)] * d
        v[free] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[free] / row[pc]
        out.append(_primitive(v))
    return out


def _primitive(v):
    den = 1
    for x in v:
        den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
    ints = [int(Fraction(x) * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


class VCone:
    """Closed cone {A v >= 0, B v = 0, v_0 <= 0} with its own V-description."""

    def __init__(self, d, ineqs, eqs):
        self.d = d
        rows = {_primitive(r) for r in ineqs if any(r)}
        rows.add((-1,) + (0,) * (d - 1))  # the halfspace v_0 <= 0
        self.eqs = [tuple(r) for r in eqs if any(r)]
        self.lineality = _null(sorted(rows) + self.eqs, d)
        pointed_eqs = self.eqs + self.lineality
        need = d - _rank(pointed_eqs) - 1
        rays = set()
        if need >= 0:
            for subset in combinations(sorted(rows), need):
                sol = _null(pointed_eqs + list(subset), d)
                if len(sol) != 1:
                    continue
                r = sol[0]
                for cand in (r, tuple(-x for x in r)):
                    if all(_dot(a, cand) >= 0 for a in rows):
                        rays.add(cand)
        self.rays = sorted(rays)
        self.dim = _rank(self.rays + self.lineality)
        # irredundant rows: those that define a facet
        self.rows = [a for a in sorted(rows)
                     if _rank([r for r in self.rays if _dot(a, r) == 0]
                              + self.lineality) == self.dim - 1
                     and any(_dot(a, r) for r in self.rays)]

    def holds(self, w) -> bool:
        return w[0] <= 0 and all(_dot(a, w) >= 0 for a in self.rows) and \
            all(_dot(b, w) == 0 for b in self.eqs)

    def contains_cone(self, gens) -> bool:
        return all(self.holds(g) for g in gens)

    def face_gens(self, tight):
        """Generators of the face cut out by the rows `tight`."""
        rays = [r for r in self.rays if all(_dot(a, r) == 0 for a in tight)]
        return rays + self.lineality + [tuple(-v for v in l) for l in self.lineality]

    def smallest_face(self, x):
        """Generators of the smallest face containing the point x."""
        return self.face_gens([a for a in self.rows if _dot(a, x) == 0])

    def facets(self):
        """Generators of each facet."""
        return [self.face_gens([a]) for a in self.rows]

    def same_as(self, rays, lineality) -> bool:
        """Same cone as a given V-description (rays count modulo lineality)."""
        r = _rank(self.lineality)
        if len(lineality) != r or _rank(self.lineality + list(lineality)) != r:
            return False
        return sorted(_primitive(_project(v, self.lineality)) for v in rays) == self.rays


def _project(v, basis):
    """Component of v orthogonal to the span of basis."""
    ortho = []
    for b in basis:
        b = [Fraction(x) for x in b]
        for o in ortho:
            b = [x - _dot(b, o) / _dot(o, o) * y for x, y in zip(b, o)]
        ortho.append(b)
    v = [Fraction(x) for x in v]
    for o in ortho:
        v = [x - _dot(v, o) / _dot(o, o) * y for x, y in zip(v, o)]
    return v


def fingerprint(fan):
    """Sorted cone keys (rays, lineality) and ADJ pairs, as stored in reference.json."""
    return {"cones": [[list(map(list, c.data.rays)), list(map(list, c.data.lineality))]
                      for c in fan.maximal_cones],
            "adj": [[i, j] for i, j, _ in fan.adjacency]}


def check_fan(name, fan, rng: random.Random, samples: int = 200):
    """All fan properties of one computed fan."""
    bad = []
    cones = fan.maximal_cones
    if not cones:
        return [f"{name}: no maximal cones"]
    vs = [VCone(c.hcone.dim_ambient, c.hcone.ineqs, c.hcone.eqs) for c in cones]
    d = vs[0].d
    ones = (0,) + (1,) * (d - 1)
    for i, (c, v) in enumerate(zip(cones, vs)):
        if not v.same_as(c.data.rays, c.data.lineality):
            bad.append(f"{name}: cone {i} rays/lineality differ from its rows")
        if v.dim != d:
            bad.append(f"{name}: cone {i} has dimension {v.dim} < {d}")
        if _rank(v.lineality + [ones]) != _rank(v.lineality):
            bad.append(f"{name}: cone {i} lineality misses (0,1,..,1)")
    for _ in range(samples):
        w = (-Fraction(rng.randint(1, 24), rng.randint(1, 4)),) + tuple(
            Fraction(rng.randint(-24, 24), rng.randint(1, 4)) for _ in range(d - 1))
        if not any(v.holds(w) for v in vs):
            bad.append(f"{name}: weight {w} is in no cone")
            break
    for i, j in combinations(range(len(vs)), 2):
        meet = VCone(d, vs[i].rows + vs[j].rows, vs[i].eqs + vs[j].eqs)
        x = tuple(sum(col) for col in zip(*meet.rays)) if meet.rays else (0,) * d
        if not (vs[j].contains_cone(vs[i].smallest_face(x))
                and vs[i].contains_cone(vs[j].smallest_face(x))):
            bad.append(f"{name}: cones {i} and {j} do not meet in a common face")
    neighbours = set()
    for i, v in enumerate(vs):
        for gens in v.facets():
            if all(g[0] == 0 for g in gens):
                continue  # facet inside the boundary {w_t = 0}
            holders = [j for j, u in enumerate(vs) if u.contains_cone(gens)]
            if len(holders) != 2:
                bad.append(f"{name}: a facet of cone {i} lies in {len(holders)} cones")
            else:
                neighbours.add(tuple(holders))
    adjacent = {(i, j) for i, j, _ in fan.adjacency}
    if adjacent != neighbours:
        bad.append(f"{name}: reported adjacency {sorted(adjacent)} != facet "
                   f"neighbours {sorted(neighbours)}")
    reached = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for a, b in adjacent:
            for u, w in ((a, b), (b, a)):
                if u == i and w not in reached:
                    reached.add(w)
                    frontier.append(w)
    if len(reached) != len(cones):
        bad.append(f"{name}: adjacency graph reaches {len(reached)} of {len(cones)} cones")
    return bad


def interior_weight(rays, lineality, rng: random.Random):
    """Seeded point in the interior of a full-dimensional cone: a combination
    of all rays with positive coefficients plus any lineality vector."""
    d = len(rays[0])
    w = [0] * d
    for r in rays:
        c = rng.randint(1, 9)
        w = [a + c * b for a, b in zip(w, r)]
    for l in lineality:
        c = rng.randint(-9, 9)
        w = [a + c * b for a, b in zip(w, l)]
    return tuple(w)


def in_cone(hcone, w) -> bool:
    """w in the closed cone given by tfan's rows."""
    return w[0] <= 0 and all(_dot(a, w) >= 0 for a in hcone.ineqs) and \
        all(_dot(b, w) == 0 for b in hcone.eqs)


def strictly_inside(hcone, w) -> bool:
    """w in the interior of a full-dimensional cone given by its rows."""
    return w[0] < 0 and not hcone.eqs and all(_dot(a, w) > 0 for a in hcone.ineqs)
