"""Standard bases over the integers under t-local orderings.

Coefficients live in Z, not a field, so the completion uses both
S-polynomials (cancel the monomial lcm) and GCD-polynomials (shrink leading
coefficients to their gcd).  Division needs a unit multiplier: dividing 1 by
1 - t only works as (1 - t) * 1 = 1 * (1 - t) + 0.

Run:  python3 demos/02_standard_bases.py
"""

from tfan import (
    leading_term,
    lex_ordering,
    minimize,
    mora_weak_nf,
    standard_basis,
    weighted_ordering,
)
from tfan.cli import format_poly, parse_poly

names = ["x", "y"]
ordering = weighted_ordering((-1, 1, 1), 2)

F = [parse_poly(s, names) for s in ("2 - t", "x*y^2 - t^2*y^3", "x^2 - t^3*y^2")]
print("generators:")
for f in F:
    print("  ", format_poly(f, names))

sb = standard_basis(ordering, F)
print("\nstandard basis (note the new element t^3*y^4):")
for g in minimize(sb).elements:
    print("  ", format_poly(g, names), "   lt =", leading_term(ordering, g))

# Weak normal form with unit multiplier: membership test for an element
# assembled from the generators.
probe = F[1].term_mul(1, (1, 1, 0)) - F[2].term_mul(2, (0, 0, 2))
res = mora_weak_nf(ordering, probe, sb.elements)
print("\nweak normal form of a random combination:")
print("  remainder:", format_poly(res.remainder, names))
print("  unit multiplier:", format_poly(res.unit, names))
assert res.remainder.is_zero

# The local phenomenon in its purest form: dividing 1 by 1 - t.
o1 = lex_ordering(1)
one = parse_poly("1", ["x"])
res = mora_weak_nf(o1, one, [parse_poly("1 - t", ["x"])])
print("\ndividing 1 by 1 - t:")
print("  unit:", format_poly(res.unit, ["x"]), " quotient:",
      format_poly(res.quotients[0], ["x"]), " remainder:",
      format_poly(res.remainder, ["x"]))
