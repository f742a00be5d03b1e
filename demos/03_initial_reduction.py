"""Initial reduction: the computable substitute for reduced bases.

Fully reduced standard bases under a t-local ordering are power series in t,
so they cannot be computed.  Initially reduced bases only insist that no
skeleton tail term lies under a basis leading term; that is enough to read
the Groebner cone off the basis, and when the ideal contains p - t for a
prime p it is computable in finitely many steps.

Run:  python3 demos/03_initial_reduction.py
"""

from tfan import (
    InredContext,
    StandardBasis,
    cone_from_basis,
    contains,
    ensure_initially_reduced,
    initial_form,
    inred_same_degree,
    is_initially_reduced,
    p_reduce,
    weighted_ordering,
)
from tfan.cli import format_poly, parse_poly

# (p - t)-reduction of a single element: even t-powers with even
# coefficients trade upward until every skeleton tail coefficient is odd.
names3 = ["x1", "x2", "x3"]
ctx = InredContext(2, weighted_ordering((-1, 1, 1, 1), 3))
g = parse_poly("x1^2 - t^2*x1^2 - 2*t^2*x3^2 - t^3*x3^2", names3)
print("p_reduce:", format_poly(g, names3), "->",
      format_poly(p_reduce(ctx, g), names3))

# A same-degree block: two triangular passes against each other and p - t.
block = [parse_poly(s, names3) for s in (
    "x1^2 + t*x2^2 - t^2*x3^2",
    "x2^2 + t*x1^2 + t*x3^2 + t^2*x3^2",
    "t^3*x3^2 + t^4*x1^2 + t^4*x2^2 + t^5*x2^2")]
print("\nsame-degree block reduction:")
for f in inred_same_degree(ctx, block):
    print("  ", format_poly(f, names3))

# Why initial reduction matters: without it, tail terms cut phantom
# inequalities into the cone.
names = ["x", "y", "z"]
o = weighted_ordering((-1, 1, 1, 1), 3)
F = [parse_poly(s, names) for s in ("2 - t", "x + t^2*y + t^3*z", "y + t*x + t^2*z")]
print("\ngenerators initially reduced?", is_initially_reduced(o, F))

w = (-1, 2, 0, 1)
naive = cone_from_basis(StandardBasis(F, o),
                        tuple(initial_form((-1, 1, 1, 1), f) for f in F))
print(f"naive cone contains {w}?", contains(naive, w))

basis = ensure_initially_reduced(o, F, prime=2)
print("initially reduced basis:")
for f in basis.elements:
    print("  ", format_poly(f, names))
true_cone = cone_from_basis(basis,
                            tuple(initial_form((-1, 1, 1, 1), f) for f in basis.elements))
print(f"true cone contains {w}?", contains(true_cone, w))
