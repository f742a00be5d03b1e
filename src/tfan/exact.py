"""Exact integer and rational linear algebra.

Integers are plain Python ints (arbitrary precision), rationals are
``fractions.Fraction``; both normalise eagerly, so invariants like
"denominator > 0, lowest terms" come for free.  Vectors are tuples, matrices
are tuples of equal-length row tuples.  Everything here is pure and
deterministic: Gaussian elimination always pivots on the first nonzero entry
of a column.

All of it is fraction-free: ``integral`` clears a vector's denominators
once, by a positive integer factor, and everything else works in integers
only, so integer input never builds a ``Fraction``.  ``rref`` is the one
elimination; ``rank`` and ``kernel_basis`` read its echelon form, and the
rows and vectors they return are primitive int tuples.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .errors import InvalidInput


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with g = gcd(a, b) > 0 and g = u*a + v*b."""
    if a == 0 and b == 0:
        raise InvalidInput("extended_gcd(0, 0) is undefined")
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def p_valuation(c: int, p: int) -> int:
    """Largest m with p**m dividing c.  Requires c != 0 and p >= 2."""
    if c == 0:
        raise InvalidInput("p_valuation of 0 is undefined")
    if p < 2:
        raise InvalidInput("p_valuation needs p >= 2")
    m = 0
    c = abs(c)
    while c % p == 0:
        c //= p
        m += 1
    return m


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact below 3.3 * 10**24."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def dot(u, v):
    """Scalar product of two equal-length vectors."""
    if len(u) != len(v):
        raise InvalidInput(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def vneg(u):
    return tuple(-a for a in u)


def rref(rows):
    """Reduced row echelon form by fraction-free Gauss-Jordan elimination.

    Returns (rows, pivot_columns) with zero rows dropped; the row space is
    preserved.  Each row is made integral once.  The pivot of a column is
    the first remaining row with a nonzero entry there, which makes the
    output deterministic; it is made primitive and positive at the pivot and
    cleared from every other row by integer cross-multiplication, each
    changed row divided by the gcd of its entries so the numbers stay small
    (integer-preserving as in Bareiss, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination", 1968, with a gcd in place of
    the exact division by the previous pivot).  So each result row is a
    primitive int tuple, positive in its pivot column and zero in every
    other pivot column: the positive primitive multiple of the rational
    RREF row.
    """
    m = [integral(row) for row in rows]
    if not m:
        return (), ()
    if len(m) == 1:  # one row: its pivot is its first nonzero entry
        row = m[0]
        pc = next((c for c, x in enumerate(row) if x), None)
        if pc is None:
            return (), ()
        g = gcd(*row) if row[pc] > 0 else -gcd(*row)
        return (row if g == 1 else tuple(x // g for x in row),), (pc,)
    ncols = len(m[0])
    if any(len(row) != ncols for row in m):
        raise InvalidInput("ragged matrix")
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot_row = next((r for r in range(pr, len(m)) if m[r][pc]), None)
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        pivot = m[pr]
        if pivot[pc] < 0:
            pivot = m[pr] = [-x for x in pivot]
        g = gcd(*pivot)
        if g != 1:
            pivot = m[pr] = [x // g for x in pivot]
        pv = pivot[pc]
        for r, row in enumerate(m):
            f = row[pc]
            if r != pr and f:
                row = [pv * x - f * y for x, y in zip(row, pivot)]
                g = gcd(*row)
                m[r] = [x // g for x in row] if g > 1 else row
        pivots.append(pc)
        pr += 1
        if pr == len(m):
            break
    return tuple(tuple(row) for row in m[:pr]), tuple(pivots)


def rank(rows) -> int:
    """Number of nonzero rows of the echelon form."""
    return len(rref(rows)[0])


def kernel_basis(rows, dim: int):
    """Basis of {v in Q^dim : row . v = 0 for every row}.

    One primitive int vector per non-pivot column of ``rref(rows)``,
    positive in that column and zero in the other free columns; with no
    rows this is the standard basis of Q^dim.
    """
    if not rows:
        return [(0,) * i + (1,) + (0,) * (dim - 1 - i) for i in range(dim)]
    if any(len(row) != dim for row in rows):
        raise InvalidInput("row length does not match dim")
    red, pivots = rref(rows)
    # row r reads row[pc]*v[pc] + row[fc]*v[fc] = 0 on the vector for free
    # column fc; v[fc] = lcm of the pivot entries makes every v[pc] integral
    s = lcm(*(row[pc] for row, pc in zip(red, pivots)))
    basis = []
    for fc in range(dim):
        if fc in pivots:
            continue
        v = [0] * dim
        v[fc] = s
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc] * (s // row[pc])
        basis.append(primitive(v))
    return basis


def integral(v):
    """v times the lcm of its entries' denominators, as an int tuple; an
    all-int v comes back unscaled."""
    if all(type(x) is int for x in v):
        return tuple(v)
    m = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (m // x.denominator) for x in v)


def primitive(v):
    """Smallest positive integer multiple of v with coprime entries."""
    ints = integral(v)
    g = gcd(*ints)
    if g == 0:
        raise InvalidInput("primitive of the zero vector is undefined")
    return ints if g == 1 else tuple(x // g for x in ints)
