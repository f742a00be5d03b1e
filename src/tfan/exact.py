"""Exact integer and rational linear algebra.

Integers are plain Python ints (arbitrary precision), rationals are
``fractions.Fraction``; both normalise eagerly, so invariants like
"denominator > 0, lowest terms" come for free.  Vectors are tuples, matrices
are tuples of equal-length row tuples.  Everything here is pure and
deterministic: Gaussian elimination always pivots on the first nonzero entry
of a column.

``integral``, ``primitive`` and ``rank`` are fraction-free: they clear a
vector's denominators once, by a positive integer factor, and then work in
integers only, so integer input never builds a ``Fraction``.  ``rref`` and
``kernel_basis`` work over Q and return ``Fraction`` entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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
    return sum(a * b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vneg(u):
    return tuple(-a for a in u)


def vscale(c, u):
    return tuple(c * a for a in u)


def rref(rows):
    """Reduced row echelon form.

    Returns (rref_rows, pivot_columns).  Rows of the result are Fraction
    tuples with zero rows dropped; the row space is preserved.  Pivot choice
    is the first row with a nonzero entry in the current column, which makes
    the output deterministic.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return (), ()
    ncols = len(m[0])
    if any(len(row) != ncols for row in m):
        raise InvalidInput("ragged matrix")
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot_row = None
        for r in range(pr, len(m)):
            if m[r][pc] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        pv = m[pr][pc]
        m[pr] = [x / pv for x in m[pr]]
        for r in range(len(m)):
            if r != pr and m[r][pc] != 0:
                f = m[r][pc]
                m[r] = [x - f * y for x, y in zip(m[r], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(m):
            break
    out = tuple(tuple(row) for row in m[:pr])
    return out, tuple(pivots)


def rank(rows) -> int:
    """Rank by fraction-free elimination.

    Each row is made integral once; then the last remaining row is the
    pivot, its first nonzero column is cleared from every other row by
    integer cross-multiplication, and each changed row is divided by the gcd
    of its entries so the numbers stay small.
    """
    m = [integral(row) for row in rows]
    if m and any(len(row) != len(m[0]) for row in m):
        raise InvalidInput("ragged matrix")
    m = [row for row in m if any(row)]
    r = 0
    while m:
        pivot = m.pop()
        c = next(i for i, x in enumerate(pivot) if x)
        pc = pivot[c]
        rest = []
        for row in m:
            f = row[c]
            if f:
                row = [pc * x - f * y for x, y in zip(row, pivot)]
                g = gcd(*row)
                if not g:
                    continue
                if g != 1:
                    row = [x // g for x in row]
            rest.append(row)
        m = rest
        r += 1
    return r


def kernel_basis(rows, dim: int):
    """Basis of {v in Q^dim : row . v = 0 for every row}.

    Returned vectors are Fraction tuples; with no rows this is the standard
    basis of Q^dim.
    """
    red, pivots = rref(rows)
    if red and len(red[0]) != dim:
        raise InvalidInput("row length does not match dim")
    pivot_set = set(pivots)
    free = [c for c in range(dim) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * dim
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
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
