import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from tfan import InvalidInput, extended_gcd, kernel_basis, p_valuation, primitive, rank, rref
from tfan.cli import format_frac
from tfan.exact import dot

from helpers import old_dot, old_format_frac


@pytest.mark.parametrize("a,b,g", [(2, 3, 1), (4, 6, 2), (5, 0, 5), (-4, 6, 2), (0, -7, 7)])
def test_extended_gcd_examples(a, b, g):
    gg, u, v = extended_gcd(a, b)
    assert gg == g
    assert u * a + v * b == gg


def test_extended_gcd_bezout_randomised():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        if a == 0 and b == 0:
            continue
        g, u, v = extended_gcd(a, b)
        assert g > 0 and a % g == 0 and b % g == 0
        assert u * a + v * b == g


def test_extended_gcd_rejects_zero_pair():
    with pytest.raises(InvalidInput):
        extended_gcd(0, 0)


@pytest.mark.parametrize("c,p,m", [(12, 2, 2), (7, 2, 0), (-8, 2, 3), (45, 3, 2)])
def test_p_valuation(c, p, m):
    assert p_valuation(c, p) == m


def test_p_valuation_rejects_zero():
    with pytest.raises(InvalidInput):
        p_valuation(0, 2)


def test_rref_identity():
    red, piv = rref([(1, 0), (0, 1)])
    assert red == ((1, 0), (0, 1)) and piv == (0, 1)


def test_rref_rank_one():
    red, piv = rref([(1, 2), (2, 4)])
    assert red == ((1, 2),) and piv == (0,)


def test_rref_swaps():
    red, piv = rref([(0, 1), (1, 0)])
    assert red == ((1, 0), (0, 1))


def test_rref_idempotent():
    rng = random.Random(3)
    for _ in range(25):
        m = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)]
        once, _ = rref(m)
        twice, _ = rref(once)
        assert once == twice


def test_kernel_basis_orthogonal():
    rows = [(1, 1, 0, -1), (0, 2, -1, 0)]
    basis = kernel_basis(rows, 4)
    assert len(basis) == 2
    for v in basis:
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0
    assert rank(list(rows) + list(basis)) == 4


@pytest.mark.parametrize("v,out", [
    ((Fraction(-1, 2), 1, Fraction(1, 2)), (-1, 2, 1)),
    ((0, 3, 3), (0, 1, 1)),
    ((2, 0, 0), (1, 0, 0)),
])
def test_primitive_examples(v, out):
    assert primitive(v) == out


def test_primitive_scaling_invariant():
    rng = random.Random(5)
    for _ in range(50):
        v = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(4))
        if all(x == 0 for x in v):
            continue
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert primitive(v) == primitive(tuple(lam * x for x in v))


def test_primitive_rejects_zero():
    with pytest.raises(InvalidInput):
        primitive((0, 0))


def primitive_by_fractions(v):
    """primitive() from its definition over Q: clear denominators, then
    divide by the gcd."""
    fracs = [Fraction(x) for x in v]
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


small_ints = st.integers(-6, 6)
small_fractions = st.fractions(-6, 6, max_denominator=5)


def matrices(entries):
    return st.integers(1, 5).flatmap(
        lambda ncols: st.lists(st.tuples(*[entries] * ncols), max_size=6))


@settings(max_examples=100, deadline=None)
@given(rows=matrices(small_ints))
def test_rank_matches_rref_on_integer_matrices(rows):
    assert rank(rows) == len(rref(rows)[0])


@settings(max_examples=100, deadline=None)
@given(rows=matrices(st.one_of(small_ints, small_fractions)))
def test_rank_matches_rref_on_rational_matrices(rows):
    assert rank(rows) == len(rref(rows)[0])


def test_rank_rejects_ragged_matrix():
    with pytest.raises(InvalidInput):
        rank([(1, 2), (1, 2, 3)])


@settings(max_examples=100, deadline=None)
@given(v=st.lists(small_ints, min_size=1, max_size=6).filter(any))
def test_primitive_of_int_vectors_matches_definition(v):
    assert primitive(tuple(v)) == primitive_by_fractions(v)


@settings(max_examples=100, deadline=None)
@given(v=st.lists(st.one_of(small_ints, small_fractions), min_size=1,
                  max_size=6).filter(any))
def test_primitive_of_mixed_vectors_matches_definition(v):
    out = primitive(tuple(v))
    assert out == primitive_by_fractions(v)
    assert all(type(x) is int for x in out)


def test_kernel_basis_checks_every_row_length():
    # all-zero rows leave no echelon row to check, so each input row must be
    with pytest.raises(InvalidInput):
        kernel_basis([(0, 0, 0)], 2)
    with pytest.raises(InvalidInput):
        kernel_basis([(1, 0), (0, 0, 0)], 2)


# ---------------------------------------------------------------------------
# Independent oracle: Gauss-Jordan over Q with Fraction entries
# ---------------------------------------------------------------------------


def rref_oracle(rows):
    """Reduced row echelon form over Q: Fraction rows, pivot entries 1.

    Pivots on the first row with a nonzero entry in the current column, as
    ``rref`` does; returns (rows, pivot_columns) with zero rows dropped.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return (), ()
    ncols = len(m[0])
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot_row = next((r for r in range(pr, len(m)) if m[r][pc] != 0), None)
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
    return tuple(tuple(row) for row in m[:pr]), tuple(pivots)


def kernel_oracle(rows, dim):
    """Kernel basis over Q read off ``rref_oracle``: for each free column,
    the Fraction vector that is 1 there and 0 in the other free columns."""
    red, pivots = rref_oracle(rows)
    basis = []
    for fc in range(dim):
        if fc in pivots:
            continue
        v = [Fraction(0)] * dim
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def is_positive_multiple(v, u):
    """v = lam * u for some rational lam > 0."""
    k = next(i for i, x in enumerate(u) if x != 0)
    lam = Fraction(v[k]) / u[k]
    return lam > 0 and all(a == lam * b for a, b in zip(v, u))


def is_primitive_int(v):
    return all(type(x) is int for x in v) and gcd(*v) == 1


def check_elimination_against_oracle(ncols, rows):
    red, pivots = rref(rows)
    red_o, pivots_o = rref_oracle(rows)
    assert pivots == pivots_o
    assert len(red) == len(red_o)
    for row, row_o, pc in zip(red, red_o, pivots):
        assert is_primitive_int(row) and row[pc] > 0
        assert is_positive_multiple(row, row_o)
    assert rank(rows) == len(red_o)
    kernel, kernel_o = kernel_basis(rows, ncols), kernel_oracle(rows, ncols)
    assert len(kernel) == len(kernel_o)
    for v, v_o in zip(kernel, kernel_o):
        assert is_primitive_int(v)
        assert is_positive_multiple(v, v_o)


def shaped_matrices(entries):
    """(ncols, rows) with 1 to 5 columns and up to 6 rows."""
    return st.integers(1, 5).flatmap(lambda ncols: st.tuples(
        st.just(ncols), st.lists(st.tuples(*[entries] * ncols), max_size=6)))


@seed(10)
@settings(max_examples=150, deadline=None)
@given(m=shaped_matrices(small_ints))
def test_elimination_matches_fraction_oracle_on_integer_matrices(m):
    check_elimination_against_oracle(*m)


@seed(11)
@settings(max_examples=150, deadline=None)
@given(m=shaped_matrices(st.one_of(small_ints, small_fractions)))
# the cases answered without elimination: no row, and one row
@example(m=(3, []))
@example(m=(3, [(0, 0, 0)]))
@example(m=(4, [(0, Fraction(-2, 3), 4, Fraction(1, 2))]))
@example(m=(2, [(-6, 4)]))
def test_elimination_matches_fraction_oracle_on_rational_matrices(m):
    check_elimination_against_oracle(*m)


vector_entries = st.one_of(st.integers(-10**30, 10**30), small_fractions)


@seed(22)
@settings(max_examples=200, deadline=None)
@given(u=st.lists(vector_entries, max_size=6), v=st.lists(vector_entries, max_size=6),
       c=vector_entries)
def test_vector_arithmetic_and_format_frac_match_the_old_routes(u, v, c):
    """``dot`` on ``map`` equals the generator route and rejects unequal
    lengths as before, and ``format_frac`` prints every int and Fraction
    (and a bool) as the ``Fraction`` route does."""
    u, v = tuple(u), tuple(v)
    if len(u) == len(v):
        assert dot(u, v) == old_dot(u, v)
    else:
        with pytest.raises(InvalidInput, match="dimension mismatch"):
            dot(u, v)
        with pytest.raises(InvalidInput, match="dimension mismatch"):
            old_dot(u, v)
    for x in u + v + (c, True, False):
        assert format_frac(x) == old_format_frac(x)
