"""Sparse integer polynomials in Z[t, x1..xn] and t-local monomial orderings.

An exponent vector is a tuple ``(beta, alpha_1, ..., alpha_n)``: the t-power
first, then the x-powers.  A polynomial is an immutable, canonically sorted
tuple of terms with nonzero integer coefficients.  The storage order (x-degree
descending, then alpha lexicographically descending, then beta ascending) is
descending ``_canon_key`` order; it is independent of any monomial ordering,
so one Polynomial value can be used under many orderings.

Orderings compare by a chain of rational weight vectors and fall back to a
t-local lexicographic tiebreaker: alpha compared along a fixed variable
priority (larger wins), then the smaller t-power wins, so 1 > t always holds.
The leading term of a polynomial is its compare-greatest term; under a
weighted ordering with first weight w (w_0 < 0) that is the term of maximal
w-degree, tiebroken lexicographically, which is the convention all cone and
reduction code in this package relies on.

An ordering's ``key`` reads parts computed once per ordering, on first use:
the integer-scaled weights, an ``itemgetter`` for alpha along the tiebreak
and the exponent width.  It keeps each key it computes, so an exponent is
keyed at most once per ordering object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import add, itemgetter, le, mul
from typing import Iterable, NamedTuple

from .errors import InvalidInput
from .exact import integral, is_prime

Exp = tuple  # (beta, alpha_1, ..., alpha_n)


class Term(NamedTuple):
    coeff: int
    exp: Exp


def exp_mul(e1: Exp, e2: Exp) -> Exp:
    return tuple(map(add, e1, e2))


def exp_divides(e1: Exp, e2: Exp) -> bool:
    """Componentwise e1 <= e2."""
    return all(map(le, e1, e2))


def exp_div(e1: Exp, e2: Exp) -> Exp:
    """e1 - e2; requires e2 | e1."""
    if not exp_divides(e2, e1):
        raise InvalidInput(f"{e2} does not divide {e1}")
    return tuple(a - b for a, b in zip(e1, e2))


def exp_x_degree(e: Exp) -> int:
    return sum(e[1:])


def term_divides(t1: Term, t2: Term) -> bool:
    """Term divisibility over Z: coefficient divides and exponents <=."""
    return t2.coeff % t1.coeff == 0 and exp_divides(t1.exp, t2.exp)


def term_div(t1: Term, t2: Term) -> Term:
    """t1 / t2 as a term; requires t2 | t1."""
    if t1.coeff % t2.coeff != 0:
        raise InvalidInput("coefficient does not divide")
    return Term(t1.coeff // t2.coeff, exp_div(t1.exp, t2.exp))


def _canon_key(e: Exp):
    """The canonical term order is descending in this key: x-degree
    descending, then alpha lexicographically descending, then beta
    ascending."""
    return (sum(e) - e[0], e[1:], -e[0])


@dataclass(frozen=True)
class Polynomial:
    """Immutable sparse polynomial over Z in t, x1..xn."""

    terms: tuple[Term, ...] = ()
    # (ordering, leading term) as the last ``leading_term`` or
    # ``record_leading_term`` left it, so one search (or none, where the
    # builder knows the term) serves every later reader under that ordering
    # object.  Equality, hashing and repr ignore it.
    _lt: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def from_terms(items: Iterable[tuple[int, Exp]]) -> "Polynomial":
        """The polynomial sum c * t^.. x^.. over (c, exp) pairs in any order.

        This is the one place where terms are merged and sorted: equal
        exponents are summed, zero coefficients dropped and the rest sorted
        by descending ``_canon_key`` (exponents are unique, so no ties).
        Sums and products hand their terms here unmerged.
        """
        acc: dict[Exp, int] = {}
        width = None
        for coeff, exp in items:
            exp = tuple(exp)
            if width is None:
                width = len(exp)
            elif len(exp) != width:
                raise InvalidInput("mixed exponent lengths")
            acc[exp] = acc.get(exp, 0) + coeff
        ordered = sorted(acc.items(), key=lambda kv: _canon_key(kv[0]), reverse=True)
        return Polynomial(tuple([Term(c, e) for e, c in ordered if c]))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def constant(c: int, nvars: int) -> "Polynomial":
        return Polynomial.from_terms([(c, (0,) * (1 + nvars))])

    @staticmethod
    def term(coeff: int, exp: Exp) -> "Polynomial":
        return Polynomial.from_terms([(coeff, exp)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def nvars(self) -> int:
        if not self.terms:
            raise InvalidInput("zero polynomial has no fixed variable count")
        return len(self.terms[0].exp) - 1

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not self.terms:
            return other
        if not other.terms:
            return self
        return Polynomial.from_terms(self.terms + other.terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(Term(-c, e) for c, e in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero()
            return Polynomial(tuple(Term(c * other, e) for c, e in self.terms))
        return Polynomial.from_terms((c1 * c2, exp_mul(e1, e2))
                                     for c1, e1 in self.terms for c2, e2 in other.terms)

    __rmul__ = __mul__

    def term_mul(self, coeff: int, exp: Exp) -> "Polynomial":
        """Multiply by a single term coeff * t^.. x^..; stays canonical."""
        if coeff == 0:
            return Polynomial.zero()
        return Polynomial(tuple(Term(c * coeff, exp_mul(e, exp)) for c, e in self.terms))


def is_x_homogeneous(f: Polynomial) -> bool:
    degs = {exp_x_degree(e) for _, e in f.terms}
    return len(degs) <= 1


def x_degree(f: Polynomial) -> int:
    """Common x-degree of an x-homogeneous polynomial."""
    if f.is_zero:
        raise InvalidInput("x_degree of the zero polynomial is undefined")
    degs = {exp_x_degree(e) for _, e in f.terms}
    if len(degs) != 1:
        raise InvalidInput("polynomial is not x-homogeneous")
    return degs.pop()


# ---------------------------------------------------------------------------
# Z[t]-coefficient view: f = sum_alpha g_alpha(t) * x^alpha
# ---------------------------------------------------------------------------

TPoly = tuple  # tuple of (beta, coeff) pairs, ascending beta, coeffs nonzero


def t_coefficients(f: Polynomial) -> dict[tuple, TPoly]:
    """Every Z[t] coefficient of f, as {alpha: ((beta, c), ...)}, in one pass.

    The canonical term order keeps the terms of one alpha adjacent with beta
    ascending, so the alphas come out in canonical order and no sort is
    needed.
    """
    out: dict[tuple, list] = {}
    for c, e in f.terms:
        out.setdefault(e[1:], []).append((e[0], c))
    return {a: tuple(tp) for a, tp in out.items()}


def view_terms(coeffs: dict) -> tuple[Term, ...]:
    """The terms of a view's polynomial in canonical order; the view's
    alphas may come in any order, its betas ascending."""
    return tuple([Term(c, (b,) + a)
                  for a in sorted(coeffs, key=lambda a: (sum(a), a), reverse=True)
                  for b, c in coeffs[a]])


def from_t_coefficients(coeffs: dict) -> Polynomial:
    """The polynomial of a Z[t]-coefficient view (``view_terms``), the
    inverse of ``t_coefficients``."""
    return Polynomial(view_terms(coeffs))


def tpoly_shift(tp: TPoly, k: int) -> TPoly:
    """Multiply a Z[t] polynomial by t^k (k may be negative; must stay exact)."""
    out = []
    for beta, c in tp:
        nb = beta + k
        if nb < 0:
            raise InvalidInput("t-power would become negative")
        out.append((nb, c))
    return tuple(out)


def tpoly_min_beta(tp: TPoly) -> int:
    if not tp:
        raise InvalidInput("zero Z[t] coefficient")
    return tp[0][0]


def t_skeleton(f: Polynomial) -> Polynomial:
    """Keep, for each x-monomial, only the term of minimal t-power.

    Writing f = sum g_alpha(t) x^alpha this is sum lt(g_alpha) x^alpha; it
    does not depend on any ordering and is idempotent.
    """
    if f.is_zero:
        raise InvalidInput("t_skeleton of the zero polynomial is undefined")
    return Polynomial(tuple(Term(tp[0][1], (tp[0][0],) + a)
                            for a, tp in t_coefficients(f).items()))


# ---------------------------------------------------------------------------
# Monomial orderings
# ---------------------------------------------------------------------------


def _check_rational(w) -> None:
    """Raise unless every entry of the weight vector w is an int or a Fraction."""
    for i, x in enumerate(w):
        if not isinstance(x, (int, Fraction)):
            raise InvalidInput(f"weight entry {i} of {tuple(w)} is {x!r}, "
                               "not an integer or a Fraction")


@dataclass(frozen=True)
class MonomialOrdering:
    """A chain of weight vectors refined by a t-local lexicographic tiebreak.

    ``weights`` is a (possibly empty) tuple of vectors in Q^{1+n} with int or
    ``Fraction`` entries; comparison goes weight by weight (larger dot
    product wins), then alpha is compared lexicographically along
    ``tiebreak`` (a permutation of 0..n-1, most significant variable first;
    larger exponent wins), and finally the smaller t-power wins.  The
    tiebreak alone is the ordering x_{p0} > x_{p1} > ... > 1 > t; any weight
    chain refined by it is total and t-local as long as the first weight has
    nonpositive t-entry.

    ``weights`` are kept as given, so equality and hashing see them
    unchanged.  What ``key`` reads is computed lazily, once per ordering, as
    cached properties that equality, hashing and repr ignore: each weight
    vector scaled by the lcm of its denominators to an integer vector (which
    orders monomials the same way and keeps ``Fraction`` arithmetic out of
    ``key``), an ``itemgetter`` for alpha along the tiebreak, the exponent
    width, and the memo of the keys computed so far.
    """

    weights: tuple[tuple, ...]
    tiebreak: tuple[int, ...]

    def __post_init__(self):
        n = len(self.tiebreak)
        if sorted(self.tiebreak) != list(range(n)):
            raise InvalidInput("tiebreak must be a permutation of 0..n-1")
        for w in self.weights:
            if len(w) != 1 + n:
                raise InvalidInput("weight vector has wrong length")
            _check_rational(w)
        # t-locality (1 > t): the first weight with a nonzero t-entry must
        # have a negative one; if all t-entries vanish the tiebreak decides.
        for w in self.weights:
            if w[0] != 0:
                if w[0] > 0:
                    raise InvalidInput("ordering is not t-local: positive t-weight "
                                       "before any negative one")
                break

    @property
    def nvars(self) -> int:
        return len(self.tiebreak)

    @cached_property
    def _int_weights(self) -> tuple[tuple[int, ...], ...]:
        """Each weight vector times the lcm of its entries' denominators."""
        return tuple(integral(w) for w in self.weights)

    @cached_property
    def _alpha(self) -> itemgetter:
        """Reads alpha along the tiebreak from an exponent, as a tuple.

        The identity tiebreak (every one with n <= 1) reads the slice
        e[1:]; any other reads the permuted positions, two or more of them.
        """
        tb = self.tiebreak
        if tb == tuple(range(len(tb))):
            return itemgetter(slice(1, None))
        return itemgetter(*(1 + i for i in tb))

    @cached_property
    def _width(self) -> int:
        return 1 + len(self.tiebreak)

    @cached_property
    def _keys(self) -> dict:
        """Exponent tuple -> its ``key``, filled by ``key``."""
        return {}

    def key(self, e: Exp):
        """Sort key realising the ordering: bigger key = greater monomial.

        The key is (the tuple of integer w-degrees, alpha along the
        tiebreak, -beta), computed once per exponent tuple and ordering
        object.
        """
        k = self._keys.get(e)
        if k is None:
            if len(e) != self._width:
                raise InvalidInput("exponent vector has wrong length")
            wpart = tuple([sum(map(mul, w, e)) for w in self._int_weights])
            k = self._keys[e] = (wpart, self._alpha(e), -e[0])
        return k

    def compare(self, e1: Exp, e2: Exp) -> int:
        """-1, 0 or +1; zero only for equal exponent vectors."""
        k1, k2 = self.key(e1), self.key(e2)
        if k1 < k2:
            return -1
        if k1 > k2:
            return 1
        return 0

    def with_weights(self, *weights) -> "MonomialOrdering":
        return MonomialOrdering(tuple(tuple(w) for w in weights), self.tiebreak)


def lex_ordering(n: int, priority=None) -> MonomialOrdering:
    """Pure t-local lex ordering x_{p0} > ... > 1 > t (no weights)."""
    perm = tuple(priority) if priority is not None else tuple(range(n))
    return MonomialOrdering((), perm)


def weighted_ordering(w, n: int, priority=None) -> MonomialOrdering:
    return MonomialOrdering((tuple(w),), tuple(priority) if priority is not None else tuple(range(n)))


def leading_term(ord_: MonomialOrdering, f: Polynomial) -> Term:
    """The compare-greatest term of f under ``ord_``.

    The answer is kept on f together with the ordering, so asking again
    under the same ordering object (checked by identity) searches nothing;
    a different ordering replaces the kept answer.
    """
    kept = f._lt
    if kept is not None and kept[0] is ord_:
        return kept[1]
    if f.is_zero:
        raise InvalidInput("leading term of the zero polynomial is undefined")
    key = ord_.key
    keys = [key(t.exp) for t in f.terms]
    lt = f.terms[max(range(len(keys)), key=keys.__getitem__)]
    object.__setattr__(f, "_lt", (ord_, lt))
    return lt


def record_leading_term(ord_: MonomialOrdering, f: Polynomial, lt: Term) -> Polynomial:
    """f, with ``lt`` kept as its leading term under ``ord_``, as a
    ``leading_term`` call would keep it.

    For callers that already know the leading term from how they built f:
    a completion's packed maximum, a reduced view's carried term, a lift
    from the initial form it lifts, an initial form from its element, a
    re-anchored basis from its cone.  ``lt`` must be the term
    ``leading_term`` would find, which nothing here checks; each caller's
    docstring gives the reason it holds.
    """
    object.__setattr__(f, "_lt", (ord_, lt))
    return f


def tail(ord_: MonomialOrdering, f: Polynomial) -> Polynomial:
    if f.is_zero:
        return f
    lt = leading_term(ord_, f)
    return Polynomial(tuple(t for t in f.terms if t.exp != lt.exp))


def _max_weight_part(iw: tuple, f: Polynomial) -> Polynomial:
    """The terms of f of maximal iw-degree, iw an integer weight."""
    if f.is_zero:
        return f
    if len(iw) != len(f.terms[0].exp):
        raise InvalidInput("weight vector has wrong length")
    degs = [sum(map(mul, iw, e)) for _, e in f.terms]
    top = max(degs)
    return Polynomial(tuple([t for t, d in zip(f.terms, degs) if d == top]))


def max_weight_part(w, f: Polynomial) -> Polynomial:
    """Sum of the terms of f with maximal w-weighted degree (any rational w).

    The degrees are integer dot products with w scaled once by the positive
    lcm of its denominators, which keeps the same set of maximal terms.
    """
    _check_rational(w)
    return _max_weight_part(integral(w), f)


def initial_forms_at(w, fs: Iterable[Polynomial]) -> tuple[Polynomial, ...]:
    """The initial forms of the polynomials fs at one weight w, which must
    have a strictly negative t-entry: w is checked and scaled to integers
    once for all of them."""
    if len(w) == 0 or w[0] >= 0:
        raise InvalidInput("initial_form needs a weight with w_0 < 0")
    _check_rational(w)
    iw = integral(w)
    return tuple([_max_weight_part(iw, f) for f in fs])


def initial_form(w, f: Polynomial) -> Polynomial:
    """Initial form of f at a weight with strictly negative t-entry."""
    return initial_forms_at(w, (f,))[0]


# ---------------------------------------------------------------------------
# Z[t] content and unit normalisation
# ---------------------------------------------------------------------------


def _tp_dense(tp: TPoly) -> list[int]:
    if not tp:
        return []
    out = [0] * (tp[-1][0] + 1)
    for beta, c in tp:
        out[beta] = c
    return out


def _dense_tp(dense) -> TPoly:
    return tuple((i, c) for i, c in enumerate(dense) if c != 0)


def _dense_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _dense_content(a) -> int:
    g = 0
    for c in a:
        g = gcd(g, abs(c))
    return g


def _dense_primitive(a):
    g = _dense_content(a)
    return [c // g for c in a] if g > 1 else list(a)


def _dense_pseudo_rem(a, b):
    """Pseudo-remainder of a by b over Z (b nonzero)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and _dense_trim(a):
        da, la = len(a) - 1, a[-1]
        a = [c * lb for c in a]
        for i, bc in enumerate(b):
            a[da - db + i] -= la * bc
        _dense_trim(a)
    return a


def _dense_quotient(a, b):
    """a / b in Z[t] for trimmed a and nonzero trimmed b, or None if b does
    not divide a."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * max(len(a) - db, 0)
    while _dense_trim(a):
        da = len(a) - 1
        if da < db or a[-1] % lb:
            return None
        qc = a[-1] // lb
        q[da - db] = qc
        for i, bc in enumerate(b, da - db):
            a[i] -= qc * bc
    return q


def _dense_eval(a, xi: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * xi + c
    return v


def _heu_gcd(a, b):
    """The primitive gcd of primitive a and b by GCDHEU (Char, Geddes and
    Gonnet, JSC 7, 1989), or None if no try succeeds.

    A try evaluates a and b at an integer xi, takes the integer gcd of the
    values and reads it back as balanced xi-adic digits.  The primitive
    part h of that polynomial is accepted only if it divides a and b
    exactly; for xi >= 2*min(|a|, |b|) + 2, with |a| the largest absolute
    coefficient, such an h is their gcd.  The first xi is that bound plus
    27; each of at most 6 retries multiplies it by 73794/27011."""
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(7):
        v = gcd(_dense_eval(a, xi), _dense_eval(b, xi))
        digits, half = [], xi // 2
        while v:
            d = v % xi
            if d > half:
                d -= xi
            digits.append(d)
            v = (v - d) // xi
        h = _dense_primitive(digits)
        if h and _dense_quotient(a, h) is not None and _dense_quotient(b, h) is not None:
            return h
        xi = xi * 73794 // 27011
    return None


def _euclid_gcd(a, b):
    """The primitive gcd of primitive a and b by the primitive remainder
    sequence."""
    while b:
        a, b = b, _dense_primitive(_dense_trim(_dense_pseudo_rem(a, b)))
    return _dense_primitive(a)


def tpoly_gcd(p: TPoly, q: TPoly) -> TPoly:
    """GCD in Z[t], normalised so the lowest nonzero coefficient is positive.

    The gcd of the primitive parts comes from GCDHEU (``_heu_gcd``), or
    from Euclid's primitive remainder sequence when every heuristic try
    fails; both give it up to sign, which the normalisation fixes."""
    a, b = _dense_trim(_tp_dense(p)), _dense_trim(_tp_dense(q))
    if not a and not b:
        return ()
    if not a or not b:
        res = a or b
    else:
        ca, cb = _dense_content(a), _dense_content(b)
        a, b = _dense_primitive(a), _dense_primitive(b)
        res = [c * gcd(ca, cb) for c in _heu_gcd(a, b) or _euclid_gcd(a, b)]
    low = next(c for c in res if c != 0)
    if low < 0:
        res = [-c for c in res]
    return _dense_tp(res)


def tpoly_divexact(p: TPoly, d: TPoly) -> TPoly:
    """Exact division in Z[t]; raises if the division is not exact."""
    a, b = _dense_trim(_tp_dense(p)), _dense_trim(_tp_dense(d))
    if not b:
        raise InvalidInput("division by zero in Z[t]")
    if not a:
        return ()
    q = _dense_quotient(a, b)
    if q is None:
        raise InvalidInput("inexact division in Z[t]")
    return _dense_tp(q)


def strip_unit_t_content_view(coeffs: dict) -> dict:
    """Divide a Z[t]-coefficient view {alpha: TPoly} by the Z[[t]]-unit part
    of its content.

    The content factors as t^k * u(t) * rest; whenever the t-free part u has
    u(0) = 1 (``tpoly_gcd`` makes it positive) it is a unit of Z[[t]], so
    dividing by it changes neither the ideal generated nor any leading term.
    Contents whose t-free part has a nontrivial constant are left alone, and
    then ``coeffs`` itself is returned.

    Most views have a coefficient of a single term c*t^k, and then no gcd is
    computed: the content divides that term, so it is a single term too and
    has no unit part to strip.  For the same reason the running gcd of the
    coefficients stops once it is a single term.
    """
    if any(len(tp) == 1 for tp in coeffs.values()):
        return coeffs
    content: TPoly = ()
    for tp in coeffs.values():
        content = tpoly_gcd(content, tp)
        if len(content) == 1:
            return coeffs
    k = tpoly_min_beta(content)
    unit = tpoly_shift(content, -k)
    c0 = unit[0][1]
    if c0 != 1 or len(unit) == 1:
        return coeffs
    return {a: tpoly_divexact(tp, unit) for a, tp in coeffs.items()}


def strip_unit_t_content(f: Polynomial) -> Polynomial:
    """``strip_unit_t_content_view`` on a polynomial; f itself when nothing
    is stripped."""
    if f.is_zero:
        return f
    coeffs = t_coefficients(f)
    out = strip_unit_t_content_view(coeffs)
    return f if out is coeffs else from_t_coefficients(out)


# ---------------------------------------------------------------------------
# Ideals
# ---------------------------------------------------------------------------


def p_minus_t(p: int, nvars: int) -> Polynomial:
    """The polynomial p - t in Z[t, x1..xn]."""
    return Polynomial.from_terms([(p, (0,) * (1 + nvars)), (-1, (1,) + (0,) * nvars)])


@dataclass(frozen=True)
class Ideal:
    """Generators of an x-homogeneous ideal, with an optional declared prime.

    When a prime p is declared the polynomial p - t must be among the
    generators; that is the regime in which initial reduction is guaranteed
    to terminate.
    """

    gens: tuple[Polynomial, ...]
    nvars: int
    prime: int | None = None

    def __post_init__(self):
        for g in self.gens:
            if g.is_zero:
                raise InvalidInput("zero generator")
            if g.nvars != self.nvars:
                raise InvalidInput("generator has wrong variable count")
            if not is_x_homogeneous(g):
                raise InvalidInput("generator is not x-homogeneous")
        if self.prime is not None:
            if not is_prime(self.prime):
                raise InvalidInput(f"{self.prime} is not prime")
            if p_minus_t(self.prime, self.nvars) not in self.gens:
                raise InvalidInput("declared prime p requires p - t among the generators")
