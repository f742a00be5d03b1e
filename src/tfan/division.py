"""Division with remainder and standard bases over Z, or up to the units
of Z_(p), under t-local orderings.

Three engines live here:

* ``hddwr`` -- determinate division with remainder.  Deterministic: at every
  step the compare-greatest reducible term of the running remainder is
  reduced by the first list element whose leading term divides it (term
  divisibility over Z: coefficient divides and exponents are componentwise
  <=).  Terms nobody divides move to the remainder.  Termination is
  guaranteed when dividend and divisors are x-homogeneous and weighted
  homogeneous for one weight with negative t-entry.  The running remainder
  is an ``exp -> coeff`` dict whose exponents each get their ordering key
  once, so a step builds no Polynomial and searches no leading term again.
  The flip's lift is its one caller in a computation.

* ``mora_weak_nf`` -- weak normal form with a unit multiplier u, lt(u) = 1.
  t-local orderings are not well-founded (1 > t > t^2 > ...), so plain tail
  chasing loops forever; the classical fix is to allow previously computed
  partial remainders as reducers, choosing among eligible reducers one of
  minimal t-ecart and recording the current state as a new reducer whenever
  the chosen ecart exceeds the current one.  No computation path calls it:
  the tests use it as an oracle and ``bench/tracer.py`` times it by name.

* ``standard_basis`` -- completion with both S-pairs and GCD-pairs (the
  strong-basis pair set for coefficient rings like Z where leading ideals
  are generated by terms, not monomials).  The output is strong: every
  leading term of an ideal element is term-divisible by some basis leading
  term, which is what makes single-divisor division above sufficient.
  The completion runs on packed exponents and skips candidates by three
  pair criteria proved for Z (see ``standard_basis``), each element keeping
  its treated pairs as one int bitset for the chain test; its elements
  leave as (leading term, Z[t]-coefficient view) pairs
  (``standard_basis_views``).

  The same loop completes up to units when a prime p is declared, which
  only the entry from generators does (``inred.ensure_initially_reduced``):
  p - t lies in the ideal, so an integer prime to p is a unit modulo it,
  and divisibility and the criteria read only the p-part of a leading
  coefficient.  The output is a standard basis over Z_(p), whose initial
  reduction has the leading terms of the one over Z; the unit rule and its
  soundness argument are at ``standard_basis_views``.  ``standard_basis``
  passes no prime, so ``tfan stdbasis``, the flips and their lift keep the
  arithmetic over Z.

Every loop here is bounded by the one module constant ``STEP_CAP``.  It
guards against faults and is not a tuning value: the homogenised completion
and determinate division terminate on their documented inputs, and the cap
turns any other run into ``DivisionDiverged`` instead of a hang.  Loops read
``division.STEP_CAP`` when they run, so lowering that one attribute (as the
tests do) lowers every cap, the one in ``inred`` included.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import compress
from math import gcd
from operator import attrgetter, le, mul, sub
from struct import Struct
from typing import NamedTuple, Sequence

from .errors import DivisionDiverged, InvalidInput
from .exact import extended_gcd, p_valuation
from .poly import (
    MonomialOrdering,
    Polynomial,
    Term,
    exp_div,
    exp_divides,
    exp_mul,
    from_t_coefficients,
    leading_term,
    record_leading_term,
    strip_unit_t_content,
    strip_unit_t_content_view,
    term_divides,
)

STEP_CAP = 10**6


class DivisionResult(NamedTuple):
    quotients: tuple[Polynomial, ...]
    remainder: Polynomial


class WeakNFResult(NamedTuple):
    unit: Polynomial
    quotients: tuple[Polynomial, ...]
    remainder: Polynomial


class StandardBasis(NamedTuple):
    elements: tuple[Polynomial, ...]
    ordering: MonomialOrdering


def ecart(ord_: MonomialOrdering, f: Polynomial) -> int:
    """t-degree spread: max t-power in f minus the leading term's t-power."""
    lt = leading_term(ord_, f)
    return max(t.exp[0] for t in f.terms) - lt.exp[0]


def hddwr(ord_: MonomialOrdering, f: Polynomial,
          divisors: Sequence[Polynomial]) -> DivisionResult:
    """Determinate division f = sum q_i g_i + r, no term of r divisible.

    The running remainder is an ``exp -> coeff`` dict, and the ``ord_.key``
    of each exponent it holds is computed once, when the exponent first
    enters it.  Each step takes the exponent of greatest key, which is the
    term ``leading_term`` would pick, since the key orders exponents
    totally.
    """
    lts = [leading_term(ord_, g) for g in divisors]
    key = ord_.key
    h = {e: c for c, e in f.terms}
    keys = {e: key(e) for e in h}
    quotient_parts: list[list[tuple]] = [[] for _ in divisors]
    rem_parts: list[tuple] = []
    steps = 0
    while h:
        e = max(h, key=keys.__getitem__)
        c = h[e]
        for i, lt in enumerate(lts):
            if c % lt.coeff == 0 and exp_divides(lt.exp, e):
                q, m = c // lt.coeff, tuple(map(sub, e, lt.exp))
                quotient_parts[i].append((q, m))
                # the leading term's image is e, where q*lt.coeff cancels c
                for gc, ge in divisors[i].terms:
                    p, d = exp_mul(ge, m), q * gc
                    v = h.get(p)
                    if v is None:
                        h[p] = -d
                        if p not in keys:
                            keys[p] = key(p)
                    elif v == d:
                        del h[p]
                    else:
                        h[p] = v - d
                break
        else:
            rem_parts.append((c, e))
            del h[e]
        steps += 1
        if steps > STEP_CAP:
            raise DivisionDiverged(
                f"determinate division exceeded {STEP_CAP} steps",
                trace=[str(t.exp) for t in
                       Polynomial.from_terms((c, e) for e, c in h.items()).terms[:4]],
            )
    return DivisionResult(tuple(Polynomial.from_terms(q) if q else Polynomial.zero()
                                for q in quotient_parts),
                          Polynomial.from_terms(rem_parts))


def mora_weak_nf(ord_: MonomialOrdering, f: Polynomial,
                 divisors: Sequence[Polynomial]) -> WeakNFResult:
    """Weak normal form u*f = sum q_i g_i + r with lt(u) = 1.

    Reducer choice among the eligible: minimal t-ecart, then smallest
    absolute leading coefficient (coefficient-1 reducers always apply over Z
    and keep coefficient growth down), then order of entry.
    """
    k = len(divisors)
    if f.is_zero:
        return WeakNFResult(_one_like(divisors, f), (Polynomial.zero(),) * k, f)
    one = Polynomial.constant(1, f.nvars)
    # reducers: (ecart, |lc|, order-of-entry, lt, poly, payload); payload is
    # an index into divisors or a snapshot (h, u, quotients) of a state.
    reducers = []
    for i, g in enumerate(divisors):
        if g.is_zero:
            raise InvalidInput("zero divisor in weak normal form")
        lt = leading_term(ord_, g)
        reducers.append((ecart(ord_, g), abs(lt.coeff), len(reducers), lt, g, i))
    u = one
    q = [Polynomial.zero() for _ in divisors]
    h = f
    steps = 0
    while h:
        t = leading_term(ord_, h)
        eligible = [r for r in reducers if term_divides(r[3], t)]
        if not eligible:
            break
        e_h = ecart(ord_, h)
        red = min(eligible, key=lambda r: (r[0], r[1], r[2]))
        if red[0] > e_h:
            reducers.append((e_h, abs(t.coeff), len(reducers), t, h, (h, u, tuple(q))))
        m = Term(t.coeff // red[3].coeff, exp_div(t.exp, red[3].exp))
        if isinstance(red[5], int):
            q[red[5]] = q[red[5]] + Polynomial.term(m.coeff, m.exp)
            h = h - red[4].term_mul(m.coeff, m.exp)
        else:
            h_s, u_s, q_s = red[5]
            h = h - h_s.term_mul(m.coeff, m.exp)
            u = u - u_s.term_mul(m.coeff, m.exp)
            q = [qi - qs.term_mul(m.coeff, m.exp) for qi, qs in zip(q, q_s)]
        steps += 1
        if steps > STEP_CAP:
            raise DivisionDiverged(
                f"weak normal form exceeded {STEP_CAP} steps",
                trace=[str(t.exp) for t in h.terms[:4]],
            )
    return WeakNFResult(u, tuple(q), h)


def _one_like(divisors, f):
    for g in divisors:
        if not g.is_zero:
            return Polynomial.constant(1, g.nvars)
    if not f.is_zero:
        return Polynomial.constant(1, f.nvars)
    return Polynomial.zero()


def sorted_basis(ord_: MonomialOrdering, elems) -> StandardBasis:
    """The one basis order: leading monomial descending, then terms."""
    key = ord_.key
    elems = sorted(elems, key=lambda g: (key(leading_term(ord_, g).exp), g.terms), reverse=True)
    return StandardBasis(tuple(elems), ord_)


# --- standard bases via degree homogenisation -------------------------------
#
# Single-divisor reduction under a t-local ordering need not terminate over
# Z: a coefficient-1 reducer can force an eternal climb in t while the
# stored partial remainders never re-apply because integer divisibility
# fails.  The classical cure is to compute in one extra variable s that
# homogenises the t-degree: under an ordering graded by (s+t+x)-degree the
# monomial order is global, head reduction strictly descends in a
# well-order, and the strong-pair completion over Z terminates.  Setting
# s = 1 afterwards yields a strong standard basis for the t-local ordering
# (x-homogeneity and st-homogeneity are preserved throughout, so leading
# terms dehomogenise to leading terms).


# The narrowest slot of a packed exponent, in bits; see ``_Packing``.
_SLOT_BITS = 32


class _PastLimit(DivisionDiverged):
    """An exponent past a packing's limit of total degree, which the packed
    order would misplace."""

    def __init__(self, e: tuple, limit: int):
        super().__init__(f"exponent {e} has total degree {sum(e)}, "
                         f"past the packing limit {limit}")
        self.degree = sum(e)


class _Packing:
    """The homogenised exponents e = (s, beta, alpha_1..alpha_n) of one
    completion, one int each: P(e) = sum(e_i * C_i), C_i = (K_i << shift)
    + (1 << b*i), shift = b * len(e).  The slot width b is ``_SLOT_BITS``
    or more, enough for the total degree ``degree``; the limit of total
    degree is L = 2^(b-1) - 1.

    * The low part, the bits below ``shift``, holds e in b-bit slots, entry
      i at bit b*i.  Every entry is at most L, so the top bit of each slot,
      its guard, is clear.
    * The high part K(e) = sum(e_i * K_i) is a mixed-radix number whose
      signed digits are the fields of the graded key
      ``(sum(e),) + ord_.key(e[1:])``: the total degree, each integer
      w-degree of (beta, alpha), alpha along the tiebreak, then -beta.

    For exponents of total degree at most L:

    * linearity: P(e + m) = P(e) + P(m) as integers, and no slot carries,
      so a term is shifted by adding one int and the sum unpacks to e + m;
    * order: each field ranges over an interval whose width, its span,
      follows from L (an entry lies in [0, L]; a w-degree in
      [L*min(0, min w), L*max(0, max w)]).  Field j gets radix span_j + 1,
      so the fields below it move K by at most
      sum_{i>j} span_i * M_i = M_j - 1 < M_j, the place value of field j:
      K compares exactly as the key tuple does, signed digits and all.  The
      low part lies in [0, 2^shift), so P compares as K, and two exponents
      with equal K have equal keys, hence are equal;
    * divisibility: with d the low part of a divisor's exponent, every slot
      of (P(e) & mask) + (guard - d) holds e_i + 2^(b-1) - d_i in
      [1, 2^b), with no borrow or carry between slots, so its guard bit is
      set exactly when d_i <= e_i.

    ``pack`` is the one way in; it raises ``_PastLimit`` for an exponent
    past L rather than misplace it."""

    def __init__(self, ord_: MonomialOrdering, degree: int = 0):
        b, n = max(_SLOT_BITS, degree.bit_length() + 1), ord_.nvars
        self.bits = b
        self.width = width = n + 2
        self.limit = limit = (1 << (b - 1)) - 1
        # K_i for i over (s, beta, alpha...), built up from the least
        # significant field, -beta; ``place`` is the next field's place value
        high = [0, -1] + [0] * n
        place = limit + 1
        for i in reversed(ord_.tiebreak):
            high[2 + i] = place
            place *= limit + 1
        for w in reversed(ord_._int_weights):
            for k, c in enumerate(w, 1):
                high[k] += c * place
            place *= limit * (max(0, *w) - min(0, *w)) + 1
        high = [k + place for k in high]  # the total degree, most significant
        shift = b * width
        self.coeffs = tuple((k << shift) + (1 << b * i) for i, k in enumerate(high))
        self.mask = (1 << shift) - 1
        self.guard = sum(1 << (b * i + b - 1) for i in range(width))
        # 32-bit slots, the usual width, unpack as the words of one byte string
        self.words = Struct(f"<{width}I") if b == 32 else None

    def pack(self, e: tuple) -> int:
        if len(e) != self.width:
            raise InvalidInput("exponent vector has wrong length")
        if sum(e) > self.limit:
            raise _PastLimit(e, self.limit)
        return sum(map(mul, e, self.coeffs))

    def unpack(self, p: int, start: int = 0) -> tuple:
        """The entries of the exponent packed as p from entry ``start`` on:
        with start 1, the dehomogenised exponent (beta, alpha...)."""
        b, low = self.bits, p & self.mask
        if self.words:
            return self.words.unpack(low.to_bytes(self.words.size, "little"))[start:]
        slot = (1 << b) - 1
        return tuple([(low >> (b * i)) & slot for i in range(start, self.width)])


class _Remainder(NamedTuple):
    """A packed remainder: ``P(e) -> coeff`` and its leading P(e), which is
    None exactly for the zero remainder."""
    lead: int | None
    terms: dict

    @property
    def is_zero(self) -> bool:
        return self.lead is None


# A packed element of a completion is a tuple (leading coefficient, guard
# minus the low part of its leading P, leading P, ((P, coeff), ...) over its
# terms).


def _pair_candidate(u: int, f: tuple, v: int, g: tuple, pm: int) -> dict:
    """u*x^(m-lt f)*f + v*x^(m-lt g)*g for packed elements f and g, as a
    ``P -> coeff`` dict with no zero coefficient; pm = P(m).  Neither u nor
    v is zero."""
    acc: dict[int, int] = {}
    for k, (_, _, lead, terms) in ((u, f), (v, g)):
        shift = pm - lead
        for p, c in terms:
            p += shift
            c = acc.get(p, 0) + k * c
            if c:
                acc[p] = c
            else:
                del acc[p]
    return acc


def _head_reduce(pk: _Packing, acc: dict, basis) -> _Remainder:
    """Weak head reduction under a global order: stop at the first leading
    term no basis leading term divides.

    ``acc`` is the running remainder as a ``P -> coeff`` dict, updated in
    place by every step; its leading exponent is its greatest key.
    ``basis`` holds packed elements, and the first one whose leading term
    divides the current leading term is the reducer.

    Divisibility reads an element's first field d, a divisor of its leading
    coefficient lc: lc itself over Z, its p-part up to units
    (``_complete_over``).  Up to units an element's terms start with its
    leading term, so lc is read there.  When lc = d*u and u does not
    divide c/d, the remainder is first multiplied by the unit u/g, with
    g = gcd(c/d, u) signed as u; then (c/d)/g times the element cancels
    its leading term.  Over Z the first term is either not the leading one
    or has coefficient d, so nothing is multiplied."""
    mask, guard = pk.mask, pk.guard
    steps = 0
    while acc:
        p = max(acc)
        c = acc[p]
        low = p & mask
        for d, gap, lead, terms in basis:
            if (low + gap) & guard == guard and c % d == 0:
                break
        else:
            return _Remainder(p, acc)
        q = c // d
        first, lc = terms[0]
        if first == lead and lc != d:
            u = lc // d
            g = gcd(q, u) if u > 0 else -gcd(q, u)
            q //= g
            if g != u:
                s = u // g
                for e in acc:
                    acc[e] *= s
        shift = p - lead
        for gp, gc in terms:
            gp += shift
            v = acc.get(gp, 0) - q * gc
            if v:
                acc[gp] = v
            else:
                del acc[gp]
        steps += 1
        if steps > STEP_CAP:
            raise DivisionDiverged(f"head reduction exceeded {STEP_CAP} steps")
    return _Remainder(None, acc)


def _packed_inputs(pk: _Packing, gens: Sequence[Polynomial]) -> list[dict]:
    """The t-degree homogenisations of nonzero polynomials as ``P -> coeff``
    dicts, each term packed straight into its homogenised exponent
    s^(top - beta) t^beta x^alpha, negated where the packed leading
    coefficient is negative; equal ones are kept once, the first.  Raises
    ``_PastLimit`` if an exponent passes the limit of ``pk``."""
    out: list[dict] = []
    for f in gens:
        top = max(e[0] for _, e in f.terms)
        terms = {pk.pack((top - e[0],) + e): c for c, e in f.terms}
        if terms[max(terms)] < 0:
            terms = {p: -c for p, c in terms.items()}
        if terms not in out:
            out.append(terms)
    return out


def _complete(pk: _Packing, inputs: Sequence[dict]) -> list[tuple]:
    """The completion over Z: ``_complete_over`` with no prime.  It is the
    one that ``standard_basis``, and so the flips, use."""
    return _complete_over(pk, inputs, None)


def _complete_over(pk: _Packing, inputs: Sequence[dict], prime: int | None) -> list[tuple]:
    """The packed elements of the completion of the packed homogenised
    ``inputs`` (``_packed_inputs``) over Z, or up to the units of Z_(p)
    when ``prime`` is p; see ``standard_basis`` and
    ``standard_basis_views``.  Raises ``_PastLimit`` if an lcm passes the
    limit of ``pk``.

    The first field of a packed element is what divisibility reads: its
    leading coefficient over Z, the p-part p^v_p(lc) of it up to units.
    Up to units an element lists its leading term first, so that its
    leading coefficient stays at hand (``_head_reduce``)."""
    mask, guard, coeffs, limit = pk.mask, pk.guard, pk.coeffs, pk.limit
    reducers: list[tuple] = []  # packed elements
    lcs: list[int] = []  # their leading coefficients
    lt_exps: list[tuple] = []  # their leading exponents
    lt_degrees: list[int] = []  # and the total degrees of those
    pending: list[tuple] = []  # heap of (P(lcm), i, j)
    treated: list[int] = []  # bit k of treated[i]: the pair {i, k} left the heap

    def add(lead, terms):
        e = pk.unpack(lead)
        deg = sum(e)
        j = len(reducers)
        for i, lt in enumerate(lt_exps):
            m = map(max, lt, e)
            if lt_degrees[i] + deg > limit:  # the lcm's degree is at most this
                m = tuple(m)
                if sum(m) > limit:
                    raise _PastLimit(m, limit)
            heappush(pending, (sum(map(mul, m, coeffs)), i, j))
        lc = terms[lead]
        if prime is None:
            reducers.append((lc, guard - (lead & mask), lead, tuple(terms.items())))
        else:
            items = [(lead, lc)]
            items += [pc for pc in terms.items() if pc[0] != lead]
            reducers.append((prime ** p_valuation(lc, prime), guard - (lead & mask), lead,
                             tuple(items)))
        lcs.append(lc)
        lt_exps.append(e)
        lt_degrees.append(deg)
        treated.append(0)

    def chained(both, c, low):
        """Some k with bit k set in ``both`` whose leading term term-divides
        c*x^m, with low the low part of P(m)."""
        while both:
            bit = both & -both
            lc, gap, _, _ = reducers[bit.bit_length() - 1]
            if c % lc == 0 and (low + gap) & guard == guard:
                return True
            both ^= bit
        return False

    def join(u, f, v, g, pm):
        acc = _pair_candidate(u, f, v, g, pm)
        if acc:
            r = _head_reduce(pk, acc, reducers)
            if not r.is_zero:
                add(r.lead, r.terms)

    for terms in inputs:
        add(max(terms), terms)
    popped = 0
    while pending:
        pm, i, j = heappop(pending)
        # k is in both exactly when the pairs {i, k} and {j, k} are treated;
        # neither i nor j is, as no element pairs with itself
        treated[i] |= 1 << j
        treated[j] |= 1 << i
        both = treated[i] & treated[j]
        f, g = reducers[i], reducers[j]
        fc, gc = lcs[i], lcs[j]
        a, b = abs(f[0]), abs(g[0])
        d = gcd(a, b)
        low = pm & mask
        # P is linear and positive on nonzero exponents, so the leading
        # monomials are coprime exactly when P(lcm) is the sum of their Ps
        if d != 1 or pm != f[2] + g[2]:
            c = a // d * b
            if not chained(both, c, low):
                if prime is not None:  # the lcm of the leading coefficients
                    c = abs(fc) // gcd(fc, gc) * abs(gc)
                join(c // fc, f, -(c // gc), g, pm)
        # a remainder that joined above has no treated pair, so it is in no
        # chain and the GCD-pair's decision is the one made before it joined;
        # up to units a and b are powers of p, so one divides the other
        if d != a and d != b and not chained(both, d, low):
            _, u, v = extended_gcd(fc, gc)
            join(u, f, v, g, pm)
        popped += 1
        if popped > STEP_CAP:
            raise DivisionDiverged(f"pair processing exceeded {STEP_CAP} pairs")
    return reducers


def standard_basis(ord_: MonomialOrdering, gens: Sequence[Polynomial]) -> StandardBasis:
    """Strong standard basis of <gens> w.r.t. a t-local ordering.

    The completion (``standard_basis_views``) runs on the t-degree
    homogenisation with both S- and GCD-pairs (the strong pair set needed
    over Z, where leading ideals are generated by terms rather than
    monomials).  Every exponent it meets is one int P(e) of a ``_Packing``
    for the ordering, ordered as the graded key ``(sum(e),) +
    ord_.key(e[1:])``: a leading exponent is the ``max`` of a dict's keys,
    a shift one addition and a divisibility test one addition and one mask.

    Packing is exact while no exponent passes the packing's limit of total
    degree.  ``pack`` checks the inputs against it, and the pair loop checks
    an lcm whenever the total degrees of its two leading exponents sum past
    the limit (the lcm's degree is at most that sum).  That bounds every
    exponent: the order is graded by total degree first, so a leading term
    has the largest total degree of its polynomial; a pair
    candidate at lcm m has total degree at most sum(m) (exactly, for
    x-homogeneous inputs), and a head-reduction step adds no term of larger
    degree.  A completion that meets an exponent past the limit starts over
    with slots twice that wide in degree; its decisions do not depend on
    the packing, so it gives the same basis.

    Pairs wait in a heap keyed by (P(lcm), i, j), so they are processed
    smallest lcm first, then by index; a pair is *treated* once it has left
    the heap.  Each element keeps its treated pairs as one int, bit k set
    once its pair with element k has left the heap, so the elements k with
    (i, k) and (j, k) both treated are the set bits of the two bitsets'
    intersection, which holds neither i nor j; the chain test below walks
    only those.  Over the completions over Z of the generators of one
    cone-queries pass of the benchmark (seed 1) its 11,776 calls visit
    24,447 elements, where a scan of every element with a lookup of both
    pairs visited 85,515.

    Each candidate is built straight into the ``P -> coeff`` dict that
    ``_head_reduce`` works on, where its criterion is decided, and a
    nonzero remainder joins the reducers.  The GCD-candidate of a pair is
    decided and reduced after its S-remainder has joined; the decision is
    the one made before, since the new element has no treated pair.  A
    candidate is skipped, unbuilt, when one of three pair criteria over Z
    shows that it reduces to zero.  With a_i x^m_i the leading term of
    element i and m = lcm(m_i, m_j) over all homogenised exponents:

    * product criterion (Kandri-Rody and Kapur, JSC 6, 1988): the S-pair
      of (i, j) when m_i and m_j are coprime and so are a_i and a_j.
      Coprime monomials alone are not enough over Z: <2x, 2y + t*x> needs
      t*x^2;
    * chain criterion (Kandri-Rody and Kapur; Gebauer and Moeller, JSC 6,
      1988): the S-pair of (i, j) when some k other than i and j has a
      leading term that term-divides lcm(a_i, a_j) x^m, and the pairs
      (i, k) and (j, k) are both treated;
    * GCD-pair criterion (Lichtblau, Illinois J. Math. 56, 2012): the
      GCD-pair of (i, j) under the same condition with gcd(a_i, a_j) x^m.

    A pair still in the heap has not been reduced yet, and the looser chain
    form that ignores treatment changes the bases: along the criteria-free
    completions over Z of the cone-queries benchmark (seed 1) it flags 377
    candidates whose remainder is not zero.  The treated forms flag 7,100
    there, none with a nonzero remainder, so on that corpus the output is
    the criteria-free loop's.  That identity is measured, not proved: the
    tests compare against the criteria-free loop and certify every pair.

    Generators and elements are normalised by stripping Z[[t]]-unit content
    and fixing positive leading coefficients; generators equal once
    normalised (f, -f and (1 + t)*f, say) enter once, and the output keeps
    one of equal elements.  A generator is signed by its packed terms, with
    no ``ord_.key`` (the packed maximum is the maximum of ``ord_.key``, as
    argued below), so it keeps any leading term it carries under another
    ordering, as the initial forms of a flip do.

    Each element is built once here, by ``from_t_coefficients``, from its
    pair: a view unpacked straight from the packed terms, signed by the
    packed leading coefficient and stripped of unit content, and the packed
    leading term, dehomogenised and signed, which it keeps.  That is the
    leading term under ``ord_``: the element is homogeneous, so the graded
    key's first field is the same on every term, the packed maximum is the
    maximum of ``ord_.key`` over the dehomogenised exponents, and
    dehomogenising merges no terms.  The strip keeps it: dividing by a
    content u with u(0) = 1 keeps the lowest term of every
    Z[t]-coefficient, the leading term's under a t-local ordering.  So a
    rule on leading terms alone, such as ``minimal``, can run before any
    element is built.  Each key is computed once, by the sort of the
    output.
    """
    out: dict[Polynomial, Term] = {}
    for lt, view in standard_basis_views(ord_, gens):
        out.setdefault(from_t_coefficients(view), lt)
    return sorted_basis(ord_, [record_leading_term(ord_, f, lt) for f, lt in out.items()])


def standard_basis_views(ord_: MonomialOrdering, gens: Sequence[Polynomial],
                         keep=None, prime: int | None = None) -> list[tuple[Term, dict]]:
    """The completion's normalised elements as (leading term, view) pairs,
    in the order it made them, none built as a Polynomial; the view is the
    dict ``{alpha: [(beta, c), ...]}`` of ``t_coefficients``.  ``keep``, if
    given, maps the list of all leading terms to a flag per element (initial
    reduction's rule), and only flagged ones are unpacked.  Equal elements
    are not merged.

    With no ``prime`` the completion runs over Z, as ``standard_basis``
    says.  With a prime p whose p - t lies in the ideal I (the entry from
    generators checks that it is a generator), it runs up to units: an
    integer prime to p counts as a unit.  Divisibility of leading terms,
    the product, chain and GCD-pair criteria and the reducer scan read
    only the p-part p^v_p(lc) of each leading coefficient, the unit part
    multiplies, and no GCD-pair is made, since the gcd of two powers of p
    is one of them.  Why that is sound:

    * for an integer u with p not dividing u, some v in Z[[t]] has
      u*v = 1 mod (p - t), as Z[[t]]/(p - t) is Z_p.  As p - t lies in I,
      f lies in I*Z[[t]][x] exactly when u*f does, so u is a unit for I.
      The kernel only ever multiplies by such u (``_head_reduce``), so
      every element it makes lies in I;
    * the output is then a standard basis over Z_(p), not a strong one
      over Z: it can keep 3*x^2 where Z would have x^2;
    * the prime driver of initial reduction makes every element with p not
      dividing lc monic by a Bezout step a*g + b*x^lm*(p - t) and drops
      those with p | lc.  The leading monomials it keeps are the minimal
      ones of {x^a : some f in I has lt(f) = c*x^a, p not dividing c},
      which depends on I alone, so the initially reduced basis has the
      same leading terms, and the same cone, as from the completion over
      Z.

    The number of candidates is what this saves: over one cone-queries
    pass of the benchmark (seed 1) the completions make 1,150 elements and
    reduce 1,953 candidates, 1,181 of them to zero, up to units, where over
    Z they made 1,645 and reduced 5,133, 3,866 to zero."""
    stripped = [strip_unit_t_content(f) for f in gens if not f.is_zero]
    if not stripped:
        raise InvalidInput("standard basis of the zero ideal is not represented")
    pk = _Packing(ord_)
    while True:
        try:
            inputs = _packed_inputs(pk, stripped)
            reducers = (_complete(pk, inputs) if prime is None
                        else _complete_over(pk, inputs, prime))
            break
        except _PastLimit as exc:
            pk = _Packing(ord_, 2 * exc.degree)
    # up to units the leading coefficient is the first term's, over Z the
    # first field
    lcs = [terms[0][1] if prime else d for d, _, _, terms in reducers]
    lts = [Term(abs(lc), pk.unpack(lead, 1)) for lc, (_, _, lead, _) in zip(lcs, reducers)]
    out = []
    for lt, flag, lc, (_, _, _, terms) in zip(lts, keep(lts) if keep else [1] * len(lts),
                                              lcs, reducers):
        if flag:
            sign = 1 if lc > 0 else -1
            view: dict[tuple, list] = {}
            for p, c in terms:
                e = pk.unpack(p, 1)
                view.setdefault(e[1:], []).append((e[0], sign * c))
            for tp in view.values():
                tp.sort()
            out.append((lt, strip_unit_t_content_view(view)))
    return out


def minimal(lts: Sequence[Term]) -> list[bool]:
    """The one minimality rule, a flag per leading term: an element is
    dropped when another, different, leading term term-divides its own,
    coefficients compared by absolute value (2x and -2x term-divide each
    other).  Equal leading terms share a flag; ``first_of_equal`` keeps one
    element of them.  What it drops leaves the leading ideal unchanged."""
    terms = [(abs(c), e) for c, e in lts]
    distinct = set(terms)
    dropped = set()
    for c, e in distinct:
        for dc, de in distinct:
            if c % dc == 0 and all(map(le, de, e)) and (dc != c or de != e):
                dropped.add((c, e))
                break
    return [t not in dropped for t in terms]


def first_of_equal(pairs, terms) -> dict:
    """Of (leading term, element) pairs, one element per leading term up to
    sign, keyed by that term with its coefficient made positive: the element
    whose ``terms`` sort first, the earliest of equal ones."""
    kept: dict = {}
    for lt, g in pairs:
        lt = lt if lt.coeff > 0 else Term(-lt.coeff, lt.exp)
        rival = kept.get(lt)
        if rival is None or terms(g) < terms(rival):
            kept[lt] = g
    return kept


def minimize(basis: StandardBasis) -> StandardBasis:
    """The elements that ``minimal`` keeps, one per leading term
    (``first_of_equal`` on the terms); minimal standard bases remain
    standard bases (and generating sets)."""
    ord_ = basis.ordering
    lts = [leading_term(ord_, g) for g in basis.elements]
    kept = first_of_equal(compress(zip(lts, basis.elements), minimal(lts)),
                          attrgetter("terms"))
    return sorted_basis(ord_, kept.values())
