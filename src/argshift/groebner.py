"""Exact Groebner engine over Q (and F_p) and the regular-sequence verdict.

A signature-based Buchberger loop (Faugere, "A new efficient algorithm for
computing Groebner bases without reduction to zero (F5)", ISSAC 2002; Eder &
Faugere, J. Symb. Comp. 2017).  The generators, sorted by degree with a
stable sort, enter one at a time: generator i is reduced against the basis of
generators 0..i-1 and enters with signature (1, i).  An element of signature
(t, i) is t times generator i plus a combination of generators 0..i-1;
signatures compare position over term.  A new element forms one S-pair with
each element before it, of signature max(u*sig_a, v*sig_b) (dropped when the
two are equal), and pairs are popped by increasing signature.  A pair is
skipped when its t is divisible by a lead of the basis of generators 0..i-1
(a Koszul syzygy has that signature) or by the t of an earlier zero
reduction of index i, or when a pair of the same signature was handled.  An
S-polynomial is reduced only by multiples of smaller signature, and dropped
as singular when its leading term can be reduced only at its own signature.
F5's theorem: on a homogeneous regular sequence no pair left reduces to zero
(a zero reduction at (t, i) gives a syzygy whose coefficient of generator i
has lead t, outside the ideal of generators 0..i-1, so generator i would be
a zero divisor modulo them).  Coefficients are cleared to primitive integer
vectors and all reductions are integer pseudo-reductions, so no rational
arithmetic happens in the hot loop; the reduced basis is made monic and
rational at the end.

The engine has one monomial order, degrevlex with x0 > x1 > ...: the
verdicts are dimensions, and dim R/I = dim R/in(I) under every order.
Inside the engine a monomial is one Python int, written with the codec of
exactpoly.  With W = FIELD_BITS (32) and R = 2^W, the exponent vector e of n
variables packs as M = deg(e)*R^n + sum e_i*R^i, so a product of monomials
is one int addition and a quotient one subtraction.  The order key is
((M >> s) << (s+1)) - M with s = W*n, that is deg*R^n - sum e_i*R^i: the
degree first, then the smaller last exponents.  The negated key is an
involution of the packed ints, so the reduction heap holds plain ints and
the same formula turns a popped entry back into its monomial.  Every field
stays below EXPONENT_LIMIT = 2^(W-1), so its top bit is a guard: with G the
mask of the guard bits, a divides b iff ((b | G) - a) & G == G.  The
subtraction keeps the guard of exactly the fields where b_i >= a_i, and
since each field of b | G is at least as large as the field of a, no field
borrows from its neighbour.  A monomial whose degree would reach the limit
raises InternalError and the computation yields no basis.  A reduction never
raises the degree, so the inputs, the S-polynomials and the signatures of
the pairs are checked.  Tuples are built once on input and once on output:
Poly terms, GroebnerBasis.basis, leading_monomials() and normal_form's
result keep tuple monomials.

Each basis element is one record, built when it enters the basis: the order
key of its leading monomial, the leading monomial, the leading coefficient
(made positive there, once), the terms as a tuple and its signature.  The
reducers are those records in a list kept sorted by key with
``bisect.insort``; the divisor scan stops at the first lead above the
monomial, which no divisor is.  Output is deterministic for a fixed input
sequence, which is what makes the golden reports sound, and so are the
engine counters in GroebnerBasis.stats.

The Krull dimension of the quotient is read off the leading-term ideal: it is
the largest number of variables that avoid the support of every leading
monomial (computed as a minimum hitting set over the supports).

The same kernel runs over F_p when buchberger is given a modulus p: its
records are monic, so the integer rescale never fires, coefficients are
reduced mod p when a monomial is popped, and no content is taken.  That path
serves only the linear section below.

regular_sequence_verdict decides "f_1..f_k regular" (homogeneous, positive
degrees, in n variables) in this order: a zero generator makes the verdict
false (certificate "degenerate"); then, when the Bezout number
D = prod deg f_i is at most SECTION_MAX_BEZOUT, the F_p linear section below
may prove it true ("fp-section"); otherwise, or when the section is not
zero-dimensional, the exact engine over Q decides ("exact").  Only the exact
engine proves a verdict false, and a true one with a zero reduction, which
F5's theorem rules out, raises InternalError.  Above the cap the section
costs more than the exact engine on the inputs measured (the sl_3 bicone,
D = 648); below it the exact engine is the slow side (sp_4, sl_4 and gl_4
shift families).

The section: with p = SECTION_PRIME and a seeded n x k matrix A of residues
mod p, g_i(t) is the primitive integer multiple of f_i(A t), which
Poly.substitute forms and buchberger reduces mod p, and its basis is
computed over F_p in k variables.  The section is accepted when every t_j
has a pure power among the leading monomials, that is, when F_p[t]/(g) is
finite-dimensional.  Why that proves the verdict:
M = Z_(p)[t]/(g) is finitely generated in each degree, so by Nakayama
dim_Q (M (x) Q)_d <= dim_Fp (M (x) F_p)_d: in every degree the Hilbert
function over Q is at most the one over F_p.  So Q[t]/(g) is
finite-dimensional too, (g) is primary to the maximal ideal and the k forms
g are a system of parameters, hence a regular sequence, of Q[t].  That
forces rank A = k (otherwise the g would live in fewer than k linear forms
and vanish on the kernel line of A).  Complete A to a basis with B and write
x = A t + B u: the n - k linear forms u that cut out im A, together with f,
generate an ideal primary to the maximal ideal of Q[x], so they are a
regular sequence of length n, and so is f, with dim V(f) = n - k.  As a
self-check, the k forms of degrees d_i are then a complete intersection over
F_p, so the quotient has exactly D standard monomials; any other count
raises InternalError.  A = [I; R]: an A whose top k x k block is invertible
is this one after a change of the t coordinates, which keeps
zero-dimensionality, so the seeded R is as generic as a seeded A.  The F_p
basis is computed only up to degree s + 1, s = sum(d_i - 1): were the section
zero-dimensional, its quotient would vanish above degree s, so every minimal
lead, pure powers included, would have degree at most s + 1; a section that
is not zero-dimensional is thus given up at that degree, or at its first
zero reduction, by which F5's theorem proves the g no regular sequence.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from typing import NamedTuple

from .exactpoly import (
    FIELD_BITS, InternalError, Monomial, Poly, _poly, decode, degrevlex_key, encode, format_poly,
    guard_mask,
)

# every exponent and degree of the engine stays below this bound, so the top
# bit of each packed field is free for the guard
EXPONENT_LIMIT = 2 ** (FIELD_BITS - 1)

# the F_p linear section (see the module docstring): its prime, the seed of its
# matrix, and the largest Bezout number at which it is tried before the exact engine
SECTION_PRIME = 2**31 - 1
SECTION_SEED = 1
SECTION_MAX_BEZOUT = 512


class GBTimeout(Exception):
    """Raised when a basis computation exceeds its time budget; stats holds the
    counters reached so far: pairs formed, reduction steps and basis size."""

    def __init__(self, message: str, stats: dict | None = None):
        super().__init__(message)
        self.stats = stats or {}


def deadline_after(timeout_secs: float | None) -> float | None:
    """The time.monotonic() deadline timeout_secs from now (None: no deadline)."""
    return None if timeout_secs is None else time.monotonic() + timeout_secs


def time_left(deadline: float | None) -> float | None:
    """Seconds until the deadline, at least 0 (None: no deadline)."""
    return None if deadline is None else max(0.0, deadline - time.monotonic())


class MonomialOrder:
    """The engine's one monomial order, degrevlex with x0 > x1 > ... (see the
    module docstring); the engine orders packed monomials by _Packing.key.
    Only bench/workloads.py builds one, to pass as an unread order=.
    """

    @staticmethod
    def to_json() -> dict:
        # the form that input digests and golden reports have always carried
        return {"kind": "degrevlex", "permutation": None}


@dataclass
class GroebnerBasis:
    arity: int
    basis: list[Poly]  # reduced (over F_p minimal): monic, non-divisible leads, sorted by lead
    input_hash: str | None  # None over F_p, where the digest, which names no field, would mislead
    stats: dict = field(default_factory=dict)  # engine counters, see buchberger

    def leading_monomials(self) -> list[Monomial]:
        return [max(p.terms, key=degrevlex_key) for p in self.basis]


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------


class _Packing:
    """The packed-int monomials of one ring (see the module docstring).

    degree() sums the n exponent fields with one multiplication; it is exact
    while the sum is below 2^W, which holds for every monomial of the engine
    and for the lcm of two of them.  The fields are written and read by
    exactpoly.encode and exactpoly.decode, and the guard bits are exactpoly's.
    """

    __slots__ = ("n", "w", "s", "guard", "limit", "low", "ones", "big")

    def __init__(self, n: int):
        w = self.w = FIELD_BITS
        self.n, self.s = n, w * n
        self.guard = guard_mask(n + 1)
        self.limit = EXPONENT_LIMIT
        self.low = (1 << (w * n)) - 1  # the n exponent fields
        self.ones = sum(1 << (w * i) for i in range(n))
        self.big = 1 << (w * (n + 1))  # above every key: (t, i) has signature key i*big + key(t)

    def encode(self, mono: Monomial) -> int:
        d = sum(mono)
        self.check(d)
        return encode(mono) + (d << self.s)

    def decode(self, m: int) -> Monomial:
        return decode(m & self.low, self.n)

    def key(self, m: int) -> int:
        s = self.s
        return ((m >> s) << (s + 1)) - m

    def degree(self, m: int) -> int:
        w = self.w
        return ((m & self.low) * self.ones >> (w * max(self.n - 1, 0))) & ((1 << w) - 1)

    def divides(self, a: int, b: int) -> bool:
        g = self.guard
        return ((b | g) - a) & g == g

    def lcm(self, a: int, b: int) -> int:
        g = self.guard
        t = ((a | g) - b) & g  # the guard bits of the fields where a_i >= b_i
        t |= t - (t >> (self.w - 1))  # ... widened to the whole field
        m = (a & t) | (b & ~t)
        return (m & self.low) + (self.degree(m) << self.s)

    def check(self, degree: int) -> None:
        if degree >= self.limit:
            raise InternalError(
                f"a monomial of degree {degree} reaches the exponent limit {self.limit}"
            )


# ---------------------------------------------------------------------------
# integer polynomial core
# ---------------------------------------------------------------------------


IntPoly = dict  # packed monomial -> int, content 1


class _Record(NamedTuple):
    """One basis element; its lead is found and its sign fixed once, in _record."""

    key: int  # order key of lm
    lm: int
    lc: int  # positive
    terms: tuple  # ((monomial, int), ...), content 1
    sig: int  # the monomial t of the signature (t, i), 0 outside _basis
    skey: int  # the signature's key, i*P.big + key(t)


def _record(d: IntPoly, P: _Packing, budget: _Budget, mod=0, sig=0, skey=0) -> _Record:
    lm = max(d, key=P.key)
    if mod:
        if d[lm] != 1:
            inv = pow(d[lm], -1, mod)
            d = {m: c * inv % mod for m, c in d.items()}
    elif d[lm] < 0:
        d = {m: -c for m, c in d.items()}
    budget.degree = max(budget.degree, P.degree(lm))  # a graded order: the lead has the top degree
    budget.bits = max(budget.bits, max(abs(c) for c in d.values()).bit_length())
    return _Record(P.key(lm), lm, d[lm], tuple(d.items()), sig, skey)


def _by_key(rec: _Record):
    return rec.key


def _to_int_poly(p: Poly, P: _Packing) -> IntPoly:
    """The primitive integer multiple of p, on packed monomials."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    out = {P.encode(m): c.numerator * (den // c.denominator) for m, c in p.terms.items()}
    _content_normalize(out)
    return out


def _content_normalize(d: IntPoly) -> None:
    g = 0
    for v in d.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for m in d:
            d[m] //= g


class _Budget:
    """Cooperative deadline checks for the inner loops, and the counters of
    the run under them: reduction steps, pairs formed, the basis records
    (a list _basis grows in place), which a GBTimeout carries out, and the
    largest term degree and coefficient bit length of any record.

    The clock is read on every tick: one reduction step can cost far more
    than a clock read once coefficients grow.
    """

    __slots__ = ("deadline", "steps", "pairs", "records", "degree", "bits")

    def __init__(self, timeout_secs):
        self.deadline = deadline_after(timeout_secs)
        self.steps = self.pairs = self.degree = self.bits = 0
        self.records: list = []

    def tick(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise GBTimeout("basis computation exceeded the time budget", {
                "pairs_formed": self.pairs, "reduction_steps": self.steps,
                "basis_size": len(self.records)})


def _reduce_full(
    f, reducers: list[_Record], P: _Packing, budget: _Budget, out: IntPoly | None = None,
    mod: int = 0, bound: int | None = None,
) -> IntPoly | None:
    """Full normal form of f (a dict or a tuple of items) against reducers
    (records sorted by key).

    Integer pseudo-reduction: the intermediate polynomial is rescaled by
    reducer leading coefficients as needed, and content-normalized at the
    end, so the result is primitive (a rational multiple of the true normal
    form, which is all the Buchberger callers need).  Entries already in out
    are rescaled exactly like the remainder, so a caller that seeds one entry
    at 1 reads off the overall factor.

    With a prime mod, the reducers are monic and the result is the normal
    form over F_p, coefficients in [1, mod); entries of work are reduced only
    when their monomial is popped.

    Under a signature key bound (see _basis) a reducer qualifies for the term
    m only when its multiple's signature, (m - lm)*sig, is below bound; when
    the leading term can be reduced only at bound itself, the result is None.
    """
    if not f:
        return {}
    s, s1, guard = P.s, P.s + 1, P.guard
    work = dict(f)
    out = {} if out is None else out
    heap = [m - ((m >> s) << s1) for m in work]  # -key(m): the largest monomial pops first
    heapify(heap)
    while heap:
        v = heappop(heap)
        m = v - ((v >> s) << s1)  # the same map takes -key(m) back to m
        c = work.get(m)
        if not c:
            continue
        if mod:
            c %= mod
            if not c:
                del work[m]
                continue
        mkey, mg = -v, m | guard
        hit, singular = None, False
        for key, lm, lc, terms, _, skey in reducers:
            if key > mkey:
                break  # a divisor of m is not above m
            if (mg - lm) & guard == guard:  # P.divides(lm, m), inlined
                if bound is None or mkey - key + skey < bound:
                    hit = (lm, lc, terms)
                    break
                singular = singular or mkey - key + skey == bound
        if hit is None:
            if singular and not out:  # the leading term: out starts empty under a bound
                return None
            out[m] = c
            del work[m]
            continue
        lm, lc, terms = hit
        q = m - lm
        g = gcd(c, lc)
        a, b = lc // g, c // g  # a > 0: record leading coefficients are positive
        if a != 1:
            for k in work:
                work[k] *= a
            for k in out:
                out[k] *= a
        del work[m]
        for gm, gc in terms:
            if gm == lm:
                continue
            k, t = gm + q, b * gc
            old = work.get(k)
            if old is None:
                work[k] = -t
                heappush(heap, k - ((k >> s) << s1))
            elif old != t:
                work[k] = old - t
            else:
                del work[k]
        budget.steps += 1  # before the tick, so that an interrupted reduction counts too
        budget.tick()
    if not mod:
        _content_normalize(out)
    return out


def _spoly(f: _Record, g: _Record, lcm: int, P: _Packing, mod: int = 0) -> IntPoly:
    P.check(P.degree(lcm))
    d = gcd(f.lc, g.lc)
    mf, mg = lcm - f.lm, lcm - g.lm
    af, ag = g.lc // d, f.lc // d
    out: IntPoly = {}
    for m, c in f.terms:
        k = m + mf
        out[k] = out.get(k, 0) + af * c
    for m, c in g.terms:
        k = m + mg
        v = out.get(k, 0) - ag * c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    if not mod:  # over F_p the leads are 1 and every coefficient is below mod already
        _content_normalize(out)
    return out


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------


def input_digest(gens: list[Poly], arity: int) -> str:
    payload = {"order": MonomialOrder.to_json(), "arity": arity,
               "generators": [format_poly(p) for p in gens]}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def buchberger(
    gens: list[Poly],
    timeout_secs: float | None = None,
    arity: int | None = None,
    mod: int = 0,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens, under degrevlex.

    Deterministic for a fixed input sequence.  Zero generators are
    ignored; an empty input yields the empty basis (pass arity in that
    case).  Raises GBTimeout when the time budget runs out.  The loop is the
    signature-based one of the module docstring: an S-pair is skipped when
    its signature is divisible by a Koszul or an earlier zero-reduction
    signature, or repeats the one just handled.  stats holds its
    deterministic counters: critical pairs formed, pairs skipped by the
    first two rules (pairs_koszul), by the third or as singular
    (pairs_rewritten), S-polynomials that reduced to zero, reduction steps
    (over every reduction of the run), the basis size before
    minimalization, and the largest term degree and coefficient bit length
    of a record.

    With a prime mod, the primitive integer multiple of each gen is read mod
    p, and the run is over F_p.  That path serves only the F_p linear section
    of regular_sequence_verdict (k forms in k variables), which reads only
    the leading monomials.  It stops at the first zero reduction, which by
    F5's theorem proves that the forms are not a regular sequence, and at
    degree s + 1 (see _basis): its result is a minimal monic basis only up to
    that degree, not inter-reduced.
    """
    if gens:
        arity = gens[0].arity
    elif arity is None:
        raise ValueError("an empty generator list needs an explicit arity")
    for p in gens:
        if p.arity != arity:
            raise ValueError("generators live in different rings")
    P = _Packing(arity)
    budget = _Budget(timeout_secs)
    polys = [_to_int_poly(p, P) for p in gens]
    if mod:
        polys = [{m: c % mod for m, c in f.items() if c % mod} for f in polys]
    stats = _basis(polys, P, budget, mod)
    basis = _reduce_and_normalize(budget.records, P, budget, mod)
    stats["reduction_steps"] = budget.steps  # with the inter-reduction of the output
    return GroebnerBasis(arity=arity, basis=basis, stats=stats,
                         input_hash=None if mod else input_digest(gens, arity))


def _basis(polys: list[IntPoly], P: _Packing, budget: _Budget, mod: int = 0) -> dict:
    """The signature-based loop over Q, or over F_p for a prime mod (polys reduced mod it).

    Leaves the minimal records of a Groebner basis, sorted by key, in
    budget.records (where the basis grows, so that a GBTimeout reports its
    size) and returns the engine counters.  A signature (t, i) is the int
    i*P.big + key(t).  Over F_p the loop is the section's (see the module
    docstring): it stops at the first zero reduction and leaves out the pairs
    of degree above s + 1, s = sum(d_i - 1).
    """
    G: list[_Record] = budget.records  # heap entries index into G
    reducers: list[_Record] = []  # the records of G, sorted by key
    koszul = rewritten = zeros = 0
    guard = P.guard
    polys = sorted((f for f in polys if f), key=lambda f: max(map(P.degree, f)))
    top = sum(P.degree(next(iter(f))) - 1 for f in polys) + 1 if mod else 0
    for i, f in enumerate(polys):
        leads = [rec.lm for rec in _minimal(reducers, P)]  # of a basis of polys 0..i-1
        syzygies: list[int] = []  # the t of each zero reduction of index i
        heap: list = []  # (signature, -position of the side that gives it, -the other's, t)
        h, t, S = f, 0, i * P.big
        while True:
            r = _reduce_full(h, reducers, P, budget, mod=mod, bound=S)
            if r is None:
                rewritten += 1
            elif not r:
                zeros += 1
                if mod:
                    break  # not a regular sequence: the section stops here
                syzygies.append(t)
            else:
                n = len(G)
                rec = _record(r, P, budget, mod, t, S)
                G.append(rec)
                insort(reducers, rec, key=_by_key)
                budget.pairs += n
                for j, other in enumerate(G[:n]):
                    lcm_ab = P.lcm(rec.lm, other.lm)
                    if mod and P.degree(lcm_ab) > top:
                        continue
                    k = P.key(lcm_ab)
                    sa, sb = rec.skey + k - rec.key, other.skey + k - other.key
                    if sa == sb:
                        rewritten += 1
                        continue
                    hi, x, y = (rec, n, j) if sa > sb else (other, j, n)
                    u = lcm_ab - hi.lm + hi.sig
                    P.check(P.degree(u))
                    if any(((u | guard) - lm) & guard == guard for lm in leads):
                        koszul += 1
                        continue
                    heappush(heap, (max(sa, sb), -x, -y, u))
            # the next pair: the smallest signature that no criterion skips
            last = S
            while heap:
                S, na, nb, t = heappop(heap)
                if S == last:
                    rewritten += 1
                elif any(P.divides(z, t) for z in syzygies):
                    koszul += 1
                else:
                    break
            else:
                break
            budget.tick()
            a, b = G[-na], G[-nb]
            h = _spoly(a, b, P.lcm(a.lm, b.lm), P, mod)
        if mod and zeros:
            break
    G[:] = _minimal(reducers, P)  # the other records and the pairs are done with
    return {"pairs_formed": budget.pairs, "pairs_koszul": koszul, "pairs_rewritten": rewritten,
            "zero_reductions": zeros, "reduction_steps": budget.steps,
            "basis_before_minimal": len(reducers), "max_degree": budget.degree,
            "coeff_bits_max": budget.bits}


def _minimal(records: list[_Record], P: _Packing) -> list[_Record]:
    """The records (sorted by key) whose lead no earlier kept lead divides."""
    kept: list[_Record] = []
    for rec in records:
        if not any(P.divides(m.lm, rec.lm) for m in kept):
            kept.append(rec)
    return kept


def _reduce_and_normalize(minimal: list[_Record], P: _Packing, budget: _Budget, mod=0) -> list[Poly]:
    """Inter-reduce the minimal records and make them monic; sorted by key.

    A lead of a minimal basis is divisible by no other lead, so it survives
    the inter-reduction and is still the record's lm; a divisor of a term
    below the lead is a lead of smaller key, so each record is reduced by
    the reduced ones before it and replaced.  The list is emptied as it is
    decoded, so that the records and the output never all live at once.
    Over F_p the records are monic already and are not inter-reduced.
    """
    for idx, rec in enumerate(minimal if not mod else ()):
        minimal[idx] = _record(_reduce_full(rec.terms, minimal[:idx], P, budget), P, budget)
    out: list[Poly] = []
    while minimal:
        rec = minimal.pop()
        out.append(_poly(P.n, {P.decode(m): Fraction(c, rec.lc) for m, c in rec.terms}))
    return out[::-1]


_SCALE = None  # key of normal_form's factor entry in out; no monomial equals it


def normal_form(f: Poly, basis: list[Poly]) -> Poly:
    """Multivariate division remainder of f by the basis (exact, rational).

    No term of the result is divisible by any basis leading term.  Against a
    reduced Groebner basis this is the unique normal form, so membership in
    the ideal is the test `normal_form(f, gb.basis).is_zero()`.
    """
    P = _Packing(f.arity)
    g = _to_int_poly(f, P)
    if not g:
        return Poly(f.arity)
    budget = _Budget(None)
    reducers = [_record(_to_int_poly(b, P), P, budget) for b in basis if not b.is_zero()]
    reducers.sort(key=_by_key)
    # the kernel returns factor * NF(g), factor in the _SCALE entry, and g = (g/f) * f,
    # read off the first term (g keeps the term order of f)
    out = _reduce_full(g, reducers, P, budget, out={_SCALE: 1})
    scale = out.pop(_SCALE) * (next(iter(g.values())) / next(iter(f.terms.values())))
    return Poly(f.arity, {P.decode(k): v / scale for k, v in out.items()})


# ---------------------------------------------------------------------------
# dimension
# ---------------------------------------------------------------------------


def _min_hitting_set_size(supports: list[frozenset[int]]) -> int:
    """Smallest set of variables meeting every support (exact branch&bound)."""
    keep: list[frozenset[int]] = []
    for s in sorted(supports, key=len):
        if not any(t <= s for t in keep):
            keep.append(s)
    best = len(frozenset().union(*keep)) if keep else 0

    def rec(chosen: set[int], size: int):
        nonlocal best
        if size >= best:
            return
        pending = next((s for s in keep if not s & chosen), None)
        if pending is None:
            best = size
            return
        for v in sorted(pending):
            chosen.add(v)
            rec(chosen, size + 1)
            chosen.discard(v)

    rec(set(), 0)
    return best


def ideal_dimension(gb: GroebnerBasis) -> int:
    """Krull dimension of the quotient by the ideal (via leading terms).

    Equals the size of the largest variable subset S such that no leading
    monomial has support inside S; the unit ideal returns the sentinel -1.
    """
    if not gb.basis:
        return gb.arity
    supports = []
    for lm in gb.leading_monomials():
        supp = frozenset(i for i, e in enumerate(lm) if e)
        if not supp:
            return -1
        supports.append(supp)
    return gb.arity - _min_hitting_set_size(supports)


# ---------------------------------------------------------------------------
# the F_p linear section
# ---------------------------------------------------------------------------


def _section_certificate(
    gens: list[Poly], n: int, bezout: int, timeout_secs: float | None
) -> dict | None:
    """Engine counters of a zero-dimensional F_p section of gens, or None.

    gens are k homogeneous forms of positive degree in n variables with
    Bezout number bezout; the proof that a zero-dimensional section makes
    them a regular sequence is in the module docstring.
    """
    deadline = deadline_after(timeout_secs)  # building the section spends the budget too
    k, p = len(gens), SECTION_PRIME
    rng = random.Random(SECTION_SEED)
    # the image of x_j under A = [I; R]: t_j, then seeded linear forms in t
    images = [Poly.variable(k, j) if j < k
              else Poly.linear_form(rng.randrange(p) for _ in range(k)) for j in range(n)]
    section = [f.substitute(images) for f in gens]
    gb = buchberger(section, timeout_secs=time_left(deadline), mod=p)
    # a zero reduction proves the section is no regular sequence; otherwise some t_j
    # may have no pure power among the leads
    if gb.stats["zero_reductions"] or ideal_dimension(gb) != 0:
        return None
    P = _Packing(k)
    t = [P.encode(tuple(int(i == j) for i in range(k))) for j in range(k)]
    count = _standard_monomial_count([P.encode(m) for m in gb.leading_monomials()], t, P, bezout)
    if count != bezout:
        raise InternalError(f"the zero-dimensional F_p section has {count} standard monomials, "
                            f"not the Bezout number {bezout}: engine bug")
    return gb.stats


def _standard_monomial_count(leads: list[int], variables: list[int], P: _Packing, cap: int) -> int:
    """Number of monomials divisible by no lead, or a number above cap.

    The leads must generate a zero-dimensional ideal.  Standard monomials
    are closed under division, so each degree's are found among the
    products of the previous degree's with one variable.
    """
    count, layer = 0, [0]
    while layer and count <= cap:
        count += len(layer)
        layer = [m for m in {a + v for a in layer for v in variables}
                 if not any(P.divides(lm, m) for lm in leads)]
    return count


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass
class DimensionReport:
    arity: int
    generator_count: int
    ideal_dimension: int | None
    expected_dimension: int
    verdict: bool | None
    status: str = "ok"  # ok | degenerate | inconclusive
    zero_generators: list = field(default_factory=list)
    input_hash: str | None = None
    extra: dict = field(default_factory=dict)
    # the certificate and its engine counters (the partial ones when inconclusive);
    # out of every digest
    stats: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {name: getattr(self, name) for name in (
            "arity", "generator_count", "ideal_dimension", "expected_dimension", "verdict", "status")}
        out.update(zero_generators=[list(z) for z in self.zero_generators],
                   order=MonomialOrder.to_json(), input_hash=self.input_hash, stats=self.stats)
        out.update(self.extra)
        return out


def regular_sequence_verdict(
    gens: list[Poly],
    n: int,
    order: MonomialOrder | None = None,  # unread: bench/workloads.py passes it; remove with it
    timeout_secs: float | None = None,
    cache_dir: None = None,  # None only: bench/workloads.py passes cache_dir=None; remove with it
    zero_labels: list | None = None,
) -> DimensionReport:
    """Verdict: do the homogeneous gens cut a scheme of dimension n - k?

    In a polynomial ring (Cohen-Macaulay, gens homogeneous) this equality is
    equivalent to the gens forming a regular sequence.  Zero generators force
    verdict False immediately (the labeled family is degenerate); a timeout,
    or a time budget spent before the call, yields the distinct
    "inconclusive" status with verdict None.  The certificate, the F_p
    section or the exact engine (see the module docstring), is named in
    stats with its engine counters; it never changes the canonical report.
    """
    if cache_dir is not None:
        raise ValueError("there is no Groebner cache; cache_dir must be None")
    budget = _Budget(timeout_secs)
    k = len(gens)
    if k > n:
        raise ValueError(f"more generators ({k}) than variables ({n})")
    for p in gens:
        if not p.is_homogeneous():
            raise ValueError("regular-sequence verdict requires homogeneous generators")
        if not p.is_zero() and p.arity != n:
            raise ValueError("generator arity does not match n")
    report = dict(arity=n, generator_count=k, expected_dimension=n - k)
    zeros = [i for i, p in enumerate(gens) if p.is_zero()]
    if zeros:
        labels = zero_labels if zero_labels is not None else zeros
        return DimensionReport(
            ideal_dimension=None, verdict=False, status="degenerate",
            zero_generators=list(labels), stats={"certificate": {"kind": "degenerate"}}, **report,
        )
    degrees = [p.total_degree() for p in gens]
    bezout = prod(degrees)
    section = k > 0 and min(degrees) > 0 and bezout <= SECTION_MAX_BEZOUT
    certificate = {"kind": "fp-section", "prime": SECTION_PRIME, "seed": SECTION_SEED,
                   "bezout": bezout} if section else {"kind": "exact"}
    try:
        budget.tick()  # a budget spent before the call leaves no time for either engine
        if section:
            stats = _section_certificate(gens, n, bezout, time_left(budget.deadline))
            if stats is not None:
                return DimensionReport(
                    ideal_dimension=n - k, verdict=True, status="ok",
                    input_hash=input_digest(gens, n),
                    stats={**stats, "certificate": certificate}, **report,
                )
            certificate = {"kind": "exact"}
        gb = buchberger(gens, timeout_secs=time_left(budget.deadline), arity=n)
        dim = ideal_dimension(gb)
    except GBTimeout as err:
        return DimensionReport(
            ideal_dimension=None, verdict=None, status="inconclusive",
            stats={**err.stats, "certificate": certificate}, **report,
        )
    if dim != -1 and dim < n - k:
        raise InternalError(f"computed dimension {dim} below the Krull bound {n - k}: engine bug")
    if dim == n - k and gb.stats["zero_reductions"]:  # F5's theorem, see the module docstring
        raise InternalError(f"{gb.stats['zero_reductions']} zero reductions on a regular "
                            "sequence, which F5's theorem rules out: engine bug")
    return DimensionReport(
        ideal_dimension=dim, verdict=(dim == n - k), status="ok", input_hash=gb.input_hash,
        stats={**gb.stats, "certificate": certificate}, **report,
    )
