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
arithmetic happens in the hot loop.  The run ends with the minimal records
and their leads; the reduced basis, inter-reduced, monic and rational, is
built only when GroebnerBasis.basis is read, and no verdict reads it.

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
Poly terms, GroebnerBasis.basis, GroebnerBasis.leads (each record's lm,
decoded) and normal_form's result keep tuple monomials.

Each basis element is one record, built when it enters the basis: the order
key of its leading monomial, the leading monomial, the leading coefficient
(made positive there, once), the terms as a tuple and its signature.  The
reducers are those records in a list kept sorted by key with
``bisect.insort``; the divisor scan stops at the first lead above the
monomial, which no divisor is.  Output is deterministic for a fixed input
sequence, which is what makes the golden reports sound, and so are the
engine counters in GroebnerBasis.stats.

Every dimension is read off the leads by one function: R/in(I) and R/I have
the Hilbert series N(t)/(1 - t)^n, and dim R/I is n minus the order of t = 1
as a root of N.  By Stanley's criterion (Adv. Math. 28, 1978) homogeneous
f_1..f_k are a regular sequence exactly when N = prod(1 - t^deg f_i), which
a true verdict also checks.

The same loop runs over F_p when buchberger is given a modulus p: its
records are monic, so the integer rescale never fires, coefficients are
reduced mod p when a monomial is popped, and no content is taken.  That path
serves only the linear section below, which hands it residues directly.

regular_sequence_verdict decides "f_1..f_k regular" (homogeneous, positive
degrees, in n variables) in this order: a zero generator makes the verdict
false (certificate "degenerate"); then, when the Bezout number
D = prod deg f_i is at most SECTION_MAX_BEZOUT, the F_p linear section below
may prove it true ("fp-section"); otherwise, or when the section is not
zero-dimensional, the exact engine over Q decides ("exact").  Only the exact
engine proves a verdict false, and a true one with a zero reduction, which
F5's theorem rules out, or with a Hilbert numerator other than
prod(1 - t^d_i), which Stanley's criterion rules out, raises InternalError.
Above the cap the section costs more than the exact engine on the inputs
measured (the sl_3 bicone, D = 648); below it the exact engine is the slow
side (sp_4, sl_4 and gl_4 shift families).

The section: with p = SECTION_PRIME and a seeded n x k matrix A of residues
mod p, g_i(t) = h_i(A t) for a nonzero integer multiple h_i of f_i (den_i
f_i, den_i the lcm of f_i's denominators), and the basis of the residues
of g mod p is computed over F_p in k variables.  _section forms those
residues straight from f's terms, with no rational polynomial in between.
Any such multiple will do: over Q, g_i generates the ideal that f_i(A t)
does.  g_i is not made primitive, so when p divides its content its
residue is zero; fewer than k forms in k variables cut no finite quotient,
so the section gives up and the exact engine decides.  The section is
accepted when every t_j has a pure power among the leading monomials, that
is, when F_p[t]/(g) is finite-dimensional.  Why that proves the verdict:
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
self-check, the k forms of degrees d_i are then a regular sequence over F_p,
so the Hilbert numerator of their leads is prod(1 - t^d_i), in every degree;
any other numerator raises InternalError.  A = [I; R]: an A whose top k x k
block is invertible is this one after a change of the t coordinates, which keeps
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
from functools import cached_property, reduce
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, zip_longest
from math import gcd, lcm, prod
from typing import NamedTuple

from .exactpoly import (
    FIELD_BITS, InternalError, Monomial, Poly, _poly, decode, encode, format_poly, guard_mask,
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
    leads: list[Monomial]  # the minimal leads, sorted by the order: in(I)'s minimal generators
    stats: dict = field(default_factory=dict)  # engine counters, see buchberger
    # the minimal records behind the leads (see _basis), and their modulus (0: over Q)
    _records: list = field(default_factory=list, repr=False, compare=False)
    _mod: int = field(default=0, repr=False, compare=False)

    @cached_property
    def basis(self) -> list[Poly]:
        """The reduced (over F_p minimal) monic basis, built on first read, with no budget."""
        return _reduce_and_normalize(self._records, _Packing(self.arity), self._mod)

    @cached_property
    def hilbert_numerator(self) -> list[int]:
        """The Hilbert numerator of the quotient by the leads (see _hilbert_numerator)."""
        return _hilbert_numerator(self.leads, self.arity)


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------


class _Packing:
    """The packed-int monomials of one ring (see the module docstring).

    An engine monomial m holds its degree in its top field, m >> s; degree()
    sums the exponent fields with one multiplication where that field is not
    written yet (lcm, _hilbert_numerator), exact while the sum is below 2^W.
    The fields are written and read by exactpoly.encode and
    exactpoly.decode, and the guard bits are exactpoly's.
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
    budget.degree = max(budget.degree, lm >> P.s)  # a graded order: the lead has the top degree
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
    P.check(lcm >> P.s)
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
    gens: list[Poly] | list[IntPoly],
    timeout_secs: float | None = None,
    arity: int | None = None,
    mod: int = 0,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens over Q, under degrevlex.

    Deterministic for a fixed input sequence.  Zero generators are
    ignored; an empty input yields the empty basis (pass arity in that
    case).  Raises GBTimeout when the time budget runs out; the budget
    covers the run to the minimal records, not the inter-reduction that a
    later read of .basis does (with no budget).  The loop is the
    signature-based one of the module docstring: an S-pair is skipped when
    its signature is divisible by a Koszul or an earlier zero-reduction
    signature, or repeats the one just handled.  stats holds its
    deterministic counters: critical pairs formed, pairs skipped by the
    first two rules (pairs_koszul), by the third or as singular
    (pairs_rewritten), S-polynomials that reduced to zero, reduction steps
    (over the whole run; a later inter-reduction is not counted), the basis
    size before minimalization, and the largest term degree and coefficient
    bit length of a record.

    With a prime mod, gens are instead residues mod it on the packed
    monomials of _Packing(arity), as _section forms them, and the run is the
    F_p linear section's (see the module docstring): it stops at the first
    zero reduction and at degree s + 1 (see _basis), so its basis is minimal
    and monic up to that degree, not inter-reduced.  The section runs through
    here, not through _basis, so that bench/spans.py, which wraps buchberger,
    times it as its groebner.basis span.
    """
    if mod:
        return _basis(gens, _Packing(arity), _Budget(timeout_secs), mod)
    if gens:
        arity = gens[0].arity
    elif arity is None:
        raise ValueError("an empty generator list needs an explicit arity")
    for p in gens:
        if p.arity != arity:
            raise ValueError("generators live in different rings")
    P = _Packing(arity)
    return _basis([_to_int_poly(p, P) for p in gens], P, _Budget(timeout_secs))


def _basis(polys: list[IntPoly], P: _Packing, budget: _Budget, mod: int = 0) -> GroebnerBasis:
    """The signature-based loop over Q, or over F_p for a prime mod (polys reduced mod it).

    The basis grows in budget.records, so that a GBTimeout reports its size;
    the result holds the minimal records, sorted by key, their leads and the
    engine counters.  A signature (t, i) is the int i*P.big + key(t).  Over
    F_p the loop is the section's (see the module docstring): it stops at the
    first zero reduction and leaves out the pairs of degree above s + 1,
    s = sum(d_i - 1).
    """
    G: list[_Record] = budget.records  # heap entries index into G
    reducers: list[_Record] = []  # the records of G, sorted by key
    koszul = rewritten = zeros = 0
    guard, s = P.guard, P.s
    polys = sorted((f for f in polys if f), key=lambda f: max(f) >> s)
    top = sum((next(iter(f)) >> s) - 1 for f in polys) + 1 if mod else 0
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
                    if mod and lcm_ab >> s > top:
                        continue
                    k = P.key(lcm_ab)
                    sa, sb = rec.skey + k - rec.key, other.skey + k - other.key
                    if sa == sb:
                        rewritten += 1
                        continue
                    hi, x, y = (rec, n, j) if sa > sb else (other, j, n)
                    u = lcm_ab - hi.lm + hi.sig
                    P.check(u >> s)
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
    stats = {"pairs_formed": budget.pairs, "pairs_koszul": koszul, "pairs_rewritten": rewritten,
             "zero_reductions": zeros, "reduction_steps": budget.steps,
             "basis_before_minimal": len(reducers), "max_degree": budget.degree,
             "coeff_bits_max": budget.bits}
    return GroebnerBasis(P.n, [P.decode(r.lm) for r in G], stats, G, mod)


def _minimal(records: list[_Record], P: _Packing) -> list[_Record]:
    """The records (sorted by key) whose lead no earlier kept lead divides."""
    kept: list[_Record] = []
    for rec in records:
        if not any(P.divides(m.lm, rec.lm) for m in kept):
            kept.append(rec)
    return kept


def _reduce_and_normalize(minimal: list[_Record], P: _Packing, mod=0) -> list[Poly]:
    """The minimal records (sorted by key), inter-reduced and made monic.

    A lead of a minimal basis is divisible by no other lead, so it survives
    the inter-reduction; a divisor of a term below the lead is a lead of
    smaller key, so each record is reduced by the reduced ones before it.
    Over F_p the records are monic already and are not inter-reduced.
    """
    budget, reduced = _Budget(None), []
    for rec in minimal:
        rec = rec if mod else _record(_reduce_full(rec.terms, reduced, P, budget), P, budget)
        reduced.append(rec)
    return [_poly(P.n, {P.decode(m): Fraction(c, rec.lc) for m, c in rec.terms}) for rec in reduced]


_SCALE = None  # key of normal_form's factor entry in out; no monomial equals it


def normal_form(f: Poly, basis: list[Poly]) -> Poly:
    """Multivariate division remainder of f by the basis (exact, rational).

    No term of the result is divisible by any basis leading term.  Against a
    reduced Groebner basis this is the unique normal form, so membership in
    the ideal is the test `normal_form(f, gb.basis).is_zero()`.
    """
    if any(b.arity != f.arity for b in basis):
        raise ValueError("generators live in different rings")
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


def _hilbert_numerator(leads: list[Monomial], n: int) -> list[int]:
    """N(t), from degree 0 up, where N(t)/(1 - t)^n is the Hilbert series of
    k[x_1..x_n]/(leads); the unit ideal gives N = 0.  Bigatti's pivot
    recursion (J. Pure Appl. Algebra 119, 1997) on packed monomials: groups of
    leads linked by shared variables multiply their N, a lone lead m gives
    1 - t^deg(m), and a larger group splits at x^e, x the variable of the most
    leads of two or more variables and e its least positive exponent, as
    N(I) = (1 - t^e) N(the leads without x) + t^e N(I : x^e).
    """
    P = _Packing(n)
    w, guard, ones, degree = P.w, P.guard & P.low, P.ones, P.degree
    field_max = (1 << w) - 1

    def lone(d):  # 1 - t^d
        return [1] + [0] * (d - 1) + [-1] if d else [0]

    def numerator(ms):
        groups: dict[int, list[int]] = {}  # the guard bits of a group's variables: its leads
        for m in ms:
            s, members = ((m | guard) - ones) & guard, [m]
            for mask in [mask for mask in groups if mask & s]:
                s |= mask
                members += groups.pop(mask)
            groups[s] = members
        out = [1]
        for group in groups.values():
            out = _series_mul(out, split(group) if len(group) > 1 else lone(degree(group[0])))
        return out

    def split(group):
        # the sum of the mixed leads' supports, one per field: how many hold each variable
        counts = decode(sum(s >> (w - 1) for m in group
                            if (s := ((m | guard) - ones) & guard) & (s - 1)), n)
        shift = w * counts.index(max(counts))
        e = min(a for m in group if (a := m >> shift & field_max))
        kept = [m for m in group if not m >> shift & field_max]
        # every exponent of x is at least e, so no cut lead divides another, and a
        # kept lead can be divided only by a cut one
        cut = [m - (e << shift) for m in group if m >> shift & field_max]
        colon = cut + [m for m in kept if not any(((m | guard) - c) & guard == guard for c in cut)]
        first = _series_mul(lone(e), numerator(kept))
        return [a + b for a, b in zip_longest(first, [0] * e + numerator(colon), fillvalue=0)]

    ms: list[int] = []  # the minimal leads
    for m in sorted(map(encode, leads), key=degree):
        if not any(((m | guard) - k) & guard == guard for k in ms):
            ms.append(m)
    out = numerator(ms)
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


def _series_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def _check_stanley(gb: GroebnerBasis, degrees: list[int], what: str) -> None:
    """Stanley's criterion: the leads of a regular sequence of these positive
    degrees have the Hilbert numerator prod(1 - t^d)."""
    product = reduce(_series_mul, ([1] + [0] * (d - 1) + [-1] for d in degrees), [1])
    if gb.hilbert_numerator != product:
        raise InternalError(f"{what} has Hilbert numerator {gb.hilbert_numerator}, not "
                            f"prod(1 - t^d) over the degrees {degrees}: engine bug")


def ideal_dimension(gb: GroebnerBasis) -> int:
    """Krull dimension of the quotient: n minus the order of t = 1 as a root
    of the leads' Hilbert numerator N; the unit ideal, N = 0, gives -1."""
    N, order = gb.hilbert_numerator, 0
    if not any(N):
        return -1
    while not sum(N):
        N, order = list(accumulate(N))[:-1], order + 1  # N/(1 - t); the last partial sum is N(1)
    return gb.arity - order


# ---------------------------------------------------------------------------
# the F_p linear section
# ---------------------------------------------------------------------------


def _section(gens: list[Poly], P: _Packing, p: int, budget: _Budget) -> list[IntPoly]:
    """h_i(A t) mod p for each gen f_i, h_i = den_i * f_i with den_i the lcm of
    f_i's denominators, on the packed monomials of t_0..t_{k-1} (P), with
    residues in [1, p): the section of the module docstring.

    A = [I; R] sends x_j to t_j for j < k, so a term's first k exponents are
    one packed monomial; x_j for j >= k goes to the seeded linear form R_j,
    and the product of the R_j^e_j over a term's last n - k exponents is
    formed once per call, reduced mod p.  The budget is ticked once per
    generator.
    """
    k, n, s = P.n, gens[0].arity, P.s
    rng = random.Random(SECTION_SEED)
    # R_j as (t_i packed, residue) pairs, drawn row by row
    forms = [[((1 << P.w * i) + (1 << s), r) for i in range(k) if (r := rng.randrange(p))]
             for _ in range(n - k)]
    tails: dict = {}  # exponents on x_k..x_{n-1}: the product of R_j^e_j mod p

    def tail(e: Monomial) -> IntPoly:
        q = tails.get(e)
        if q is None:
            q = {0: 1}
            for j, a in enumerate(e):
                for _ in range(a):
                    out: IntPoly = {}
                    for m, c in q.items():
                        for u, r in forms[j]:
                            out[m + u] = out.get(m + u, 0) + c * r
                    q = {m: r for m, c in out.items() if (r := c % p)}
            tails[e] = q
        return q

    section = []
    for f in gens:
        budget.tick()
        den = lcm(*(c.denominator for c in f.terms.values()))
        g: IntPoly = {}
        for mono, c in f.terms.items():
            a = c.numerator * (den // c.denominator) % p
            head = encode(mono[:k]) + (sum(mono[:k]) << s)
            for m, b in tail(mono[k:]).items():
                g[head + m] = g.get(head + m, 0) + a * b
        section.append({m: r for m, c in g.items() if (r := c % p)})
    return section


def _section_certificate(
    gens: list[Poly], degrees: list[int], budget: _Budget
) -> dict | None:
    """Engine counters of a zero-dimensional F_p section of gens, or None.

    gens are k homogeneous forms of the positive degrees given; the proof
    that a zero-dimensional section makes them a regular sequence is in the
    module docstring.
    """
    p, P = SECTION_PRIME, _Packing(len(gens))
    P.check(max(degrees))  # each term of g_i has f_i's degree
    section = _section(gens, P, p, budget)
    if not all(section):  # some h_i vanishes mod p: fewer than k forms in k variables
        return None
    gb = buchberger(section, timeout_secs=time_left(budget.deadline), arity=P.n, mod=p)
    # a zero reduction proves the section is no regular sequence; otherwise some t_j
    # may have no pure power among the leads
    if gb.stats["zero_reductions"] or ideal_dimension(gb) != 0:
        return None
    _check_stanley(gb, degrees, "the zero-dimensional F_p section")
    return gb.stats


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
            stats = _section_certificate(gens, degrees, budget)
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
    if dim == n - k:
        if gb.stats["zero_reductions"]:  # F5's theorem, see the module docstring
            raise InternalError(f"{gb.stats['zero_reductions']} zero reductions on a regular "
                                "sequence, which F5's theorem rules out: engine bug")
        _check_stanley(gb, degrees, "a regular sequence")
    return DimensionReport(
        ideal_dimension=dim, verdict=(dim == n - k), status="ok", input_hash=input_digest(gens, n),
        stats={**gb.stats, "certificate": certificate}, **report,
    )
