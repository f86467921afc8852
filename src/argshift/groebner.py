"""Exact Groebner engine over Q and the regular-sequence verdict.

Buchberger's algorithm with the normal (degree) pair-selection strategy and
the coprimality and chain criteria.  Coefficients are cleared to primitive
integer vectors, and all reductions are integer pseudo-reductions, so no
rational arithmetic happens in the hot loop; the reduced basis is converted
to monic rational polynomials at the end.

Inside the engine a monomial is one Python int.  With W = FIELD_BITS and
R = 2^W, the exponent vector e of n variables packs as

    degrevlex:  M = deg(e)*R^n + sum e_i*R^i
    lex:        M = sum e_i*R^(n-1-i)

so a product of monomials is one int addition and a quotient one
subtraction.  The order key is ((M >> s) << (s+1)) - M, with s = W*n under
degrevlex (that is deg*R^n - sum e_i*R^i: the degree first, then the smaller
last exponents) and s = 0 under lex (M itself, x0 in the top field).  The
negated key is an involution of the packed ints, so the reduction heap holds
plain ints and the same formula turns a popped entry back into its monomial.
Every field stays below 2^(W-1), so its top bit is a guard: with G the mask
of the guard bits, a divides b iff ((b | G) - a) & G == G.  The subtraction
keeps the guard of exactly the fields where b_i >= a_i, and since each field
of b | G is at least as large as the field of a, no field borrows from its
neighbour.  A monomial whose degree would reach 2^(W-1) raises InternalError
and the computation yields no basis.  Under degrevlex a reduction never
raises the degree, so the inputs and the S-pair lcms are checked; under lex
each reduction step and each S-polynomial is checked as well.  Tuples are
built once on input and once on output: Poly terms, GroebnerBasis.basis,
leading_monomials() and normal_form's result keep tuple monomials.

Each basis element is one record, built when it enters the basis: the order
key of its leading monomial, the leading monomial, the leading coefficient
(made positive there, once), the terms as a tuple and how far its terms'
degree exceeds the lead's (0 under degrevlex).  The reducers are those
records in a list kept sorted by key with ``bisect.insort``; the divisor scan
stops at the first lead above the monomial, which no divisor is.  The
critical pairs wait in a heap of (degree of the lcm, i, j) next to the set of
pending pairs that the chain criterion reads.  Output is deterministic for a
fixed input sequence and order, which is what makes the golden reports
sound, and so are the engine counters in GroebnerBasis.stats.

The Krull dimension of the quotient is read off the leading-term ideal: it is
the largest number of variables that avoid the support of every leading
monomial (computed as a minimum hitting set over the supports).
"""

from __future__ import annotations

import hashlib
import json
import time
from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import NamedTuple

from . import linalg
from .exactpoly import InternalError, Monomial, Poly, format_poly, grevlex_key

# bits of one packed exponent field; every exponent and degree stays below 2**(FIELD_BITS - 1)
FIELD_BITS = 32


class GBTimeout(Exception):
    """Raised when a basis computation exceeds its time budget."""


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative monomial order with x0 > x1 > ...: degrevlex
    (default) or lex.  The engine orders packed monomials by _Packing.key.
    """

    kind: str = "degrevlex"

    def __post_init__(self):
        if self.kind not in ("degrevlex", "lex"):
            raise ValueError(f"unsupported order {self.kind!r}")

    def to_json(self) -> dict:
        # "permutation" is kept so that input digests and golden reports stay byte-identical
        return {"kind": self.kind, "permutation": None}


@dataclass
class GroebnerBasis:
    order: MonomialOrder
    arity: int
    basis: list[Poly]  # reduced: monic, pairwise non-divisible leads, sorted by lead
    input_hash: str
    stats: dict = field(default_factory=dict)  # engine counters, see buchberger

    def leading_monomials(self) -> list[Monomial]:
        # tuples compare lexicographically, so lex needs no key
        key = grevlex_key if self.order.kind == "degrevlex" else None
        return [max(p.terms, key=key) for p in self.basis]


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------


class _Packing:
    """The packed-int monomials of one ring and order (see the module docstring).

    degree() sums the n exponent fields with one multiplication; it is exact
    while the sum is below 2^W, which holds for every monomial of the engine
    and for the lcm of two of them.
    """

    __slots__ = ("n", "lex", "w", "s", "guard", "limit", "low", "ones")

    def __init__(self, n: int, order: MonomialOrder):
        w = self.w = FIELD_BITS
        self.n, self.lex = n, order.kind == "lex"
        self.s = 0 if self.lex else w * n
        fields = n if self.lex else n + 1
        self.guard = sum(1 << (w * i + w - 1) for i in range(fields))
        self.limit = 1 << (w - 1)
        self.low = (1 << (w * n)) - 1  # the n exponent fields
        self.ones = sum(1 << (w * i) for i in range(n))

    def encode(self, mono: Monomial) -> int:
        d = sum(mono)
        self.check(d)
        w, n = self.w, self.n
        if self.lex:
            return sum(e << (w * (n - 1 - i)) for i, e in enumerate(mono))
        return sum(e << (w * i) for i, e in enumerate(mono)) + (d << self.s)

    def decode(self, m: int) -> Monomial:
        w = self.w
        f = (1 << w) - 1
        exps = tuple((m >> (w * i)) & f for i in range(self.n))
        return exps[::-1] if self.lex else exps

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
        d = self.degree(m)
        self.check(d)
        return m if self.lex else (m & self.low) + (d << self.s)

    def check(self, degree: int) -> None:
        if degree >= self.limit:
            raise InternalError(
                f"a monomial of degree {degree} overflows the {self.w}-bit exponent fields"
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
    grow: int  # highest term degree minus deg lm: 0 under degrevlex


def _record(d: IntPoly, P: _Packing) -> _Record:
    lm = max(d, key=P.key)
    if d[lm] < 0:
        d = {m: -c for m, c in d.items()}
    grow = max(map(P.degree, d)) - P.degree(lm)
    return _Record(P.key(lm), lm, d[lm], tuple(d.items()), grow)


def _by_key(rec: _Record):
    return rec.key


def _to_int_poly(p: Poly, P: _Packing) -> IntPoly:
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    out = {P.encode(m): int(c * den) for m, c in p.terms.items()}
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
    """Cooperative deadline checks for the inner loops, and the number of
    reduction steps made under them.

    The clock is read on every tick: one reduction step can cost far more
    than a clock read once coefficients grow.
    """

    __slots__ = ("deadline", "steps")

    def __init__(self, timeout_secs):
        self.deadline = None if timeout_secs is None else time.monotonic() + timeout_secs
        self.steps = 0

    def tick(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise GBTimeout("basis computation exceeded the time budget")


def _reduce_full(
    f, reducers: list[_Record], P: _Packing, budget: _Budget, out: IntPoly | None = None
) -> IntPoly:
    """Full normal form of f (a dict or a tuple of items) against reducers
    (records sorted by key).

    Integer pseudo-reduction: the intermediate polynomial is rescaled by
    reducer leading coefficients as needed, and content-normalized at the
    end, so the result is primitive (a rational multiple of the true normal
    form, which is all the Buchberger callers need).  Entries already in out
    are rescaled exactly like the remainder, so a caller that seeds one entry
    at 1 reads off the overall factor.
    """
    if not f:
        return {}
    s, s1, guard = P.s, P.s + 1, P.guard
    work = dict(f)
    out = {} if out is None else out
    heap = [m - ((m >> s) << s1) for m in work]  # -key(m): the largest monomial pops first
    heapify(heap)
    steps = 0
    while heap:
        v = heappop(heap)
        m = v - ((v >> s) << s1)  # the same map takes -key(m) back to m
        c = work.get(m)
        if not c:
            continue
        mkey, mg = -v, m | guard
        hit = None
        for key, lm, lc, terms, grow in reducers:
            if key > mkey:
                break  # a divisor of m is not above m
            if (mg - lm) & guard == guard:  # P.divides(lm, m), inlined
                hit = (lm, lc, terms, grow)
                break
        if hit is None:
            out[m] = c
            del work[m]
            continue
        lm, lc, terms, grow = hit
        if grow:  # lex only: the step may raise the degree
            P.check(P.degree(m) + grow)
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
        budget.tick()
        steps += 1
        if steps % 64 == 0:
            merged_gcd = 0
            for v in work.values():
                merged_gcd = gcd(merged_gcd, v)
                if merged_gcd == 1:
                    break
            if merged_gcd != 1:
                for v in out.values():
                    merged_gcd = gcd(merged_gcd, v)
                    if merged_gcd == 1:
                        break
            if merged_gcd > 1:
                for k in work:
                    work[k] //= merged_gcd
                for k in out:
                    out[k] //= merged_gcd
    budget.steps += steps
    _content_normalize(out)
    return out


def _spoly(f: _Record, g: _Record, lcm: int, P: _Packing) -> IntPoly:
    if f.grow or g.grow:  # lex only: a term may outgrow the lcm's degree
        P.check(P.degree(lcm) + max(f.grow, g.grow))
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
    _content_normalize(out)
    return out


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------


def input_digest(gens: list[Poly], order: MonomialOrder, arity: int) -> str:
    payload = json.dumps(
        {"order": order.to_json(), "arity": arity, "generators": [format_poly(p) for p in gens]},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def buchberger(
    gens: list[Poly],
    order: MonomialOrder | None = None,
    timeout_secs: float | None = None,
    arity: int | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Deterministic for a fixed input sequence and order.  Zero generators are
    ignored; an empty input yields the empty basis (pass arity in that
    case).  Raises GBTimeout when the time budget runs out.

    The basis carries deterministic engine counters in stats: critical pairs
    formed, pairs skipped by the coprime and by the chain criterion,
    S-polynomials that reduced to zero, reduction steps (over every
    reduction of the run) and the basis size before minimalization.
    """
    order = order or MonomialOrder()
    if gens:
        arity = gens[0].arity
    elif arity is None:
        raise ValueError("an empty generator list needs an explicit arity")
    for p in gens:
        if p.arity != arity:
            raise ValueError("generators live in different rings")
    P = _Packing(arity, order)
    budget = _Budget(timeout_secs)

    G: list[_Record] = []  # pairs index into G
    reducers: list[_Record] = []  # the records of G, sorted by key
    for p in gens:
        r = _reduce_full(_to_int_poly(p, P), reducers, P, budget)
        if r:
            G.append(_record(r, P))
            insort(reducers, G[-1], key=_by_key)
    # inter-reduce the seed basis to a fixpoint; linear generators then
    # eliminate their variables before any pair is formed
    changed = True
    while changed and len(G) > 1:
        changed = False
        for idx, rec in enumerate(G):
            reducers.remove(rec)
            r = _reduce_full(rec.terms, reducers, P, budget)
            if r == dict(rec.terms):
                insort(reducers, rec, key=_by_key)
                continue
            changed = True
            if not r:
                G.pop(idx)
                break
            G[idx] = _record(r, P)
            insort(reducers, G[idx], key=_by_key)

    pending = {(i, j) for j in range(len(G)) for i in range(j)}
    heap = [(P.degree(P.lcm(G[i].lm, G[j].lm)), i, j) for i, j in pending]
    heapify(heap)
    formed = len(heap)
    coprime = chain = zeros = 0
    while heap:
        budget.tick()
        _, i, j = heappop(heap)
        pending.discard((i, j))
        li, lj = G[i].lm, G[j].lm
        lcm_ij = P.lcm(li, lj)
        # first criterion: coprime leading monomials
        if lcm_ij == li + lj:
            coprime += 1
            continue
        # chain criterion: some k with lt_k | lcm and both side pairs done
        if any(
            k != i and k != j and P.divides(rec.lm, lcm_ij)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, rec in enumerate(G)
        ):
            chain += 1
            continue
        r = _reduce_full(_spoly(G[i], G[j], lcm_ij, P), reducers, P, budget)
        if not r:
            zeros += 1
            continue
        t = len(G)
        G.append(_record(r, P))
        insort(reducers, G[t], key=_by_key)
        for a in range(t):
            pending.add((a, t))
            heappush(heap, (P.degree(P.lcm(G[a].lm, G[t].lm)), a, t))
        formed += t

    unminimized = len(reducers)
    basis = _reduce_and_normalize(reducers, P, budget)
    stats = {
        "pairs_formed": formed,
        "pairs_coprime": coprime,
        "pairs_chain": chain,
        "zero_reductions": zeros,
        "reduction_steps": budget.steps,
        "basis_before_minimal": unminimized,
    }
    return GroebnerBasis(
        order=order, arity=arity, basis=basis, input_hash=input_digest(gens, order, arity),
        stats=stats,
    )


def _reduce_and_normalize(reducers: list[_Record], P: _Packing, budget: _Budget) -> list[Poly]:
    """Minimalize, inter-reduce and make monic; sorted by key, as reducers are.

    A lead kept by minimalization is divisible by no other kept lead, so it
    survives the inter-reduction and is still the record's lm.
    """
    minimal: list[_Record] = []
    for rec in reducers:
        if not any(P.divides(m.lm, rec.lm) for m in minimal):
            minimal.append(rec)
    out: list[Poly] = []
    for idx, rec in enumerate(minimal):
        r = _reduce_full(rec.terms, minimal[:idx] + minimal[idx + 1 :], P, budget)
        lc = r[rec.lm]
        out.append(Poly(P.n, {P.decode(m): Fraction(c, lc) for m, c in r.items()}))
    return out


_SCALE = None  # key of normal_form's factor entry in out; no monomial equals it


def normal_form(f: Poly, basis: list[Poly], order: MonomialOrder | None = None) -> Poly:
    """Multivariate division remainder of f by the basis (exact, rational).

    No term of the result is divisible by any basis leading term.  Against a
    reduced Groebner basis this is the unique normal form, so membership in
    the ideal is the test `normal_form(f, gb.basis, gb.order).is_zero()`.
    """
    P = _Packing(f.arity, order or MonomialOrder())
    g = _to_int_poly(f, P)
    if not g:
        return Poly(f.arity)
    reducers = [_record(_to_int_poly(b, P), P) for b in basis if not b.is_zero()]
    reducers.sort(key=_by_key)
    # the kernel returns factor * NF(g), factor in the _SCALE entry, and g = (g/f) * f,
    # read off the first term (g keeps the term order of f)
    out = _reduce_full(g, reducers, P, _Budget(None), out={_SCALE: 1})
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
        pending = None
        for s in keep:
            if not (s & chosen):
                pending = s
                break
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
    order: MonomialOrder = field(default_factory=MonomialOrder)
    input_hash: str | None = None
    extra: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)  # the basis' engine counters; out of every digest

    def to_json_dict(self) -> dict:
        out = {
            "arity": self.arity,
            "generator_count": self.generator_count,
            "ideal_dimension": self.ideal_dimension,
            "expected_dimension": self.expected_dimension,
            "verdict": self.verdict,
            "status": self.status,
            "zero_generators": [list(z) for z in self.zero_generators],
            "order": self.order.to_json(),
            "input_hash": self.input_hash,
            "stats": self.stats,
        }
        out.update(self.extra)
        return out


def regular_sequence_verdict(
    gens: list[Poly],
    n: int,
    order: MonomialOrder | None = None,
    timeout_secs: float | None = None,
    cache_dir: None = None,  # None only: bench/workloads.py passes cache_dir=None; remove with it
    zero_labels: list | None = None,
) -> DimensionReport:
    """Verdict: do the homogeneous gens cut a scheme of dimension n - k?

    In a polynomial ring (Cohen-Macaulay, gens homogeneous) this equality is
    equivalent to the gens forming a regular sequence.  Zero generators force
    verdict False immediately (the labeled family is degenerate); a timeout
    yields the distinct "inconclusive" status with verdict None.
    """
    if cache_dir is not None:
        raise ValueError("there is no Groebner cache; cache_dir must be None")
    order = order or MonomialOrder()
    k = len(gens)
    if k > n:
        raise ValueError(f"more generators ({k}) than variables ({n})")
    for p in gens:
        if not p.is_homogeneous():
            raise ValueError("regular-sequence verdict requires homogeneous generators")
        if not p.is_zero() and p.arity != n:
            raise ValueError("generator arity does not match n")
    report = dict(arity=n, generator_count=k, expected_dimension=n - k, order=order)
    zeros = [i for i, p in enumerate(gens) if p.is_zero()]
    if zeros:
        labels = zero_labels if zero_labels is not None else zeros
        return DimensionReport(
            ideal_dimension=None, verdict=False, status="degenerate",
            zero_generators=list(labels), **report,
        )
    try:
        gb = buchberger(gens, order=order, timeout_secs=timeout_secs, arity=n)
        dim = ideal_dimension(gb)
    except GBTimeout:
        return DimensionReport(ideal_dimension=None, verdict=None, status="inconclusive", **report)
    if dim != -1 and dim < n - k:
        raise InternalError(
            f"computed dimension {dim} below the Krull bound {n - k}: engine bug"
        )
    return DimensionReport(
        ideal_dimension=dim, verdict=(dim == n - k), status="ok", input_hash=gb.input_hash,
        stats=gb.stats, **report,
    )


def jacobian_rank(gens: list[Poly], point) -> int:
    """Exact rank of the matrix (d g_i / d x_j) evaluated at the point."""
    point = [Fraction(v) for v in point]
    rows = []
    for g in gens:
        if point and g.arity != len(point):
            raise ValueError("point length does not match generator arity")
        rows.append([g.diff(k).evaluate(point) for k in range(g.arity)])
    return linalg.rank(rows)
