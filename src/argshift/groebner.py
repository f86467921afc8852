"""Exact Groebner engine over Q and the regular-sequence verdict.

Buchberger's algorithm with the normal (degree) pair-selection strategy and
the coprimality and chain criteria.  Coefficients are cleared to primitive
integer vectors, and all reductions are integer pseudo-reductions, so no
rational arithmetic happens in the hot loop; the reduced basis is converted
to monic rational polynomials at the end.

Each basis element is one record, built when it enters the basis: the order
key of its leading monomial, the leading monomial, the leading coefficient
(made positive there, once) and the terms as a tuple.  The reducers are those
records in a list kept sorted by key with ``bisect.insort``, and the critical
pairs wait in a heap of (degree of the lcm, i, j) next to the set of pending
pairs that the chain criterion reads.  Output is deterministic for a fixed
input sequence and order, which is what makes the golden reports sound.

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
from .exactpoly import (
    Monomial,
    Poly,
    format_poly,
    grevlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
)


class GBTimeout(Exception):
    """Raised when a basis computation exceeds its time budget."""


def _grevlex_negkey(mono: Monomial):
    return (-sum(mono), tuple(reversed(mono)))


def _lex_key(mono: Monomial):
    return mono


def _lex_negkey(mono: Monomial):
    return tuple(-e for e in mono)


_ORDER_KEYS = {"degrevlex": (grevlex_key, _grevlex_negkey), "lex": (_lex_key, _lex_negkey)}


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative monomial order with x0 > x1 > ...: degrevlex
    (default) or lex.

    key(m) grows with m and negkey(m) shrinks with it; both are plain
    functions bound once per order, so the hot loops pay no dispatch.
    """

    kind: str = "degrevlex"

    def __post_init__(self):
        if self.kind not in _ORDER_KEYS:
            raise ValueError(f"unsupported order {self.kind!r}")
        key, negkey = _ORDER_KEYS[self.kind]
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "negkey", negkey)

    def to_json(self) -> dict:
        # "permutation" is kept so that input digests and golden reports stay byte-identical
        return {"kind": self.kind, "permutation": None}


@dataclass
class GroebnerBasis:
    order: MonomialOrder
    arity: int
    basis: list[Poly]  # reduced: monic, pairwise non-divisible leads, sorted by lead
    input_hash: str

    def leading_monomials(self) -> list[Monomial]:
        return [max(p.terms, key=self.order.key) for p in self.basis]


# ---------------------------------------------------------------------------
# integer polynomial core
# ---------------------------------------------------------------------------


IntPoly = dict  # Monomial -> int, content 1


class _Record(NamedTuple):
    """One basis element; its lead is found and its sign fixed once, in _record."""

    key: tuple  # order key of lm
    lm: Monomial
    lc: int  # positive
    terms: tuple  # ((monomial, int), ...), content 1


def _record(d: IntPoly, order: MonomialOrder) -> _Record:
    lm = max(d, key=order.key)
    if d[lm] < 0:
        d = {m: -c for m, c in d.items()}
    return _Record(order.key(lm), lm, d[lm], tuple(d.items()))


def _by_key(rec: _Record):
    return rec.key


def _to_int_poly(p: Poly) -> IntPoly:
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    out = {m: int(c * den) for m, c in p.terms.items()}
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
    """Cooperative deadline checks for the inner loops.

    The clock is read on every tick: one reduction step can cost far more
    than a clock read once coefficients grow.
    """

    __slots__ = ("deadline",)

    def __init__(self, timeout_secs):
        self.deadline = None if timeout_secs is None else time.monotonic() + timeout_secs

    def tick(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise GBTimeout("basis computation exceeded the time budget")


def _reduce_full(
    f, reducers: list[_Record], order: MonomialOrder, budget: _Budget, out: IntPoly | None = None
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
    # under degrevlex the key starts with the degree, so the divisor scan can
    # stop once leads outgrow the target
    degree_sorted = order.kind == "degrevlex"
    work = dict(f)
    out = {} if out is None else out
    heap = [(order.negkey(m), m) for m in work]
    heapify(heap)
    steps = 0
    while heap:
        _, m = heappop(heap)
        c = work.get(m)
        if not c:
            continue
        mdeg = sum(m)
        hit = None
        for key, lm, lc, terms in reducers:
            if degree_sorted and key[0] > mdeg:
                break
            if mono_divides(lm, m):
                hit = (lm, lc, terms)
                break
        if hit is None:
            out[m] = c
            del work[m]
            continue
        lm, lc, terms = hit
        q = mono_div(m, lm)
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
            k = tuple(x + y for x, y in zip(gm, q))
            nv = work.get(k, 0) - b * gc
            if nv:
                if k not in work:
                    heappush(heap, (order.negkey(k), k))
                work[k] = nv
            else:
                work.pop(k, None)
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
    _content_normalize(out)
    return out


def _spoly(f: _Record, g: _Record) -> IntPoly:
    lcm = mono_lcm(f.lm, g.lm)
    d = gcd(f.lc, g.lc)
    mf, mg = mono_div(lcm, f.lm), mono_div(lcm, g.lm)
    af, ag = g.lc // d, f.lc // d
    out: IntPoly = {}
    for m, c in f.terms:
        k = tuple(x + y for x, y in zip(m, mf))
        out[k] = out.get(k, 0) + af * c
    for m, c in g.terms:
        k = tuple(x + y for x, y in zip(m, mg))
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
    """
    order = order or MonomialOrder()
    if gens:
        arity = gens[0].arity
    elif arity is None:
        raise ValueError("an empty generator list needs an explicit arity")
    for p in gens:
        if p.arity != arity:
            raise ValueError("generators live in different rings")
    budget = _Budget(timeout_secs)

    G: list[_Record] = []  # pairs index into G
    reducers: list[_Record] = []  # the records of G, sorted by key
    for p in gens:
        r = _reduce_full(_to_int_poly(p), reducers, order, budget)
        if r:
            G.append(_record(r, order))
            insort(reducers, G[-1], key=_by_key)
    # inter-reduce the seed basis to a fixpoint; linear generators then
    # eliminate their variables before any pair is formed
    changed = True
    while changed and len(G) > 1:
        changed = False
        for idx, rec in enumerate(G):
            reducers.remove(rec)
            r = _reduce_full(rec.terms, reducers, order, budget)
            if r == dict(rec.terms):
                insort(reducers, rec, key=_by_key)
                continue
            changed = True
            if not r:
                G.pop(idx)
                break
            G[idx] = _record(r, order)
            insort(reducers, G[idx], key=_by_key)

    pending = {(i, j) for j in range(len(G)) for i in range(j)}
    heap = [(sum(mono_lcm(G[i].lm, G[j].lm)), i, j) for i, j in pending]
    heapify(heap)
    while heap:
        budget.tick()
        _, i, j = heappop(heap)
        pending.discard((i, j))
        li, lj = G[i].lm, G[j].lm
        lcm_ij = mono_lcm(li, lj)
        # first criterion: coprime leading monomials
        if all(a + b == c for a, b, c in zip(li, lj, lcm_ij)):
            continue
        # chain criterion: some k with lt_k | lcm and both side pairs done
        if any(
            k != i and k != j and mono_divides(rec.lm, lcm_ij)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, rec in enumerate(G)
        ):
            continue
        r = _reduce_full(_spoly(G[i], G[j]), reducers, order, budget)
        if r:
            t = len(G)
            G.append(_record(r, order))
            insort(reducers, G[t], key=_by_key)
            for a in range(t):
                pending.add((a, t))
                heappush(heap, (sum(mono_lcm(G[a].lm, G[t].lm)), a, t))

    basis = _reduce_and_normalize(reducers, order, budget)
    return GroebnerBasis(
        order=order, arity=arity, basis=basis, input_hash=input_digest(gens, order, arity)
    )


def _reduce_and_normalize(
    reducers: list[_Record], order: MonomialOrder, budget: _Budget
) -> list[Poly]:
    """Minimalize, inter-reduce and make monic; sorted by key, as reducers are.

    A lead kept by minimalization is divisible by no other kept lead, so it
    survives the inter-reduction and is still the record's lm.
    """
    minimal: list[_Record] = []
    for rec in reducers:
        if not any(mono_divides(m.lm, rec.lm) for m in minimal):
            minimal.append(rec)
    out: list[Poly] = []
    for idx, rec in enumerate(minimal):
        r = _reduce_full(rec.terms, minimal[:idx] + minimal[idx + 1 :], order, budget)
        lc = r[rec.lm]
        out.append(Poly(len(rec.lm), {m: Fraction(c, lc) for m, c in r.items()}))
    return out


_SCALE = None  # key of normal_form's factor entry in out; no monomial equals it


def normal_form(f: Poly, basis: list[Poly], order: MonomialOrder | None = None) -> Poly:
    """Multivariate division remainder of f by the basis (exact, rational).

    No term of the result is divisible by any basis leading term.  Against a
    reduced Groebner basis this is the unique normal form, so membership in
    the ideal is the test `normal_form(f, gb.basis, gb.order).is_zero()`.
    """
    order = order or MonomialOrder()
    g = _to_int_poly(f)
    if not g:
        return Poly(f.arity)
    reducers = [_record(_to_int_poly(b), order) for b in basis if not b.is_zero()]
    reducers.sort(key=_by_key)
    # the kernel returns factor * NF(g), factor in the _SCALE entry, and g = (g/f) * f
    out = _reduce_full(g, reducers, order, _Budget(None), out={_SCALE: 1})
    m = next(iter(g))
    scale = out.pop(_SCALE) * (g[m] / f.terms[m])
    return Poly(f.arity, {k: v / scale for k, v in out.items()})


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
        raise AssertionError(
            f"computed dimension {dim} below the Krull bound {n - k}: engine bug"
        )
    return DimensionReport(
        ideal_dimension=dim, verdict=(dim == n - k), status="ok", input_hash=gb.input_hash, **report
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
