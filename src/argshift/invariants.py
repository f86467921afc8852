"""Free homogeneous generators of the invariant ring for the classical types.

For gl_n the generators are the symbolic power traces tr(X), .., tr(X^n) of
the generic matrix X attached to a dual point; for sl_n the trace is dropped;
for odd so and for sp only the even power traces survive.  The generic matrix
is built through the inverse of the invariant form, which is exactly what
makes the resulting polynomials Poisson-central in our coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import liealg, poisson
from .exactpoly import ONE, ZERO, Poly, pack, packed_dot, unpack
from .liealg import LieAlgebraData


@dataclass
class InvariantFamily:
    algebra: LieAlgebraData
    generators: list[Poly]
    degrees: list[int]

    def to_json_dict(self) -> dict:
        return {
            "degrees": list(self.degrees),
            "generators": [str(p) for p in self.generators],
        }


def generic_dual_matrix(L: LieAlgebraData) -> list[list[Poly]]:
    """Matrix (in the defining representation) of a generic dual point.

    Entries are linear polynomials in the dual coordinates: the point with
    coordinates x is the element form^{-1}.x, so this is liealg.affine_matrix
    along the columns of form^{-1} (kostant_slice's chart at e = 0).
    """
    columns = [list(col) for col in zip(*L.form_inverse())]
    return liealg.affine_matrix(L, [Fraction(0)] * L.dim, columns)


def power_traces(X: list[list[Poly]], powers: list[int]) -> list[Poly]:
    """tr(X^k) for k in powers, as sum_{a,b} X^(k-1)[a][b] X[b][a]: one dot
    product, so the largest power is never multiplied out.  X may be any
    polynomial matrix, such as a slice chart's (SliceChart.matrix)."""
    m = len(X)
    arity = X[0][0].arity
    packed = [[pack(p) for p in row] for row in X]
    cols = [list(col) for col in zip(*packed)]
    transposed = [q for col in cols for q in col]
    cur = [[ONE if a == b else ZERO for b in range(m)] for a in range(m)]  # X^0
    traces = {}
    top = max(powers)
    for k in range(1, top + 1):
        if k in powers:
            flat = [q for row in cur for q in row]
            traces[k] = unpack(packed_dot(flat, transposed, arity), arity)
        if k == 1:
            cur = packed
        elif k < top:
            cur = [[packed_dot(row, col, arity) for col in cols] for row in cur]
    return [traces[k] for k in powers]


def invariant_generators(L: LieAlgebraData) -> InvariantFamily:
    """Power-trace generators, ordered by increasing degree.

    gl_n: tr(X^i) for i = 1..n; sl_n: i = 2..n; so_{2m+1} and sp_{2m}:
    tr(X^{2i}) for i = 1..m.  Even so is not supported (its generator set
    needs the Pfaffian).  Memoized in the algebra's "invariants" cache, so
    index_of and the callers after it share one build.
    """
    cached = L._caches.get("invariants")
    if cached is not None:
        return cached
    kind = L.meta.get("type")
    size = L.meta.get("size")
    if kind == "gl":
        powers = list(range(1, size + 1))
    elif kind == "sl":
        powers = list(range(2, size + 1))
    elif kind == "so":
        if size % 2 == 0:
            raise liealg.LieAlgebraError("even so is not supported (needs the Pfaffian)")
        powers = [2 * i for i in range(1, size // 2 + 1)]
    elif kind == "sp":
        powers = [2 * i for i in range(1, size // 2 + 1)]
    else:
        raise liealg.LieAlgebraError(f"no invariant generators for type {kind!r}")
    X = generic_dual_matrix(L)
    gens = power_traces(X, powers)
    for p, d in zip(gens, powers):
        if p.is_zero() or not p.is_homogeneous() or p.total_degree() != d:
            raise liealg.InternalError(f"power trace of degree {d} is malformed (bug)")
    if len(gens) != L.meta.get("rank"):
        raise liealg.InternalError("generator count does not match the rank (bug)")
    fam = L._caches["invariants"] = InvariantFamily(algebra=L, generators=gens, degrees=powers)
    return fam


def verify_invariance(L: LieAlgebraData, p: Poly) -> bool:
    """True iff {x_k, p} = 0 exactly for every coordinate function x_k, i.e.
    the Hamiltonian field of p vanishes.  A True answer is remembered in L's
    "central" memo (see poisson), so a commutativity report on a family that
    contains p does not compute p's field again."""
    return poisson._gradient_and_field(L, p) is None


def power_sums_to_elementary(power_sums: list[Poly]) -> list[Poly]:
    """Newton's identities: e_1..e_m from p_1..p_m, in any polynomial ring
    (the slice pipeline applies them to the restricted power traces).

    e_k = (1/k) * sum_{i=1..k} (-1)^{i-1} e_{k-i} p_i.
    """
    if not power_sums:
        return []
    arity = power_sums[0].arity
    es: list[Poly] = [Poly.constant(arity, 1)]  # e_0 = 1
    for k in range(1, len(power_sums) + 1):
        acc = Poly.zero(arity)
        for i in range(1, k + 1):
            term = es[k - i] * power_sums[i - 1]
            acc = acc + (term if i % 2 == 1 else -term)
        es.append(acc * Fraction(1, k))
    return es[1:]
